#ifndef SSQL_TYPES_DECIMAL_H_
#define SSQL_TYPES_DECIMAL_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace ssql {

/// Fixed-precision decimal backed by a 64-bit unscaled value, mirroring the
/// paper's DECIMAL type (Section 4.3.2 optimizes aggregates over decimals
/// whose precision fits in a long; we keep the same 18-digit limit).
class Decimal {
 public:
  /// Maximum number of decimal digits representable in an int64 unscaled
  /// value. Matches MAX_LONG_DIGITS in the paper's DecimalAggregates rule.
  static constexpr int kMaxLongDigits = 18;

  Decimal() : unscaled_(0), precision_(10), scale_(0) {}
  Decimal(int64_t unscaled, int precision, int scale)
      : unscaled_(unscaled), precision_(precision), scale_(scale) {}

  /// Parses "123.45" into a decimal with inferred precision/scale.
  /// Returns false on malformed input or overflow.
  static bool Parse(std::string_view text, Decimal* out);

  /// Builds a decimal from a double by rounding at `scale` digits.
  static Decimal FromDouble(double value, int precision, int scale);

  int64_t unscaled() const { return unscaled_; }
  int precision() const { return precision_; }
  int scale() const { return scale_; }

  double ToDouble() const;
  int64_t ToInt64() const;  // truncates fractional digits
  std::string ToString() const;

  /// Returns this decimal rescaled to `scale` (padding or rounding).
  Decimal Rescale(int new_precision, int new_scale) const;

  Decimal Add(const Decimal& other) const;
  Decimal Subtract(const Decimal& other) const;
  Decimal Multiply(const Decimal& other) const;
  Decimal Divide(const Decimal& other) const;

  /// Exact three-way comparison after aligning scales in 128 bits, which no
  /// pair of decimals overflows.
  int Compare(const Decimal& other) const;

  bool operator==(const Decimal& other) const { return Compare(other) == 0; }

 private:
  int64_t unscaled_;
  int precision_;
  int scale_;
};

}  // namespace ssql

#endif  // SSQL_TYPES_DECIMAL_H_
