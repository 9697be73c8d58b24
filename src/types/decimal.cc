#include "types/decimal.h"

#include <cmath>
#include <cstdlib>

namespace ssql {

namespace {

int64_t Pow10(int n) {
  int64_t v = 1;
  for (int i = 0; i < n; ++i) v *= 10;
  return v;
}

}  // namespace

bool Decimal::Parse(std::string_view text, Decimal* out) {
  if (text.empty()) return false;
  size_t i = 0;
  bool negative = false;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    i = 1;
  }
  int64_t unscaled = 0;
  int digits = 0;
  int scale = 0;
  bool seen_dot = false;
  bool seen_digit = false;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (c == '.') {
      if (seen_dot) return false;
      seen_dot = true;
      continue;
    }
    if (c < '0' || c > '9') return false;
    seen_digit = true;
    if (digits >= kMaxLongDigits) return false;
    unscaled = unscaled * 10 + (c - '0');
    ++digits;
    if (seen_dot) ++scale;
  }
  if (!seen_digit) return false;
  if (negative) unscaled = -unscaled;
  *out = Decimal(unscaled, digits == 0 ? 1 : digits, scale);
  return true;
}

Decimal Decimal::FromDouble(double value, int precision, int scale) {
  double scaled = value * static_cast<double>(Pow10(scale));
  return Decimal(static_cast<int64_t>(std::llround(scaled)), precision, scale);
}

double Decimal::ToDouble() const {
  // Trailing zeros go first, so equal decimals give one double at any scale
  // (Value::Hash hashes a decimal by it).
  int64_t v = unscaled_;
  int s = scale_;
  for (; s > 0 && v % 10 == 0; --s) v /= 10;
  return static_cast<double>(v) / static_cast<double>(Pow10(s));
}

int64_t Decimal::ToInt64() const { return unscaled_ / Pow10(scale_); }

std::string Decimal::ToString() const {
  int64_t v = unscaled_;
  bool negative = v < 0;
  if (negative) v = -v;
  std::string digits = std::to_string(v);
  if (scale_ > 0) {
    while (static_cast<int>(digits.size()) <= scale_) digits.insert(0, "0");
    digits.insert(digits.size() - scale_, ".");
  }
  if (negative) digits.insert(0, "-");
  return digits;
}

Decimal Decimal::Rescale(int new_precision, int new_scale) const {
  if (new_scale == scale_) return Decimal(unscaled_, new_precision, new_scale);
  if (new_scale > scale_) {
    return Decimal(unscaled_ * Pow10(new_scale - scale_), new_precision, new_scale);
  }
  int64_t div = Pow10(scale_ - new_scale);
  int64_t half = div / 2;
  int64_t v = unscaled_;
  int64_t rounded = v >= 0 ? (v + half) / div : (v - half) / div;
  return Decimal(rounded, new_precision, new_scale);
}

Decimal Decimal::Add(const Decimal& other) const {
  int s = std::max(scale_, other.scale_);
  Decimal a = Rescale(precision_, s);
  Decimal b = other.Rescale(other.precision_, s);
  int p = std::min(kMaxLongDigits, std::max(precision_ - scale_, other.precision_ - other.scale_) + s + 1);
  return Decimal(a.unscaled_ + b.unscaled_, p, s);
}

Decimal Decimal::Subtract(const Decimal& other) const {
  Decimal neg(-other.unscaled_, other.precision_, other.scale_);
  return Add(neg);
}

Decimal Decimal::Multiply(const Decimal& other) const {
  int s = scale_ + other.scale_;
  int p = std::min(kMaxLongDigits, precision_ + other.precision_);
  return Decimal(unscaled_ * other.unscaled_, p, s);
}

Decimal Decimal::Divide(const Decimal& other) const {
  // Compute at double precision and round back; adequate for the
  // 18-digit budget this class supports.
  double result = ToDouble() / other.ToDouble();
  int s = std::max(scale_, 6);
  return FromDouble(result, kMaxLongDigits, s);
}

int Decimal::Compare(const Decimal& other) const {
  // Align scales in 128 bits by scaling up the side of smaller scale. Past
  // 2^64 it has passed the other side (below 2^63) for good, so the scaling
  // stops there and never overflows.
  constexpr __int128 kSettled = static_cast<__int128>(1) << 64;
  __int128 a = unscaled_, b = other.unscaled_;
  __int128& v = scale_ < other.scale_ ? a : b;
  int k = std::abs(scale_ - other.scale_);
  while (k-- > 0 && v < kSettled && v > -kSettled) v *= 10;
  return static_cast<int>(a > b) - static_cast<int>(a < b);
}

}  // namespace ssql
