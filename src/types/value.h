#ifndef SSQL_TYPES_VALUE_H_
#define SSQL_TYPES_VALUE_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "types/data_type.h"
#include "types/decimal.h"

namespace ssql {

class Value;

/// Days since the Unix epoch (SQL DATE).
struct DateValue {
  int32_t days = 0;
  bool operator==(const DateValue& o) const { return days == o.days; }
};

/// Microseconds since the Unix epoch (SQL TIMESTAMP).
struct TimestampValue {
  int64_t micros = 0;
  bool operator==(const TimestampValue& o) const { return micros == o.micros; }
};

/// Boxed array value.
struct ArrayData {
  std::vector<Value> elements;
};

/// Boxed struct value; fields are positional against the StructType.
struct StructData {
  std::vector<Value> fields;
};

/// Boxed map value stored as an entry list.
struct MapData {
  std::vector<std::pair<Value, Value>> entries;
};

/// An opaque host-language object flowing through a UDT column before
/// serialization (Section 4.4.2) or through a typed RDD facade.
struct ObjectData {
  std::shared_ptr<void> ptr;
  const UserDefinedType* udt = nullptr;  // optional; owned by the registry
};

/// A boxed runtime value: the dynamically-typed representation used by the
/// interpreted expression evaluator and the row-based execution engine.
/// (The compiled backend of catalyst/codegen avoids this boxing; comparing
/// the two is the point of the Figure 4 benchmark.)
class Value {
 public:
  Value() : v_(std::monostate{}) {}  // null
  Value(bool b) : v_(b) {}           // NOLINT(google-explicit-constructor)
  Value(int32_t i) : v_(i) {}        // NOLINT
  Value(int64_t i) : v_(i) {}        // NOLINT
  Value(double d) : v_(d) {}         // NOLINT
  Value(const char* s) : v_(std::string(s)) {}  // NOLINT
  Value(std::string s) : v_(std::move(s)) {}    // NOLINT
  Value(Decimal d) : v_(d) {}                   // NOLINT
  Value(DateValue d) : v_(d) {}                 // NOLINT
  Value(TimestampValue t) : v_(t) {}            // NOLINT

  static Value Null() { return Value(); }
  static Value Array(std::vector<Value> elements);
  static Value Struct(std::vector<Value> fields);
  static Value Map(std::vector<std::pair<Value, Value>> entries);
  static Value Object(std::shared_ptr<void> ptr, const UserDefinedType* udt);

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }

  TypeId type_id() const;

  // Unchecked accessors; callers must know the runtime type (the analyzer
  // guarantees it after type coercion).
  bool bool_value() const { return std::get<bool>(v_); }
  int32_t i32() const { return std::get<int32_t>(v_); }
  int64_t i64() const { return std::get<int64_t>(v_); }
  double f64() const { return std::get<double>(v_); }
  const std::string& str() const { return std::get<std::string>(v_); }
  const Decimal& decimal() const { return std::get<Decimal>(v_); }
  DateValue date() const { return std::get<DateValue>(v_); }
  TimestampValue timestamp() const { return std::get<TimestampValue>(v_); }
  const ArrayData& array() const { return *std::get<std::shared_ptr<ArrayData>>(v_); }
  const StructData& struct_data() const {
    return *std::get<std::shared_ptr<StructData>>(v_);
  }
  const MapData& map() const { return *std::get<std::shared_ptr<MapData>>(v_); }
  const ObjectData& object() const {
    return *std::get<std::shared_ptr<ObjectData>>(v_);
  }

  /// Widening numeric reads that accept any numeric alternative.
  int64_t AsInt64() const;
  double AsDouble() const;

  /// Deep structural equality (null == null here, unlike SQL semantics;
  /// SQL three-valued logic lives in the expression layer).
  bool Equals(const Value& other) const;

  /// Three-way comparison, a total order on each comparable type: the one
  /// order behind predicates, zone maps, ORDER BY, min/max and DISTINCT.
  /// Nulls sort first. Against a double, a number compares as a double under
  /// CompareDoubles; decimals and integers compare exactly (Decimal::Compare,
  /// an integer as scale 0). Only defined for comparable types.
  int Compare(const Value& other) const;

  /// Stable hash for shuffles/hash joins; numerically-equal values of
  /// different widths hash alike.
  uint64_t Hash() const;

  /// Display form used by Collect()/Show() and plan literals.
  std::string ToString() const;

 private:
  using Variant =
      std::variant<std::monostate, bool, int32_t, int64_t, double, std::string,
                   Decimal, DateValue, TimestampValue,
                   std::shared_ptr<ArrayData>, std::shared_ptr<StructData>,
                   std::shared_ptr<MapData>, std::shared_ptr<ObjectData>>;
  Variant v_;
};

/// The engine's one order of doubles, Spark's: NaN equals NaN (whatever
/// its sign and payload) and sorts after every other number, and -0.0
/// equals 0.0. Value::Compare and every typed kernel take their sign here.
inline int CompareDoubles(double a, double b) {
  // Branch-free: a NaN is neither less nor greater than anything, so with
  // a NaN the first two terms are 0 and the last two decide.
  return static_cast<int>(a > b) - static_cast<int>(a < b) +
         static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
}

/// Boxes an int64 lane value (how column banks and register programs hold
/// boolean, int32, int64, date and timestamp) back into its logical type.
inline Value BoxIntLike(int64_t v, TypeId id) {
  switch (id) {
    case TypeId::kInt32:
      return Value(static_cast<int32_t>(v));
    case TypeId::kDate:
      return Value(DateValue{static_cast<int32_t>(v)});
    case TypeId::kTimestamp:
      return Value(TimestampValue{v});
    case TypeId::kBoolean:
      return Value(v != 0);
    default:
      return Value(v);
  }
}

/// Parses "YYYY-MM-DD" into days-since-epoch. The whole text must be the
/// date: trailing text (a time of day, say) fails. Returns false on bad
/// input.
bool ParseDate(std::string_view text, DateValue* out);

/// Parses `text` as a value of the atomic, non-string type `type` by the
/// rules of CAST(string AS type): the one text-to-value primitive that
/// CAST and the CSV reader share, so the two cannot diverge. The text is
/// trimmed first, except for booleans ("true"/"false", any case). Ints,
/// doubles and dates take a from_chars-style fast path and fall back to
/// strtoll/strtod/sscanf; a timestamp is "YYYY-MM-DD[ HH:MM[:SS]]". The
/// result lands in the lane the type's column bank uses: `*d` for double,
/// `*i` for the rest (a boolean as 0/1, a date as days, a timestamp as
/// micros, a decimal as its unscaled value rescaled to the type's scale).
/// Returns false where the cast yields null: text that does not parse in
/// full, and an int outside the int32 range.
bool ParseTextAs(std::string_view text, const DataType& type, int64_t* i,
                 double* d);

/// Formats days-since-epoch as "YYYY-MM-DD".
std::string FormatDate(DateValue d);

}  // namespace ssql

#endif  // SSQL_TYPES_VALUE_H_
