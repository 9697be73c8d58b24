#ifndef SSQL_TYPES_VALUE_H_
#define SSQL_TYPES_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
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

  /// Three-way comparison; numeric alternatives compare after widening.
  /// Nulls sort first. Only defined for comparable types.
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

/// The sort order of ORDER BY and the sort-merge join: Value::Compare,
/// except that NaN sorts after every other value and equals NaN. Compare
/// makes NaN equal to every number, which is not a strict weak order, so
/// sorting with it leaves rows unsorted.
int CompareNanLast(const Value& a, const Value& b);

/// Parses "YYYY-MM-DD" into days-since-epoch. Returns false on bad input.
bool ParseDate(const std::string& text, DateValue* out);

/// Formats days-since-epoch as "YYYY-MM-DD".
std::string FormatDate(DateValue d);

}  // namespace ssql

#endif  // SSQL_TYPES_VALUE_H_
