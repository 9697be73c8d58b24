#include "catalyst/expr/cast.h"

#include <cmath>

#include "types/schema.h"

namespace ssql {

bool Cast::CanCast(const DataType& from, const DataType& to) {
  if (from.Equals(to)) return true;
  if (from.id() == TypeId::kNull) return true;
  // Anything atomic converts to string.
  if (to.id() == TypeId::kString && from.IsAtomic()) return true;
  // String parses to any atomic type.
  if (from.id() == TypeId::kString && to.IsAtomic()) return true;
  if (from.IsNumeric() && to.IsNumeric()) return true;
  if (from.id() == TypeId::kBoolean && to.IsNumeric()) return true;
  if (from.IsNumeric() && to.id() == TypeId::kBoolean) return true;
  if (from.id() == TypeId::kDate && to.id() == TypeId::kTimestamp) return true;
  if (from.id() == TypeId::kTimestamp && to.id() == TypeId::kDate) return true;
  return false;
}

namespace {

/// Boxes the lane value ParseTextAs produced for `to`.
Value BoxLane(const DataType& to, int64_t i, double d) {
  switch (to.id()) {
    case TypeId::kBoolean:
      return Value(i != 0);
    case TypeId::kInt32:
      return Value(static_cast<int32_t>(i));
    case TypeId::kDouble:
      return Value(d);
    case TypeId::kDecimal: {
      const auto& dt = static_cast<const DecimalType&>(to);
      return Value(Decimal(i, dt.precision(), dt.scale()));
    }
    case TypeId::kDate:
      return Value(DateValue{static_cast<int32_t>(i)});
    case TypeId::kTimestamp:
      return Value(TimestampValue{i});
    default:
      return Value(i);
  }
}

}  // namespace

Value Cast::Convert(const Value& value, const DataType& to) {
  if (value.is_null()) return Value::Null();
  TypeId from = value.type_id();
  if (from == TypeId::kString && to.id() != TypeId::kString && to.IsAtomic()) {
    int64_t i = 0;
    double d = 0;
    if (!ParseTextAs(value.str(), to, &i, &d)) return Value::Null();
    return BoxLane(to, i, d);
  }
  switch (to.id()) {
    case TypeId::kBoolean:
      if (from == TypeId::kBoolean) return value;
      return Value(value.AsInt64() != 0);
    case TypeId::kInt32:
      if (from == TypeId::kInt32) return value;
      return Value(static_cast<int32_t>(value.AsInt64()));
    case TypeId::kInt64:
      if (from == TypeId::kInt64) return value;
      return Value(value.AsInt64());
    case TypeId::kDouble:
      if (from == TypeId::kDouble) return value;
      return Value(value.AsDouble());
    case TypeId::kDecimal: {
      const auto& dt = static_cast<const DecimalType&>(to);
      if (from == TypeId::kDecimal) {
        return Value(value.decimal().Rescale(dt.precision(), dt.scale()));
      }
      // An integer whose digits fit converts exactly, not through a double.
      if ((from == TypeId::kInt32 || from == TypeId::kInt64) &&
          std::abs(value.AsDouble()) <
              std::pow(10.0, Decimal::kMaxLongDigits - dt.scale())) {
        return Value(Decimal(value.AsInt64(), dt.precision(), 0)
                         .Rescale(dt.precision(), dt.scale()));
      }
      return Value(Decimal::FromDouble(value.AsDouble(), dt.precision(),
                                       dt.scale()));
    }
    case TypeId::kString:
      if (from == TypeId::kString) return value;
      return Value(value.ToString());
    case TypeId::kDate: {
      if (from == TypeId::kDate) return value;
      if (from == TypeId::kTimestamp) {
        int64_t micros = value.timestamp().micros;
        int64_t days = micros / (86400LL * 1000000LL);
        if (micros < 0 && micros % (86400LL * 1000000LL) != 0) --days;
        return Value(DateValue{static_cast<int32_t>(days)});
      }
      return Value::Null();
    }
    case TypeId::kTimestamp: {
      if (from == TypeId::kTimestamp) return value;
      if (from == TypeId::kDate) {
        return Value(
            TimestampValue{static_cast<int64_t>(value.date().days) * 86400LL *
                           1000000LL});
      }
      return Value::Null();
    }
    default:
      return Value::Null();
  }
}

}  // namespace ssql
