#include "types/data_type.h"

#include <algorithm>

#include "types/decimal.h"
#include "types/schema.h"

namespace ssql {

namespace {

const char* PrimitiveName(TypeId id) {
  switch (id) {
    case TypeId::kNull:
      return "null";
    case TypeId::kBoolean:
      return "boolean";
    case TypeId::kInt32:
      return "int";
    case TypeId::kInt64:
      return "bigint";
    case TypeId::kDouble:
      return "double";
    case TypeId::kString:
      return "string";
    case TypeId::kDate:
      return "date";
    case TypeId::kTimestamp:
      return "timestamp";
    default:
      return "?";
  }
}

struct PrimitiveType : DataType {
  explicit PrimitiveType(TypeId id) : DataType(id) {}
};

DataTypePtr MakePrimitive(TypeId id) {
  return std::make_shared<PrimitiveType>(id);
}

}  // namespace

std::string DataType::ToString() const { return PrimitiveName(id()); }

bool DataType::Equals(const DataType& other) const { return id() == other.id(); }

const DataTypePtr& DataType::Null() {
  static const DataTypePtr t = MakePrimitive(TypeId::kNull);
  return t;
}
const DataTypePtr& DataType::Boolean() {
  static const DataTypePtr t = MakePrimitive(TypeId::kBoolean);
  return t;
}
const DataTypePtr& DataType::Int32() {
  static const DataTypePtr t = MakePrimitive(TypeId::kInt32);
  return t;
}
const DataTypePtr& DataType::Int64() {
  static const DataTypePtr t = MakePrimitive(TypeId::kInt64);
  return t;
}
const DataTypePtr& DataType::Double() {
  static const DataTypePtr t = MakePrimitive(TypeId::kDouble);
  return t;
}
const DataTypePtr& DataType::String() {
  static const DataTypePtr t = MakePrimitive(TypeId::kString);
  return t;
}
const DataTypePtr& DataType::Date() {
  static const DataTypePtr t = MakePrimitive(TypeId::kDate);
  return t;
}
const DataTypePtr& DataType::Timestamp() {
  static const DataTypePtr t = MakePrimitive(TypeId::kTimestamp);
  return t;
}

std::string DecimalType::ToString() const {
  return "decimal(" + std::to_string(precision_) + "," + std::to_string(scale_) + ")";
}

std::string DecimalType::OutOfBounds(int64_t precision, int64_t scale) {
  constexpr int64_t kMaxPrecision = 38;
  const std::string type = "decimal(" + std::to_string(precision) + "," +
                           std::to_string(scale) + ")";
  if (precision < 1 || precision > kMaxPrecision) {
    return type + ": precision must be 1.." + std::to_string(kMaxPrecision);
  }
  const int64_t max_scale =
      std::min<int64_t>(precision, Decimal::kMaxLongDigits);
  if (scale < 0 || scale > max_scale) {
    return type + ": scale must be 0.." + std::to_string(max_scale);
  }
  return "";
}

bool DecimalType::Equals(const DataType& other) const {
  if (other.id() != TypeId::kDecimal) return false;
  const auto& o = static_cast<const DecimalType&>(other);
  return precision_ == o.precision_ && scale_ == o.scale_;
}

std::string ArrayType::ToString() const {
  return "array<" + element_type_->ToString() + ">";
}

bool ArrayType::Equals(const DataType& other) const {
  if (other.id() != TypeId::kArray) return false;
  const auto& o = static_cast<const ArrayType&>(other);
  return contains_null_ == o.contains_null_ &&
         element_type_->Equals(*o.element_type_);
}

std::string MapType::ToString() const {
  return "map<" + key_type_->ToString() + "," + value_type_->ToString() + ">";
}

bool MapType::Equals(const DataType& other) const {
  if (other.id() != TypeId::kMap) return false;
  const auto& o = static_cast<const MapType&>(other);
  return key_type_->Equals(*o.key_type_) && value_type_->Equals(*o.value_type_);
}

std::string UserDefinedType::ToString() const { return "udt<" + name() + ">"; }

bool UserDefinedType::Equals(const DataType& other) const {
  if (other.id() != TypeId::kUserDefined) return false;
  return name() == static_cast<const UserDefinedType&>(other).name();
}

}  // namespace ssql
