#ifndef SSQL_TYPES_DATA_TYPE_H_
#define SSQL_TYPES_DATA_TYPE_H_

#include <memory>
#include <string>

namespace ssql {

class DataType;
using DataTypePtr = std::shared_ptr<const DataType>;

/// Type tags for the nested data model of Section 3.2: all major SQL atomic
/// types plus complex types (arrays, structs, maps) and user-defined types.
enum class TypeId {
  kNull,
  kBoolean,
  kInt32,
  kInt64,
  kDouble,
  kDecimal,
  kString,
  kDate,
  kTimestamp,
  kArray,
  kStruct,
  kMap,
  kUserDefined,
};

/// Immutable description of a column/value type. Shared via DataTypePtr;
/// primitive types are process-wide singletons.
class DataType {
 public:
  virtual ~DataType() = default;

  TypeId id() const { return id_; }

  /// Human-readable name used in plan/ schema output, e.g. "int", "string",
  /// "array<string>", "struct<x:double,y:double>".
  virtual std::string ToString() const;

  /// Structural equality.
  virtual bool Equals(const DataType& other) const;

  bool IsNumeric() const {
    return id_ == TypeId::kInt32 || id_ == TypeId::kInt64 ||
           id_ == TypeId::kDouble || id_ == TypeId::kDecimal;
  }
  bool IsIntegral() const {
    return id_ == TypeId::kInt32 || id_ == TypeId::kInt64;
  }
  bool IsAtomic() const {
    return id_ != TypeId::kArray && id_ != TypeId::kStruct &&
           id_ != TypeId::kMap && id_ != TypeId::kUserDefined;
  }

  // Singletons for the non-parameterized types.
  static const DataTypePtr& Null();
  static const DataTypePtr& Boolean();
  static const DataTypePtr& Int32();
  static const DataTypePtr& Int64();
  static const DataTypePtr& Double();
  static const DataTypePtr& String();
  static const DataTypePtr& Date();
  static const DataTypePtr& Timestamp();

 protected:
  explicit DataType(TypeId id) : id_(id) {}

 private:
  TypeId id_;
};

/// DECIMAL(precision, scale).
class DecimalType : public DataType {
 public:
  DecimalType(int precision, int scale)
      : DataType(TypeId::kDecimal), precision_(precision), scale_(scale) {}

  static DataTypePtr Make(int precision, int scale) {
    return std::make_shared<DecimalType>(precision, scale);
  }

  int precision() const { return precision_; }
  int scale() const { return scale_; }

  std::string ToString() const override;
  bool Equals(const DataType& other) const override;

  /// Why a declared decimal(precision, scale) is out of bounds, or "" when
  /// it is in: precision 1..38 and scale 0..min(precision, 18), since a
  /// value's unscaled part is an int64 and 10^scale must fit in one.
  static std::string OutOfBounds(int64_t precision, int64_t scale);

 private:
  int precision_;
  int scale_;
};

/// ARRAY<element>. `contains_null` records whether elements may be null,
/// which the JSON schema inference of Section 5.1 tracks (Figure 6).
class ArrayType : public DataType {
 public:
  ArrayType(DataTypePtr element_type, bool contains_null)
      : DataType(TypeId::kArray),
        element_type_(std::move(element_type)),
        contains_null_(contains_null) {}

  static DataTypePtr Make(DataTypePtr element_type, bool contains_null = true) {
    return std::make_shared<ArrayType>(std::move(element_type), contains_null);
  }

  const DataTypePtr& element_type() const { return element_type_; }
  bool contains_null() const { return contains_null_; }

  std::string ToString() const override;
  bool Equals(const DataType& other) const override;

 private:
  DataTypePtr element_type_;
  bool contains_null_;
};

/// MAP<key, value>.
class MapType : public DataType {
 public:
  MapType(DataTypePtr key_type, DataTypePtr value_type)
      : DataType(TypeId::kMap),
        key_type_(std::move(key_type)),
        value_type_(std::move(value_type)) {}

  static DataTypePtr Make(DataTypePtr key_type, DataTypePtr value_type) {
    return std::make_shared<MapType>(std::move(key_type), std::move(value_type));
  }

  const DataTypePtr& key_type() const { return key_type_; }
  const DataTypePtr& value_type() const { return value_type_; }

  std::string ToString() const override;
  bool Equals(const DataType& other) const override;

 private:
  DataTypePtr key_type_;
  DataTypePtr value_type_;
};

class Value;

/// A user-defined type (Section 4.4.2): maps a host-language object to a
/// structure of built-in Catalyst types and back. Storage, data sources and
/// the columnar cache only ever see `sql_type()` values; `Serialize` /
/// `Deserialize` convert at the API boundary (e.g. around UDF invocation).
class UserDefinedType : public DataType {
 public:
  UserDefinedType() : DataType(TypeId::kUserDefined) {}

  /// Unique registered name of the UDT, e.g. "vector".
  virtual const std::string& name() const = 0;

  /// The built-in type this UDT is stored as (usually a StructType).
  virtual const DataTypePtr& sql_type() const = 0;

  /// Converts a host object value (Value::Object) to built-in types.
  virtual Value Serialize(const Value& object) const = 0;

  /// Converts built-in types back to a host object value.
  virtual Value Deserialize(const Value& serialized) const = 0;

  std::string ToString() const override;
  bool Equals(const DataType& other) const override;
};

}  // namespace ssql

#endif  // SSQL_TYPES_DATA_TYPE_H_
