#include "columnar/column_vector.h"

namespace ssql {

ColumnVector::Bank ColumnVector::BankFor(const DataType& t) {
  switch (t.id()) {
    case TypeId::kBoolean:
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
    case TypeId::kTimestamp:
    case TypeId::kDecimal:  // unscaled value; precision/scale from the type
      return Bank::kInt;
    case TypeId::kDouble:
      return Bank::kDouble;
    case TypeId::kString:
      return Bank::kString;
    default:
      return Bank::kBoxed;
  }
}

ColumnVector::ColumnVector(DataTypePtr type)
    : type_(std::move(type)), bank_(BankFor(*type_)) {}

void ColumnVector::Reserve(size_t n) {
  nulls_.reserve(n);
  switch (bank_) {
    case Bank::kInt:
      ints_.reserve(n);
      break;
    case Bank::kDouble:
      doubles_.reserve(n);
      break;
    case Bank::kString:
      strings_.reserve(n);
      break;
    case Bank::kBoxed:
      boxed_.reserve(n);
      break;
  }
}

void ColumnVector::Append(const Value& v) {
  bool is_null = v.is_null();
  nulls_.push_back(is_null ? 1 : 0);
  switch (bank_) {
    case Bank::kInt:
      // Null slots get a defined zero so kernels can read the bank
      // unconditionally (the class-level null convention).
      if (is_null) {
        ints_.push_back(0);
      } else if (type_->id() == TypeId::kDecimal) {
        ints_.push_back(v.decimal().unscaled());
      } else {
        ints_.push_back(v.AsInt64());
      }
      break;
    case Bank::kDouble:
      doubles_.push_back(is_null ? 0.0 : v.f64());
      break;
    case Bank::kString:
      strings_.push_back(is_null ? std::string() : v.str());
      break;
    case Bank::kBoxed:
      boxed_.push_back(v);
      break;
  }
  ++size_;
  assert(nulls_.size() == size_ &&
         (bank_ != Bank::kInt || ints_.size() == size_) &&
         (bank_ != Bank::kDouble || doubles_.size() == size_) &&
         (bank_ != Bank::kString || strings_.size() == size_) &&
         (bank_ != Bank::kBoxed || boxed_.size() == size_) &&
         "ColumnVector banks out of lockstep");
}

void ColumnVector::AppendNull() {
  nulls_.push_back(1);
  switch (bank_) {
    case Bank::kInt:
      ints_.push_back(0);
      break;
    case Bank::kDouble:
      doubles_.push_back(0.0);
      break;
    case Bank::kString:
      strings_.emplace_back();
      break;
    case Bank::kBoxed:
      boxed_.emplace_back();
      break;
  }
  ++size_;
}

void ColumnVector::AppendString(const std::string& v) {
  assert(bank_ == Bank::kString && "AppendString on a non-string bank");
  nulls_.push_back(0);
  strings_.push_back(v);
  ++size_;
}

void ColumnVector::AppendString(std::string&& v) {
  assert(bank_ == Bank::kString && "AppendString on a non-string bank");
  nulls_.push_back(0);
  strings_.push_back(std::move(v));
  ++size_;
}

Value ColumnVector::GetValue(size_t i) const {
  assert(i < size_ && "ColumnVector::GetValue index out of range");
  if (nulls_[i] != 0) return Value::Null();
  switch (bank_) {
    case Bank::kInt:
      switch (type_->id()) {
        case TypeId::kBoolean:
          return Value(ints_[i] != 0);
        case TypeId::kInt32:
          return Value(static_cast<int32_t>(ints_[i]));
        case TypeId::kDate:
          return Value(DateValue{static_cast<int32_t>(ints_[i])});
        case TypeId::kTimestamp:
          return Value(TimestampValue{ints_[i]});
        case TypeId::kDecimal: {
          const auto& dt = AsDecimal(*type_);
          return Value(Decimal(ints_[i], dt.precision(), dt.scale()));
        }
        default:
          return Value(ints_[i]);
      }
    case Bank::kDouble:
      return Value(doubles_[i]);
    case Bank::kString:
      return Value(strings_[i]);
    case Bank::kBoxed:
      return boxed_[i];
  }
  return Value::Null();
}

size_t ColumnVector::MemoryBytes() const {
  size_t bytes = nulls_.capacity();
  bytes += ints_.capacity() * sizeof(int64_t);
  bytes += doubles_.capacity() * sizeof(double);
  for (const auto& s : strings_) bytes += sizeof(std::string) + s.capacity();
  bytes += boxed_.capacity() * sizeof(Value);
  return bytes;
}

size_t EstimateBoxedRowBytes(const StructType& schema) {
  // A Row is a vector of Values; each Value is a std::variant whose
  // footprint dominates for atomic types, plus string payloads.
  size_t per_row = sizeof(void*) * 3;  // vector header
  for (const auto& f : schema.fields()) {
    per_row += sizeof(Value);
    if (f.type->id() == TypeId::kString) per_row += 16;  // avg payload guess
  }
  return per_row;
}

}  // namespace ssql
