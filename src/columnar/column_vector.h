#ifndef SSQL_COLUMNAR_COLUMN_VECTOR_H_
#define SSQL_COLUMNAR_COLUMN_VECTOR_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "types/schema.h"
#include "types/value.h"

namespace ssql {

/// A decoded, typed column of values — the unit the in-memory columnar
/// cache (Section 3.6), the colf file format, and the vectorized execution
/// engine (RowBatch) exchange. Atomic types are stored unboxed
/// (int64/double/string banks); complex types fall back to boxed Values.
///
/// Null convention: every bank slot is written, null or not. A null entry
/// holds a defined zero value (0 / 0.0 / "" / null Value) in its bank, so
/// vectorized kernels may read banks unconditionally under the null mask —
/// the unboxed accessors return that zero for null slots rather than
/// touching uninitialized memory.
class ColumnVector {
 public:
  explicit ColumnVector(DataTypePtr type);

  const DataTypePtr& type() const { return type_; }
  size_t size() const { return size_; }

  void Append(const Value& v);

  /// Unboxed appenders for vectorized kernels (no Value construction).
  /// The caller must match the column's bank: int-like types (bool, int32,
  /// int64, date, timestamp, decimal-unscaled) take AppendInt64.
  void AppendNull();
  void AppendInt64(int64_t v) {
    assert(bank_ == Bank::kInt && "AppendInt64 on a non-int bank");
    nulls_.push_back(0);
    ints_.push_back(v);
    ++size_;
  }
  void AppendDouble(double v) {
    assert(bank_ == Bank::kDouble && "AppendDouble on a non-double bank");
    nulls_.push_back(0);
    doubles_.push_back(v);
    ++size_;
  }
  void AppendString(const std::string& v);
  void AppendString(std::string&& v);

  /// Reserves capacity in every bank this column can touch: the null bank
  /// plus the active value bank (both grow in lockstep on Append).
  void Reserve(size_t n);

  bool IsNull(size_t i) const {
    assert(i < size_ && "ColumnVector::IsNull index out of range");
    return nulls_[i] != 0;
  }
  /// Boxes the value at `i` (null-aware).
  Value GetValue(size_t i) const;

  // Unboxed accessors for hot paths; return the defined zero slot when null.
  int64_t GetInt64(size_t i) const {
    assert(i < size_ && "ColumnVector::GetInt64 index out of range");
    return ints_[i];
  }
  double GetDouble(size_t i) const {
    assert(i < size_ && "ColumnVector::GetDouble index out of range");
    return doubles_[i];
  }
  const std::string& GetString(size_t i) const {
    assert(i < size_ && "ColumnVector::GetString index out of range");
    return strings_[i];
  }

  /// Approximate in-memory footprint in bytes (used by the columnar-cache
  /// vs row-cache comparison).
  size_t MemoryBytes() const;

  // Raw banks, used by the encoder and the vectorized kernels. Every bank
  // slot is defined (see the null convention above), so kernels may gather
  // from these unconditionally and mask with nulls() afterwards.
  const std::vector<uint8_t>& nulls() const { return nulls_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<Value>& boxed() const { return boxed_; }

 private:
  enum class Bank : uint8_t { kInt, kDouble, kString, kBoxed };
  static Bank BankFor(const DataType& t);

  DataTypePtr type_;
  Bank bank_;
  size_t size_ = 0;
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<Value> boxed_;
};

/// Rough per-row footprint of a boxed Row representation with this schema
/// (what Spark's "native cache as JVM objects" corresponds to here).
size_t EstimateBoxedRowBytes(const StructType& schema);

}  // namespace ssql

#endif  // SSQL_COLUMNAR_COLUMN_VECTOR_H_
