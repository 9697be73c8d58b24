#ifndef SSQL_EXEC_KEY_TABLE_H_
#define SSQL_EXEC_KEY_TABLE_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/column_vector.h"
#include "columnar/row_batch.h"
#include "engine/memory_manager.h"
#include "exec/scan_exec.h"

namespace ssql {

/// How a key column is stored: int-like types (boolean, int32, int64, date,
/// timestamp) as int64, double as double, string as bytes in the table's
/// arena, and anything else (decimal, nested types) as a boxed Value
/// compared with Value::Equals.
enum class Lane : uint8_t { kInt, kDouble, kString, kBoxed };
Lane LaneFor(TypeId id);

/// Boxes an int64 lane value back into its logical type.
Value BoxIntLike(int64_t v, TypeId id);

/// A chunk of key columns hashed for lookup: each row's full hash, whether
/// it has a null key cell (only kept when nulls never match), and the
/// columns' banks. The caller owns it, so many tasks can probe one table.
struct KeyChunk {
  struct Column {
    const ColumnVector* col;
    const uint8_t* nulls;
    const int64_t* ints;
    const double* doubles;
    const std::string* strings;
  };
  std::vector<Column> cols;
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> has_null;
};

/// The one key index, shared by hash aggregation (GroupTable) and every
/// hash join. It assigns each distinct key a dense id 0, 1, 2, ... in
/// insertion order; owners keep their per-key state (accumulators, join
/// chains) in arrays indexed by that id.
///
/// Keys are stored typed, one lane per key column plus a null flag, with
/// strings in an arena the table owns. The index is open addressing over
/// (hash tag, id) pairs; each key's full hash is kept for rehashing and
/// spilling. Hashing and equality follow Value::Equals for doubles: -0.0
/// equals 0.0 and NaN equals NaN. A null key cell either equals another
/// null (grouping) or never matches (equi-join: such rows are neither
/// inserted nor found).
///
/// All table memory (index, lanes, arena, plus the owner's per-key bytes)
/// is charged to the table's reservation as it grows; an insert whose grant
/// is denied asks the owner whether to admit it over budget or stop.
class KeyTable {
 public:
  using Columns = std::vector<const ColumnVector*>;
  static constexpr uint32_t kNone = 0xffffffffu;
  /// Decides on a denied grant of `bytes`: true admits them over budget,
  /// false refuses. May throw instead.
  using Admit = std::function<bool(int64_t bytes)>;

  /// `owner_key_bytes` is charged per key of capacity as the table grows
  /// (the owner's per-key arrays), `owner_insert_bytes` per inserted key.
  KeyTable(MemoryManager& memory, std::vector<DataTypePtr> types,
           bool nulls_match, int64_t owner_key_bytes = 0,
           int64_t owner_insert_bytes = 0);

  const std::vector<DataTypePtr>& types() const { return types_; }
  uint32_t size() const { return size_; }
  uint32_t capacity() const { return capacity_; }
  uint64_t hash(uint32_t id) const { return hashes_[id]; }
  int64_t bytes() const { return bytes_; }

  /// Hashes `n` rows of key columns, one column per key, into `chunk`.
  void Hash(const ColumnVector* const* cols, size_t n, KeyChunk* chunk) const;

  /// The id of row `r`'s key, or kNone.
  uint32_t Find(const KeyChunk& chunk, size_t r) const;

  /// Resolves rows [begin, n) of `chunk` to ids in `ids`, inserting absent
  /// keys (kNone for a null key that never matches). Stops at the row whose
  /// grant `admit` refuses and returns it; returns n once every row is
  /// resolved.
  size_t Resolve(const KeyChunk& chunk, size_t begin, size_t n, uint32_t* ids,
                 const Admit& admit);

  /// Charges `bytes` of the owner's memory to the table's reservation,
  /// asking `admit` when the grant is denied. False when refused.
  bool Charge(int64_t bytes, const Admit& admit);

  /// Appends key `id` to `row` as Values; moves boxed-lane values out.
  void AppendKey(uint32_t id, Row* row);

  /// Frees all table memory and returns the reservation.
  void Reset();

 private:
  struct Slot {
    uint32_t tag;  // high hash bits
    uint32_t id;   // key id + 1; 0 = empty
  };
  struct KeyLane {
    Lane lane;
    std::vector<uint8_t> nulls;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string_view> strings;  // into the arena
    std::vector<Value> boxed;
  };

  bool KeyEquals(uint32_t id, const KeyChunk& chunk, size_t r) const;
  int64_t InsertBytes(const KeyChunk& chunk, size_t r) const;
  uint32_t Insert(const KeyChunk& chunk, size_t r);
  void Grow();

  std::vector<DataTypePtr> types_;
  std::vector<KeyLane> lanes_;
  const bool nulls_match_;
  int64_t key_bytes_ = 0;  // per key of capacity: index, hash, lanes, owner
  const int64_t insert_bytes_;

  uint32_t size_ = 0;
  uint32_t capacity_ = 0;
  std::vector<Slot> index_;
  std::vector<uint64_t> hashes_;
  std::vector<std::unique_ptr<char[]>> arena_;
  char* arena_next_ = nullptr;
  size_t arena_left_ = 0;
  size_t arena_block_ = 0;  // size of the next block

  int64_t bytes_ = 0;
  MemoryReservation reservation_;
};

// Null slots hold defined zeros on both sides (ColumnVector's convention,
// kept by Insert), so comparing the null flags and the lane values decides
// equality without a branch on null.
inline bool KeyTable::KeyEquals(uint32_t id, const KeyChunk& chunk,
                                size_t r) const {
  for (size_t c = 0; c < lanes_.size(); ++c) {
    const KeyLane& key = lanes_[c];
    const KeyChunk::Column& in = chunk.cols[c];
    bool same = key.nulls[id] == in.nulls[r];
    switch (key.lane) {
      case Lane::kInt:
        same = same && key.ints[id] == in.ints[r];
        break;
      case Lane::kDouble: {
        double a = key.doubles[id], b = in.doubles[r];
        same = same && (a == b || (std::isnan(a) && std::isnan(b)));
        break;
      }
      case Lane::kString:
        same = same && key.strings[id] == std::string_view(in.strings[r]);
        break;
      case Lane::kBoxed:
        same = same && key.boxed[id].Equals(in.col->GetValue(r));
        break;
    }
    if (!same) return false;
  }
  return true;
}

inline uint32_t KeyTable::Find(const KeyChunk& chunk, size_t r) const {
  if (index_.empty() || (!nulls_match_ && chunk.has_null[r] != 0)) {
    return kNone;
  }
  const uint64_t h = chunk.hashes[r];
  const size_t mask = index_.size() - 1;
  const auto tag = static_cast<uint32_t>(h >> 32);
  for (size_t p = h & mask; index_[p].id != 0; p = (p + 1) & mask) {
    if (index_[p].tag == tag && KeyEquals(index_[p].id - 1, chunk, r)) {
      return index_[p].id - 1;
    }
  }
  return kNone;
}

/// Per-task evaluation of bound expressions (keys, aggregate arguments)
/// into one ColumnVector each, over a chunk of rows or the live rows of a
/// batch. Compiled programs read rows through typed register reads, without
/// boxing; interpreted expressions (codegen off) evaluate boxed, row by row.
class InputReader {
 public:
  InputReader(const std::vector<BoundCompiled>& inputs, bool batched);

  const KeyTable::Columns& Read(const Row* rows, size_t n);
  const KeyTable::Columns& Read(const RowBatch& batch);

 private:
  /// An empty column of input i's type for the next chunk.
  ColumnVector& Fresh(size_t i, size_t n);

  const std::vector<BoundCompiled>& inputs_;
  std::vector<std::optional<CompiledExpression::Evaluator>> row_evals_;
  std::vector<std::optional<CompiledExpression::VectorEvaluator>> vec_evals_;
  std::vector<std::optional<ColumnVector>> cols_;
  KeyTable::Columns views_;
};

}  // namespace ssql

#endif  // SSQL_EXEC_KEY_TABLE_H_
