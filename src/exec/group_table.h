#ifndef SSQL_EXEC_GROUP_TABLE_H_
#define SSQL_EXEC_GROUP_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalyst/expr/aggregates.h"
#include "columnar/column_vector.h"
#include "engine/memory_manager.h"
#include "util/spill_file.h"

namespace ssql {

class QueryContext;

/// How a grouping column is stored: int-like types (boolean, int32, int64,
/// date, timestamp) as int64, double as double, string as bytes in the
/// table's arena, and anything else (decimal, nested types) as a boxed
/// Value compared with Value::Equals.
enum class Lane : uint8_t { kInt, kDouble, kString, kBoxed };
Lane LaneFor(TypeId id);

/// Accumulator class of one aggregate function. The typed kinds keep a
/// 16-byte slot (a value plus a count or has-value flag); kBoxed keeps the
/// function's own Value accumulator and goes through Update/Merge/Finish:
/// decimal sum and average, non-numeric min/max, count(DISTINCT).
enum class AccKind : uint8_t {
  kCountStar, kCount, kSumI64, kSumF64, kAvg, kMinMaxI64, kMinMaxF64, kBoxed
};

/// One aggregate function's place in the table.
struct AggSlot {
  AccKind kind = AccKind::kBoxed;
  bool is_min = false;
  TypeId type = TypeId::kNull;  // boxing type of a min/max result
  /// The function; for kBoxed its children are rebound to the ordinals of
  /// the argument row its Update receives.
  AggregatePtr fn;
  /// Input expressions of the partial stage, unbound: none for count(*),
  /// the argument of a typed kind, every child of a kBoxed function.
  ExprVector args;
};

/// The slot of `fn`: a typed kind when its inputs allow, else kBoxed.
AggSlot MakeAggSlot(const AggregatePtr& fn);

/// The one hash-aggregation table, used by every HashAggregateExec stage
/// for every key shape and budget. Input arrives in chunks of rows, one
/// ColumnVector per key or argument column.
///
/// Keys are stored typed, one lane per key column plus a null flag, with
/// strings in an arena the table owns. The index is open addressing over
/// (hash tag, group id) pairs; each group's full hash is kept for rehashing
/// and spilling. Accumulators live in group-major banks: a typed slot per
/// aggregate plus a boxed Value slot per kBoxed function. A chunk is hashed
/// column by column, resolved to group ids row by row, then folded one
/// aggregate at a time.
///
/// All table memory (index, key lanes, arena, banks) is charged to a
/// MemoryReservation as it grows. When a grant is denied the table spills
/// Grace-style: every group is scattered as a [key..., acc...] row (the
/// partial stage's shuffle form) into one of 16 files by MixHash64(hash),
/// and the table restarts empty. Drain() then re-aggregates one bucket at a
/// time with Merge, exactly as the Final stage combines shuffled rows.
class GroupTable {
 public:
  using Columns = std::vector<const ColumnVector*>;

  /// `consumer` names the stage in spill files and budget errors; `aggs`
  /// must outlive the table.
  GroupTable(QueryContext& ctx, std::string consumer,
             const std::vector<DataTypePtr>& key_types,
             const std::vector<AggSlot>& aggs);

  /// Folds `n` input rows: `cols` holds the key columns, then each
  /// aggregate's argument columns in slot order.
  void Update(const Columns& cols, size_t n);

  /// Folds `n` rows of partial accumulators in shuffle form, each laid out
  /// [key..., acc...].
  void Merge(const Row* rows, size_t n);

  /// Hands every group to `sink` exactly once as [key..., acc...], the
  /// accumulators in shuffle form or finished (`finish`), merging spilled
  /// buckets back one at a time. Leaves the table empty.
  void Drain(bool finish, const std::function<void(Row&&)>& sink);

 private:
  struct Acc {
    union {
      int64_t i;
      double d;
    };
    int64_t n;  // count, or 1 once a sum/min/max has seen a value
  };
  struct Slot {
    uint32_t tag;  // high hash bits
    uint32_t gid;  // group id + 1; 0 = empty
  };
  struct KeyColumn {
    explicit KeyColumn(DataTypePtr t) : lane(LaneFor(t->id())), type(t) {}
    Lane lane;
    DataTypePtr type;
    const ColumnVector* in = nullptr;  // the chunk being resolved, and
    const uint8_t* in_nulls = nullptr;  // its banks
    const int64_t* in_ints = nullptr;
    const double* in_doubles = nullptr;
    std::vector<uint8_t> nulls;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string_view> strings;  // into the arena
    std::vector<Value> boxed;
  };

  /// Hashes the keys of a chunk and binds its key columns.
  void BindKeys(const ColumnVector* const* keys, size_t n);
  /// Resolves rows [begin, n) of the bound chunk to group ids, inserting
  /// new groups. Stops at a row the budget cannot admit a group for and
  /// returns it, so the caller folds the prefix and spills; returns n once
  /// every row is resolved.
  size_t Resolve(size_t begin, size_t n);
  bool KeyEquals(uint32_t g, size_t r) const;
  int64_t InsertBytes(size_t r) const;
  uint32_t Insert(size_t r, uint64_t hash);
  void Grow();
  void FoldColumns(size_t j, const ColumnVector* const* args, size_t begin,
                   size_t end);
  void FoldValues(size_t j, const Row* rows, size_t col, size_t begin,
                  size_t end);
  /// Group `g` as [key..., acc...]; moves its boxed values out.
  Row GroupRow(uint32_t g, bool finish);
  void Spill();
  /// Frees all table memory and returns the reservation.
  void Reset();

  QueryContext& ctx_;
  std::string consumer_;
  std::vector<KeyColumn> keys_;
  const std::vector<AggSlot>& aggs_;
  std::vector<size_t> arg_offset_;   // slot -> first argument column
  std::vector<size_t> boxed_index_;  // slot -> boxed bank column
  std::vector<Value> boxed_init_;    // InitAccumulator() per boxed slot
  int64_t boxed_init_bytes_ = 0;
  int64_t group_bytes_ = 0;  // per-group bytes of lanes, banks and index

  uint32_t num_groups_ = 0;
  uint32_t capacity_ = 0;
  std::vector<Slot> index_;
  std::vector<uint64_t> hashes_;
  std::vector<Acc> accs_;
  std::vector<Value> boxed_;
  std::vector<std::unique_ptr<char[]>> arena_;
  char* arena_next_ = nullptr;
  size_t arena_left_ = 0;
  size_t arena_chunk_ = 0;  // size of the next chunk

  std::vector<uint64_t> chunk_hashes_;
  std::vector<uint32_t> chunk_gids_;
  Row scratch_args_;

  int64_t used_bytes_ = 0;
  MemoryReservation reservation_;
  bool draining_ = false;
  std::vector<std::optional<SpillFile>> spill_buckets_;
};

}  // namespace ssql

#endif  // SSQL_EXEC_GROUP_TABLE_H_
