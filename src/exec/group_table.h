#ifndef SSQL_EXEC_GROUP_TABLE_H_
#define SSQL_EXEC_GROUP_TABLE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "catalyst/expr/aggregates.h"
#include "exec/key_table.h"
#include "util/spill_file.h"

namespace ssql {

class QueryContext;

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
/// for every key shape and budget: a KeyTable (exec/key_table.h) assigns
/// each group its id, and accumulators live in group-major banks indexed
/// by it — a typed slot per aggregate plus a boxed Value slot per kBoxed
/// function. Input arrives in chunks of rows, one ColumnVector per key or
/// argument column; a chunk is hashed column by column, resolved to group
/// ids row by row, then folded one aggregate at a time.
///
/// The key table charges the banks along with its own memory. When a grant
/// is denied the table spills Grace-style: every group is scattered as a
/// [key..., acc...] row (the partial stage's shuffle form) into one of 16
/// files by MixHash64(hash), and the table restarts empty. Drain() then
/// re-aggregates one bucket at a time with Merge, exactly as the Final
/// stage combines shuffled rows.
class GroupTable {
 public:
  using Columns = KeyTable::Columns;

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

  /// Resolves rows [begin, n) of the hashed chunk to group ids, inserting
  /// new groups. Stops at a row the budget cannot admit a group for and
  /// returns it, so the caller folds the prefix and spills; returns n once
  /// every row is resolved.
  size_t Resolve(size_t begin, size_t n);
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
  const std::vector<AggSlot>& aggs_;
  std::vector<size_t> arg_offset_;   // slot -> first argument column
  std::vector<size_t> boxed_index_;  // slot -> boxed bank column
  std::vector<Value> boxed_init_;    // InitAccumulator() per boxed slot

  KeyTable keys_;
  KeyChunk chunk_;
  std::vector<uint32_t> chunk_gids_;
  std::vector<Acc> accs_;
  std::vector<Value> boxed_;
  Row scratch_args_;

  bool draining_ = false;
  std::vector<std::optional<SpillFile>> spill_buckets_;
};

}  // namespace ssql

#endif  // SSQL_EXEC_GROUP_TABLE_H_
