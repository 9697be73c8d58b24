#ifndef SSQL_EXEC_AGGREGATE_EXEC_H_
#define SSQL_EXEC_AGGREGATE_EXEC_H_

#include <memory>
#include <vector>

#include "catalyst/expr/aggregates.h"
#include "exec/group_table.h"
#include "exec/physical_plan.h"

namespace ssql {

/// Aggregation stage. The planner always produces the two-stage shape of
/// the engine's shuffle protocol:
///
///   HashAggregate(Final) <- Exchange/Coalesce <- HashAggregate(Partial)
///
/// Partial computes per-partition accumulators keyed by the grouping
/// values (map-side combine); accumulators travel the shuffle as plain
/// Values, one [key..., acc...] row per group; Final merges them, finishes
/// each aggregate function and evaluates the result expressions (which may
/// nest aggregates inside arithmetic, e.g. sum(a)/count(b) + 1).
///
/// Both stages fold into one GroupTable (exec/group_table.h) per partition
/// task, for every key shape and budget: typed key lanes and accumulators,
/// all memory charged to the stage's reservation, Grace spilling when a
/// grant is denied. Only the feeding differs:
///   * Partial over rows: a chunk of rows at a time, keys and arguments are
///     read into typed columns through each expression's compiled register
///     program (bare columns in place), or through the tree interpreter
///     when codegen is off (Shark mode);
///   * Partial over batches: keys and arguments evaluate as whole columns
///     per batch through the vector evaluator;
///   * Final: keys and accumulators are read from the shuffled rows.
enum class AggregateMode { kPartial, kFinal };

class HashAggregateExec : public PhysicalPlan {
 public:
  /// `groupings`: grouping expressions over the ORIGINAL child output.
  /// `aggregates`: the named output expressions (grouping columns and/or
  /// expressions containing aggregate functions).
  /// For kFinal, `child` must be the exchange over the partial stage.
  HashAggregateExec(ExprVector groupings, std::vector<NamedExprPtr> aggregates,
                    AggregateMode mode, PhysPtr child);

  std::string NodeName() const override {
    return mode_ == AggregateMode::kPartial ? "HashAggregate(Partial)"
                                            : "HashAggregate(Final)";
  }
  std::vector<PhysPtr> Children() const override { return {child_}; }
  AttributeVector Output() const override;
  RowDataset ExecuteImpl(QueryContext& ctx) const override;
  std::string Describe() const override;

  /// The synthesized attributes of the partial stage's output:
  /// [one per grouping expr] ++ [one per distinct aggregate function].
  /// The grouping attrs are the Exchange keys between the stages.
  const AttributeVector& partial_output() const { return partial_output_; }

  /// The map-side (partial) stage reads the batched scan/filter/project
  /// pipeline directly when its child produces batches; it returns rows
  /// either way. The final stage reads the shuffle's rows.
  bool ReadsBatches(const EngineConfig& config) const override {
    return mode_ == AggregateMode::kPartial && child_->ProducesBatches(config);
  }

 private:
  RowDataset ExecutePartial(QueryContext& ctx) const;
  RowDataset ExecuteFinal(QueryContext& ctx) const;

  ExprVector groupings_;
  std::vector<NamedExprPtr> aggregates_;
  AggregateMode mode_;
  PhysPtr child_;

  /// Distinct aggregate functions appearing in `aggregates_`, in first-
  /// appearance order; shared layout between the two stages.
  std::vector<AggregatePtr> agg_functions_;
  /// Their group-table slots, in the same order.
  std::vector<AggSlot> slots_;
  AttributeVector partial_output_;
};

}  // namespace ssql

#endif  // SSQL_EXEC_AGGREGATE_EXEC_H_
