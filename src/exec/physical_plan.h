#ifndef SSQL_EXEC_PHYSICAL_PLAN_H_
#define SSQL_EXEC_PHYSICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "catalyst/expr/attribute.h"
#include "catalyst/planner/cost_model.h"
#include "columnar/batch_dataset.h"
#include "engine/dataset.h"
#include "engine/query_context.h"

namespace ssql {

class PhysicalPlan;
using PhysPtr = std::shared_ptr<const PhysicalPlan>;

/// The planner's cardinality guess for one physical operator, stamped on
/// the node at planning time so execution can compare it against the rows
/// actually produced (rows < 0 = no estimate).
struct CardinalityEstimate {
  int64_t rows = -1;
  EstimateSource source = EstimateSource::kUnknown;
};

/// Base class of physical operators (the third tree family of Section 4.3:
/// "physical operators that match the Spark execution engine"). Execute()
/// pulls the children's datasets and produces this operator's output; the
/// per-partition work runs on the engine's worker pool.
///
/// Data moves between operators as boxed Rows, except where it is columnar
/// at the source: a Scan of a BatchedScan source produces RowBatches of
/// ColumnVectors (with vectorized execution on), and filter/project passes
/// batches through when its child produces them. ProducesBatches() is that
/// one decision. The partial aggregate and the broadcast join probe read
/// batches from such a child (ReadsBatches()) and return rows; every other
/// operator reads and returns rows, and Execute() unpacks a producer's
/// batches for it (batch.unpack). Nothing packs rows into batches.
class PhysicalPlan : public std::enable_shared_from_this<PhysicalPlan> {
 public:
  virtual ~PhysicalPlan() = default;

  virtual std::string NodeName() const = 0;
  virtual std::vector<PhysPtr> Children() const = 0;

  /// Output attributes (positions define the produced row layout).
  virtual AttributeVector Output() const = 0;

  /// Runs the subtree to completion, wrapped in a profiling span: the
  /// operator's rows_out/batches and wall time are recorded on the query
  /// profile, stages/tasks/spills started while it runs attribute to it,
  /// and an exception closes the span with an error status before
  /// propagating. The actual work is ExecuteImpl() — or, when this operator
  /// ProducesBatches(), ExecuteBatchesImpl() followed by the batch→row
  /// unpack.
  RowDataset Execute(QueryContext& ctx) const;

  /// Batch form of Execute(), same profiling contract: rows_out counts live
  /// rows (not batches), batches counts RowBatches produced. Throws
  /// ExecutionError when this operator does not ProducesBatches().
  BatchDataset ExecuteBatches(QueryContext& ctx) const;

  /// Whether this operator's output is batches under `config`: true only
  /// for a Scan of a BatchedScan source with vectorized execution enabled,
  /// and for filter/project over a producer.
  virtual bool ProducesBatches(const EngineConfig&) const { return false; }

  /// Whether this operator reads a child's batches under `config` (the
  /// partial aggregate and the broadcast join's stream side, when that
  /// child ProducesBatches()). Such an operator still returns rows.
  virtual bool ReadsBatches(const EngineConfig&) const { return false; }

  /// One-line description for EXPLAIN.
  virtual std::string Describe() const { return NodeName(); }

  /// Planner-stamped cardinality estimate (see PhysicalPlanner); flows into
  /// the profile span so EXPLAIN ANALYZE / system.query_operators can show
  /// plan-vs-actual, and feeds the ssql_cardinality_misestimate histogram.
  const CardinalityEstimate& estimate() const { return estimate_; }
  void set_estimate(const CardinalityEstimate& est) { estimate_ = est; }

  /// Planner-stamped "this node runs batched" flag (it produces or reads
  /// batches), rendered in the physical plan / EXPLAIN output
  /// (display-only; execution asks ProducesBatches()/ReadsBatches() again
  /// against the query's config snapshot).
  bool runs_batched() const { return runs_batched_; }
  void set_runs_batched(bool batched) { runs_batched_ = batched; }

  /// Indented physical plan rendering.
  std::string TreeString() const;

  void Foreach(const std::function<void(const PhysicalPlan&)>& fn) const;

 protected:
  /// The operator's execution logic; subclasses override this instead of
  /// Execute() so every operator is instrumented uniformly. Children must
  /// be pulled with child->Execute(ctx) / child->ExecuteBatches(ctx) (the
  /// wrappers), never the Impl forms.
  virtual RowDataset ExecuteImpl(QueryContext& ctx) const = 0;

  /// Batched execution logic of an operator that ProducesBatches(). The
  /// default throws: no other operator has one.
  virtual BatchDataset ExecuteBatchesImpl(QueryContext& ctx) const;

 private:
  void TreeStringInternal(int indent, std::string* out) const;

  CardinalityEstimate estimate_;
  bool runs_batched_ = false;
};

/// Pretty-prints an attribute list for Describe() implementations.
std::string FormatAttributes(const AttributeVector& attrs);

}  // namespace ssql

#endif  // SSQL_EXEC_PHYSICAL_PLAN_H_
