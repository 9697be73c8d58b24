#ifndef SSQL_EXEC_SCAN_EXEC_H_
#define SSQL_EXEC_SCAN_EXEC_H_

#include <memory>
#include <string>
#include <vector>

#include "catalyst/codegen/compiled_expression.h"
#include "catalyst/plan/logical_plan.h"
#include "datasources/data_source.h"
#include "exec/physical_plan.h"

namespace ssql {

/// Scan of driver-local rows (LocalRelation).
class LocalTableScanExec : public PhysicalPlan {
 public:
  LocalTableScanExec(AttributeVector output,
                     std::shared_ptr<const std::vector<Row>> rows)
      : output_(std::move(output)), rows_(std::move(rows)) {}

  std::string NodeName() const override { return "LocalTableScan"; }
  std::vector<PhysPtr> Children() const override { return {}; }
  AttributeVector Output() const override { return output_; }
  RowDataset ExecuteImpl(QueryContext& ctx) const override;
  std::string Describe() const override {
    return "LocalTableScan " + FormatAttributes(output_) +
           " rows=" + std::to_string(rows_->size());
  }

 private:
  AttributeVector output_;
  std::shared_ptr<const std::vector<Row>> rows_;
};

/// Scan of an external data source with negotiated column pruning and
/// filter pushdown (Section 4.4.1). A BatchedScan source (the columnar
/// cache, colf) is always read through ScanBatches, its filters evaluated
/// exactly; a row-reading parent, or vectorized execution switched off,
/// gets the batches unpacked. Other sources are read through the most
/// capable interface they implement: CatalystScan > PrunedFilteredScan >
/// PrunedScan > TableScan; filters such a source cannot evaluate exactly
/// are re-applied here.
class DataSourceScanExec : public PhysicalPlan {
 public:
  DataSourceScanExec(std::shared_ptr<SourceRelation> source,
                     AttributeVector full_output,
                     std::vector<int> required_columns, ExprVector pushed_filters);

  std::string NodeName() const override { return "Scan"; }
  std::vector<PhysPtr> Children() const override { return {}; }
  AttributeVector Output() const override;
  RowDataset ExecuteImpl(QueryContext& ctx) const override;
  std::string Describe() const override;

  /// The root of every batched pipeline: a BatchedScan source decodes
  /// straight into ColumnVectors. The one operator decision that reads
  /// config.vectorized_enabled.
  bool ProducesBatches(const EngineConfig& config) const override;

 protected:
  BatchDataset ExecuteBatchesImpl(QueryContext& ctx) const override;

 private:
  std::shared_ptr<SourceRelation> source_;
  AttributeVector full_output_;
  std::vector<int> required_columns_;
  ExprVector pushed_filters_;
};

/// Projection (optionally fused with a filter — Section 4.3.3's
/// "pipelining projections or filters into one Spark map operation").
/// Expressions are bound at construction; with codegen enabled each worker
/// evaluates the compiled register programs instead of walking the trees.
class ProjectFilterExec : public PhysicalPlan {
 public:
  /// `condition` may be null (pure projection). `projections` may be empty
  /// (pure filter: output == child output, rows pass through).
  ProjectFilterExec(std::vector<NamedExprPtr> projections, ExprPtr condition,
                    PhysPtr child);

  std::string NodeName() const override {
    return condition_ ? (projections_.empty() ? "Filter" : "Project+Filter")
                      : "Project";
  }
  std::vector<PhysPtr> Children() const override { return {child_}; }
  AttributeVector Output() const override;
  RowDataset ExecuteImpl(QueryContext& ctx) const override;
  std::string Describe() const override;

  const ExprPtr& condition() const { return condition_; }
  const std::vector<NamedExprPtr>& projections() const { return projections_; }
  const PhysPtr& child() const { return child_; }

  /// Vectorized filter/project over a batch producer: conditions refine
  /// the selection vector (zero-copy), projections evaluate whole output
  /// columns per batch.
  bool ProducesBatches(const EngineConfig& config) const override {
    return child_->ProducesBatches(config);
  }

 protected:
  BatchDataset ExecuteBatchesImpl(QueryContext& ctx) const override;

 private:
  std::vector<NamedExprPtr> projections_;  // bound to child output
  ExprPtr condition_;                      // bound to child output; may be null
  PhysPtr child_;
  AttributeVector output_;
};

/// Bernoulli sample (Sample logical node).
class SampleExec : public PhysicalPlan {
 public:
  SampleExec(double fraction, uint64_t seed, PhysPtr child)
      : fraction_(fraction), seed_(seed), child_(std::move(child)) {}

  std::string NodeName() const override { return "Sample"; }
  std::vector<PhysPtr> Children() const override { return {child_}; }
  AttributeVector Output() const override { return child_->Output(); }
  RowDataset ExecuteImpl(QueryContext& ctx) const override;

 private:
  double fraction_;
  uint64_t seed_;
  PhysPtr child_;
};

/// UNION ALL: concatenation of the children's partitions.
class UnionExec : public PhysicalPlan {
 public:
  explicit UnionExec(std::vector<PhysPtr> children)
      : children_(std::move(children)) {}

  std::string NodeName() const override { return "Union"; }
  std::vector<PhysPtr> Children() const override { return children_; }
  AttributeVector Output() const override { return children_[0]->Output(); }
  RowDataset ExecuteImpl(QueryContext& ctx) const override;

 private:
  std::vector<PhysPtr> children_;
};

/// Binds `expr` against `input` and compiles it when enabled; shared by
/// the executors. Returns the bound tree and optionally the program.
struct BoundCompiled {
  ExprPtr bound;
  std::optional<CompiledExpression> compiled;
};
BoundCompiled BindAndCompile(const ExprPtr& expr, const AttributeVector& input,
                             bool codegen_enabled);

}  // namespace ssql

#endif  // SSQL_EXEC_SCAN_EXEC_H_
