#ifndef SSQL_EXEC_SORT_LIMIT_EXEC_H_
#define SSQL_EXEC_SORT_LIMIT_EXEC_H_

#include <memory>
#include <vector>

#include "catalyst/plan/logical_plan.h"
#include "exec/physical_plan.h"

namespace ssql {

/// Global sort: each partition is sorted under the query's memory budget
/// (spilling sorted runs and merging them back when a grant is denied),
/// then the driver merges the sorted partitions into one ordered
/// partition. Sort keys are evaluated once per row, and every merge keeps
/// ties in input order, so the sort is stable.
class SortExec : public PhysicalPlan {
 public:
  SortExec(std::vector<std::shared_ptr<const SortOrder>> orders, PhysPtr child)
      : orders_(std::move(orders)), child_(std::move(child)) {}

  std::string NodeName() const override { return "Sort"; }
  std::vector<PhysPtr> Children() const override { return {child_}; }
  AttributeVector Output() const override { return child_->Output(); }
  RowDataset ExecuteImpl(QueryContext& ctx) const override;
  std::string Describe() const override;

 private:
  std::vector<std::shared_ptr<const SortOrder>> orders_;
  PhysPtr child_;
};

/// LIMIT: per-partition local limit, then a global cut on the driver.
class LimitExec : public PhysicalPlan {
 public:
  LimitExec(int64_t n, PhysPtr child) : n_(n), child_(std::move(child)) {}

  std::string NodeName() const override { return "Limit"; }
  std::vector<PhysPtr> Children() const override { return {child_}; }
  AttributeVector Output() const override { return child_->Output(); }
  RowDataset ExecuteImpl(QueryContext& ctx) const override;
  std::string Describe() const override {
    return "Limit " + std::to_string(n_);
  }

 private:
  int64_t n_;
  PhysPtr child_;
};

}  // namespace ssql

#endif  // SSQL_EXEC_SORT_LIMIT_EXEC_H_
