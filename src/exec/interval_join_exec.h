#ifndef SSQL_EXEC_INTERVAL_JOIN_EXEC_H_
#define SSQL_EXEC_INTERVAL_JOIN_EXEC_H_

#include <memory>
#include <vector>

#include "catalyst/plan/logical_plan.h"
#include "exec/physical_plan.h"

namespace ssql {

/// The genomics range join of Section 7.2 (ADAM): inequality-predicate
/// joins of the shape
///
///   a.start < b.point AND b.point < a.end
///
/// "would be executed by many systems using an inefficient algorithm such
/// as a nested loop join. In contrast, a specialized system could compute
/// the answer to this join using an interval tree." The planner rule
/// (about 100 lines in the paper's retelling) detects the pattern in an
/// inner join condition and plans this operator instead of the nested
/// loop; remaining conjuncts become the residual.
///
/// `interval_on_left` says which side supplies the (start, end) interval;
/// the other side supplies the probe point. Strict inequalities.
class IntervalJoinExec : public PhysicalPlan {
 public:
  IntervalJoinExec(PhysPtr left, PhysPtr right, bool interval_on_left,
                   ExprPtr start, ExprPtr end, ExprPtr point, ExprPtr residual);

  std::string NodeName() const override { return "IntervalJoin"; }
  std::vector<PhysPtr> Children() const override { return {left_, right_}; }
  AttributeVector Output() const override;
  RowDataset ExecuteImpl(QueryContext& ctx) const override;
  std::string Describe() const override;

 private:
  PhysPtr left_;
  PhysPtr right_;
  bool interval_on_left_;
  ExprPtr start_;  // references the interval side's output
  ExprPtr end_;
  ExprPtr point_;     // references the point side's output
  ExprPtr residual_;  // references the joined output; may be null
};

/// A static interval tree over [start, end) pairs of Values, ordered by
/// Value::Compare (so a NaN bound follows every number, and decimals and
/// dates compare exactly); built once from the collected build side,
/// queried per probe row. Exposed for unit tests and the range-join
/// ablation bench.
class IntervalTree {
 public:
  struct Interval {
    Value start;
    Value end;
    size_t payload;
  };

  /// Builds in O(n log n); the tree is immutable afterwards.
  explicit IntervalTree(std::vector<Interval> intervals);

  /// Appends the payloads of all intervals with start < p && p < end.
  void Query(const Value& p, std::vector<size_t>* out) const;

  size_t size() const { return nodes_.size(); }

 private:
  struct Node {
    Interval interval;
    Value max_end;
    int left = -1;
    int right = -1;
  };
  int Build(std::vector<Interval>& sorted, int lo, int hi);
  void QueryNode(int node, const Value& p, std::vector<size_t>* out) const;

  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace ssql

#endif  // SSQL_EXEC_INTERVAL_JOIN_EXEC_H_
