#include "exec/interval_join_exec.h"

#include <algorithm>

namespace ssql {

IntervalTree::IntervalTree(std::vector<Interval> intervals) {
  nodes_.reserve(intervals.size());
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start.Compare(b.start) < 0;
            });
  root_ = Build(intervals, 0, static_cast<int>(intervals.size()));
}

int IntervalTree::Build(std::vector<Interval>& sorted, int lo, int hi) {
  if (lo >= hi) return -1;
  int mid = lo + (hi - lo) / 2;
  int idx = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{sorted[mid], sorted[mid].end, -1, -1});
  // Children are built after the parent slot is reserved; indices stay
  // valid because the vector only grows.
  int left = Build(sorted, lo, mid);
  int right = Build(sorted, mid + 1, hi);
  nodes_[idx].left = left;
  nodes_[idx].right = right;
  Value& max_end = nodes_[idx].max_end;
  for (int child : {left, right}) {
    if (child >= 0 && nodes_[child].max_end.Compare(max_end) > 0) {
      max_end = nodes_[child].max_end;
    }
  }
  return idx;
}

void IntervalTree::Query(const Value& p, std::vector<size_t>* out) const {
  QueryNode(root_, p, out);
}

void IntervalTree::QueryNode(int node, const Value& p,
                             std::vector<size_t>* out) const {
  if (node < 0) return;
  const Node& n = nodes_[node];
  // No interval below this node ends after p.
  if (n.max_end.Compare(p) <= 0) return;
  // Left subtree may always contain smaller starts.
  QueryNode(n.left, p, out);
  if (n.interval.start.Compare(p) < 0) {
    if (p.Compare(n.interval.end) < 0) out->push_back(n.interval.payload);
    // Right subtree has starts >= this start; only useful while start < p.
    QueryNode(n.right, p, out);
  }
}

IntervalJoinExec::IntervalJoinExec(PhysPtr left, PhysPtr right,
                                   bool interval_on_left, ExprPtr start,
                                   ExprPtr end, ExprPtr point, ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      interval_on_left_(interval_on_left),
      start_(std::move(start)),
      end_(std::move(end)),
      point_(std::move(point)),
      residual_(std::move(residual)) {}

AttributeVector IntervalJoinExec::Output() const {
  AttributeVector out = left_->Output();
  auto right_out = right_->Output();
  out.insert(out.end(), right_out.begin(), right_out.end());
  return out;
}

RowDataset IntervalJoinExec::ExecuteImpl(QueryContext& ctx) const {
  AttributeVector left_out = left_->Output();
  AttributeVector right_out = right_->Output();
  AttributeVector joined_out = left_out;
  joined_out.insert(joined_out.end(), right_out.begin(), right_out.end());

  const PhysPtr& interval_side = interval_on_left_ ? left_ : right_;
  const PhysPtr& point_side = interval_on_left_ ? right_ : left_;
  AttributeVector interval_attrs = interval_side->Output();
  AttributeVector point_attrs = point_side->Output();

  ExprPtr bound_start = BindReferences(start_, interval_attrs);
  ExprPtr bound_end = BindReferences(end_, interval_attrs);
  ExprPtr bound_point = BindReferences(point_, point_attrs);
  ExprPtr bound_residual =
      residual_ ? BindReferences(residual_, joined_out) : nullptr;

  // Build the tree over the collected interval side.
  std::vector<Row> build = interval_side->Execute(ctx).Collect();
  std::vector<IntervalTree::Interval> intervals;
  intervals.reserve(build.size());
  size_t build_cancel_check = 0;
  for (size_t i = 0; i < build.size(); ++i) {
    ctx.CheckCancelledEvery(&build_cancel_check);
    Value s = bound_start->Eval(build[i]);
    Value e = bound_end->Eval(build[i]);
    if (s.is_null() || e.is_null()) continue;
    intervals.push_back({std::move(s), std::move(e), i});
  }
  IntervalTree tree(std::move(intervals));
  ctx.profile().Add(nullptr, ProfileCounter::kBuildRows,
                    static_cast<int64_t>(build.size()));

  bool interval_on_left = interval_on_left_;
  RowDataset stream = point_side->Execute(ctx);
  return stream.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
    auto out = std::make_shared<RowPartition>();
    std::vector<size_t> matches;
    size_t cancel_check = 0;
    for (const Row& row : part.rows) {
      ctx.CheckCancelledEvery(&cancel_check);
      Value p = bound_point->Eval(row);
      if (p.is_null()) continue;
      matches.clear();
      tree.Query(p, &matches);
      for (size_t idx : matches) {
        Row joined = interval_on_left ? Row::Concat(build[idx], row)
                                      : Row::Concat(row, build[idx]);
        if (bound_residual && !EvalPredicate(*bound_residual, joined)) continue;
        out->rows.push_back(std::move(joined));
      }
    }
    return out;
  });
}

std::string IntervalJoinExec::Describe() const {
  std::string s = "IntervalJoin interval(" + start_->ToString() + ", " +
                  end_->ToString() + ") contains " + point_->ToString();
  if (residual_) s += " residual: " + residual_->ToString();
  return s;
}

}  // namespace ssql
