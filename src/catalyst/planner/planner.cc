#include "catalyst/planner/planner.h"

#include <algorithm>

#include "catalyst/expr/predicates.h"
#include "catalyst/planner/cost_model.h"
#include "exec/aggregate_exec.h"
#include "exec/exchange_exec.h"
#include "exec/interval_join_exec.h"
#include "exec/join_exec.h"
#include "exec/scan_exec.h"
#include "exec/sort_limit_exec.h"

namespace ssql {

namespace {

/// A detected range-overlap pattern (Section 7.2).
struct RangeJoinPattern {
  bool interval_on_left;
  ExprPtr start;
  ExprPtr end;
  ExprPtr point;
  ExprVector residual;
};

/// Normalizes a conjunct to a strict "a < b" pair, if it is one.
bool AsLessThan(const ExprPtr& c, ExprPtr* a, ExprPtr* b) {
  if (const auto* lt = As<LessThan>(c)) {
    *a = lt->left();
    *b = lt->right();
    return true;
  }
  if (const auto* gt = As<GreaterThan>(c)) {
    *a = gt->right();
    *b = gt->left();
    return true;
  }
  return false;
}

std::optional<RangeJoinPattern> DetectRangeJoin(const ExprVector& conjuncts,
                                                const AttributeVector& left_out,
                                                const AttributeVector& right_out) {
  // Look for X < Y and Y < Z where {X, Z} reference one side only and Y
  // references the other side only.
  struct Less {
    ExprPtr a;
    ExprPtr b;
    size_t index;
  };
  std::vector<Less> lesses;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    ExprPtr a, b;
    if (AsLessThan(conjuncts[i], &a, &b)) lesses.push_back({a, b, i});
  }
  auto side_of = [&](const ExprPtr& e) -> int {
    // 0 = left only, 1 = right only, -1 = mixed/neither.
    bool l = ReferencesSubsetOf(e, left_out);
    bool r = ReferencesSubsetOf(e, right_out);
    AttributeVector refs;
    CollectReferences(e, &refs);
    if (refs.empty()) return -1;
    if (l && !r) return 0;
    if (r && !l) return 1;
    return -1;
  };
  for (const Less& first : lesses) {
    for (const Less& second : lesses) {
      if (first.index == second.index) continue;
      // first: X < Y, second: Y' < Z with Y == Y'.
      if (!first.b->Equals(*second.a)) continue;
      int sx = side_of(first.a);
      int sy = side_of(first.b);
      int sz = side_of(second.b);
      if (sx < 0 || sy < 0 || sz < 0) continue;
      if (sx != sz || sx == sy) continue;
      RangeJoinPattern p;
      p.interval_on_left = sx == 0;
      p.start = first.a;
      p.end = second.b;
      p.point = first.b;
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (i != first.index && i != second.index) {
          p.residual.push_back(conjuncts[i]);
        }
      }
      return p;
    }
  }
  return std::nullopt;
}

}  // namespace

PhysPtr PhysicalPlanner::Plan(const PlanPtr& logical,
                              std::vector<std::string>* decisions) const {
  decisions_ = decisions;
  annotated_.clear();
  try {
    PhysPtr out = PlanNode(logical);
    // Stamp which operators produce or read batches, so EXPLAIN shows the
    // row/batch boundaries of the final plan (same single-writer rule as
    // Annotate: stamped once, before execution).
    out->Foreach([this](const PhysicalPlan& node) {
      const_cast<PhysicalPlan&>(node).set_runs_batched(
          node.ProducesBatches(config_) || node.ReadsBatches(config_));
    });
    decisions_ = nullptr;
    annotated_.clear();
    return out;
  } catch (...) {
    decisions_ = nullptr;
    annotated_.clear();
    throw;
  }
}

void PhysicalPlanner::Note(const std::string& line) const {
  if (decisions_ != nullptr) decisions_->push_back(line);
}

PlanEstimate PhysicalPlanner::Estimate(const PlanPtr& plan) const {
  return EstimatePlan(plan, stats_, config_.cbo_filter_selectivity);
}

void PhysicalPlanner::Annotate(const PhysPtr& node,
                               const CardinalityEstimate& est) const {
  if (!annotated_.insert(node.get()).second) return;
  // Physical nodes are shared as const everywhere else; the planner is the
  // single writer and stamps each node exactly once, before execution.
  const_cast<PhysicalPlan*>(node.get())->set_estimate(est);
  for (const PhysPtr& child : node->Children()) Annotate(child, est);
}

PhysPtr PhysicalPlanner::PlanNode(const PlanPtr& plan) const {
  PhysPtr out = PlanNodeImpl(plan);
  PlanEstimate est = Estimate(plan);
  CardinalityEstimate card;
  if (est.rows) {
    card.rows = static_cast<int64_t>(*est.rows);
    card.source = est.source;
  }
  Annotate(out, card);
  return out;
}

PhysPtr PhysicalPlanner::PlanNodeImpl(const PlanPtr& plan) const {
  if (const auto* local = AsPlan<LocalRelation>(plan)) {
    return std::make_shared<LocalTableScanExec>(local->Output(),
                                                local->local_rows());
  }
  if (const auto* rel = AsPlan<LogicalRelation>(plan)) {
    return std::make_shared<DataSourceScanExec>(
        rel->source(), rel->full_output(), rel->required_columns(),
        rel->pushed_filters());
  }
  if (const auto* project = AsPlan<Project>(plan)) {
    // Fuse Project(Filter(x)) into one pipelined operator when enabled.
    if (config_.operator_fusion_enabled) {
      if (const auto* filter = AsPlan<Filter>(project->child())) {
        return std::make_shared<ProjectFilterExec>(project->projections(),
                                                   filter->condition(),
                                                   PlanNode(filter->child()));
      }
    }
    return std::make_shared<ProjectFilterExec>(project->projections(), nullptr,
                                               PlanNode(project->child()));
  }
  if (const auto* filter = AsPlan<Filter>(plan)) {
    return std::make_shared<ProjectFilterExec>(std::vector<NamedExprPtr>{},
                                               filter->condition(),
                                               PlanNode(filter->child()));
  }
  if (const auto* agg = AsPlan<Aggregate>(plan)) {
    return PlanAggregate(*agg);
  }
  if (const auto* join = AsPlan<Join>(plan)) {
    return PlanJoin(*join);
  }
  if (const auto* sort = AsPlan<Sort>(plan)) {
    return std::make_shared<SortExec>(sort->orders(), PlanNode(sort->child()));
  }
  if (const auto* limit = AsPlan<Limit>(plan)) {
    return std::make_shared<LimitExec>(limit->n(), PlanNode(limit->child()));
  }
  if (const auto* distinct = AsPlan<Distinct>(plan)) {
    // DISTINCT is an aggregation over all output columns.
    ExprVector groupings;
    std::vector<NamedExprPtr> aggregates;
    for (const auto& attr : distinct->child()->Output()) {
      groupings.push_back(attr);
      aggregates.push_back(attr);
    }
    Aggregate agg(std::move(groupings), std::move(aggregates), distinct->child());
    return PlanAggregate(agg);
  }
  if (const auto* uni = AsPlan<Union>(plan)) {
    std::vector<PhysPtr> children;
    for (const auto& c : uni->Children()) children.push_back(PlanNode(c));
    return std::make_shared<UnionExec>(std::move(children));
  }
  if (const auto* sample = AsPlan<Sample>(plan)) {
    return std::make_shared<SampleExec>(sample->fraction(), sample->seed(),
                                        PlanNode(sample->child()));
  }
  if (const auto* alias = AsPlan<SubqueryAlias>(plan)) {
    return PlanNode(alias->child());
  }
  throw ExecutionError("no physical strategy for logical node " +
                       plan->NodeName());
}

PhysPtr PhysicalPlanner::PlanAggregate(const Aggregate& agg) const {
  PhysPtr child = PlanNode(agg.child());
  auto partial = std::make_shared<HashAggregateExec>(
      agg.groupings(), agg.aggregates(), AggregateMode::kPartial, child);
  PhysPtr shuffled;
  if (agg.groupings().empty()) {
    shuffled = std::make_shared<CoalesceExec>(partial);
  } else {
    ExprVector keys;
    for (size_t i = 0; i < agg.groupings().size(); ++i) {
      keys.push_back(partial->partial_output()[i]);
    }
    shuffled = std::make_shared<ExchangeExec>(
        std::move(keys), config_.default_parallelism, partial);
  }
  return std::make_shared<HashAggregateExec>(
      agg.groupings(), agg.aggregates(), AggregateMode::kFinal, shuffled);
}

PhysPtr PhysicalPlanner::PlanJoin(const Join& join) const {
  PhysPtr left = PlanNode(join.left());
  PhysPtr right = PlanNode(join.right());
  AttributeVector left_out = join.left()->Output();
  AttributeVector right_out = join.right()->Output();

  ExprVector conjuncts = SplitConjuncts(join.condition());

  // Section 7.2: interval-tree range join for overlap patterns.
  if (config_.range_join_enabled && join.join_type() == JoinType::kInner) {
    auto range = DetectRangeJoin(conjuncts, left_out, right_out);
    if (range.has_value()) {
      AttributeVector interval_attrs =
          range->interval_on_left ? left_out : right_out;
      Note("IntervalJoin: range-overlap pattern detected (interval side: " +
           std::string(range->interval_on_left ? "left" : "right") + ")");
      return std::make_shared<IntervalJoinExec>(
          left, right, range->interval_on_left, range->start, range->end,
          range->point, CombineConjuncts(range->residual));
    }
  }

  // Split conjuncts into equi pairs and the residual.
  ExprVector left_keys, right_keys, residual;
  for (const auto& c : conjuncts) {
    const auto* eq = As<EqualTo>(c);
    if (eq != nullptr) {
      if (ReferencesSubsetOf(eq->left(), left_out) &&
          ReferencesSubsetOf(eq->right(), right_out)) {
        left_keys.push_back(eq->left());
        right_keys.push_back(eq->right());
        continue;
      }
      if (ReferencesSubsetOf(eq->left(), right_out) &&
          ReferencesSubsetOf(eq->right(), left_out)) {
        left_keys.push_back(eq->right());
        right_keys.push_back(eq->left());
        continue;
      }
    }
    residual.push_back(c);
  }
  ExprPtr residual_cond = CombineConjuncts(residual);

  if (left_keys.empty()) {
    Note("NestedLoopJoin: no equi-join keys in the condition");
    return std::make_shared<NestedLoopJoinExec>(left, right, join.join_type(),
                                                residual_cond);
  }

  // Cost-based choice (Section 4.3.3): broadcast when the build side is
  // known to be small.
  if (config_.join_selection_enabled) {
    bool broadcastable_type = join.join_type() == JoinType::kInner ||
                              join.join_type() == JoinType::kLeftOuter ||
                              join.join_type() == JoinType::kLeftSemi ||
                              join.join_type() == JoinType::kLeftAnti ||
                              join.join_type() == JoinType::kCross;
    PlanEstimate right_est = Estimate(join.right());
    std::optional<uint64_t> right_size = right_est.bytes;
    // A broadcast build side cannot spill, so under a query memory budget
    // the effective threshold is capped at the budget; bigger build sides
    // route to the shuffle hash join, which degrades to a Grace join on
    // disk instead of failing.
    uint64_t broadcast_threshold = config_.broadcast_threshold_bytes;
    if (config_.query_memory_limit_bytes >= 0 &&
        broadcast_threshold >
            static_cast<uint64_t>(config_.query_memory_limit_bytes)) {
      broadcast_threshold =
          static_cast<uint64_t>(config_.query_memory_limit_bytes);
      Note("broadcast threshold capped at query_memory_limit_bytes=" +
           std::to_string(config_.query_memory_limit_bytes) +
           " (broadcast builds cannot spill)");
    }
    // Provenance makes the decision auditable: "analyzed-stats" means
    // ANALYZE TABLE informed the size, "byte-heuristic" means file/memory
    // sizes did, "unknown" means nothing was known.
    std::string size_text = "unknown";
    if (right_size) {
      size_text = std::to_string(*right_size) + " bytes";
      if (right_est.rows) {
        size_text += ", ~" + std::to_string(*right_est.rows) + " rows";
      }
      size_text += " (" + EstimateSourceName(right_est.source) + ")";
    }
    if (broadcastable_type && right_size &&
        *right_size <= broadcast_threshold) {
      Note("BroadcastHashJoin: build side " + size_text +
           " <= broadcast threshold " + std::to_string(broadcast_threshold) +
           " bytes");
      return std::make_shared<BroadcastHashJoinExec>(
          left, right, std::move(left_keys), std::move(right_keys),
          join.join_type(), residual_cond);
    }
    if (!broadcastable_type) {
      Note("broadcast rejected: join type " +
           std::string(JoinTypeName(join.join_type())) +
           " cannot broadcast the right side");
    } else {
      Note("broadcast rejected: build side " + size_text +
           " > broadcast threshold " + std::to_string(broadcast_threshold) +
           " bytes");
    }
  } else {
    Note("join selection disabled: every equi-join becomes a "
         "ShuffleHashJoin");
  }

  Note("ShuffleHashJoin: fallback shuffle strategy");
  return std::make_shared<ShuffleHashJoinExec>(left, right, std::move(left_keys),
                                               std::move(right_keys),
                                               join.join_type(), residual_cond);
}

}  // namespace ssql
