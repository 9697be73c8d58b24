#include "exec/physical_plan.h"

#include <cmath>

#include "util/trace.h"

namespace ssql {

namespace {

/// Feeds the plan-vs-actual gap of one finished operator into the
/// misestimation histogram (ratio rounded to the nearest integer; always
/// >= 1, so bucket 0/1 means "estimate was right").
void RecordMisestimate(QueryContext& ctx, const CardinalityEstimate& est,
                       int64_t actual_rows) {
  if (est.rows < 0) return;
  ctx.engine()
      .registry()
      .Histogram("ssql_cardinality_misestimate",
                 "Ratio of planner cardinality estimates to actual rows "
                 "per operator, (max+1)/(min+1)")
      .Record(std::llround(MisestimateRatio(est.rows, actual_rows)));
}

/// How many unprofiled operators this thread is inside: a plan's operators
/// execute their children on the thread that executes them.
thread_local int undetailed_depth = 0;

[[noreturn]] void NoBatches(const PhysicalPlan& node) {
  throw ExecutionError(node.NodeName() + " produces no batches");
}

}  // namespace

/// Shared profiling shell of Execute/ExecuteBatches: runs `work` inside an
/// operator span, recording wall time, rows_out (live rows in either mode),
/// batches (RowBatches in batch mode, partitions in row mode), and the
/// misestimation ratio. `work` returns (dataset, rows, batches).
template <typename Work>
static auto RunProfiled(const PhysicalPlan& node,
                        const CardinalityEstimate& est, QueryContext& ctx,
                        Work&& work) {
  QueryProfile& profile = ctx.profile();
  HistogramMetric& op_wall = ctx.engine().registry().Histogram(
      "ssql_operator_wall_us", "Per-operator wall time, microseconds");
  if (!profile.detailed()) {
    // No operator spans: the counters land on the root span, summed the
    // way the spans would sum them. An operator nested in another is its
    // parent's input, so its rows also count as rows_in; the outermost
    // operator's rows are the query's output (rows_out - rows_in).
    struct Nest {
      Nest() { ++undetailed_depth; }
      ~Nest() { --undetailed_depth; }
    } nest;
    const int64_t start_ns = TraceNowNs();
    auto out = work();
    op_wall.Record((TraceNowNs() - start_ns) / 1000);
    profile.Add(nullptr, ProfileCounter::kRowsOut, out.rows);
    profile.Add(nullptr, ProfileCounter::kBatches, out.batches);
    if (undetailed_depth > 1) {
      profile.Add(nullptr, ProfileCounter::kRowsIn, out.rows);
    }
    RecordMisestimate(ctx, est, out.rows);
    return std::move(out.data);
  }
  ProfileSpan* span = profile.BeginOperator(
      node.NodeName(), node.Describe(), est.rows,
      est.rows >= 0 ? EstimateSourceName(est.source) : std::string());
  const int64_t start_ns = TraceNowNs();
  try {
    auto out = work();
    op_wall.Record((TraceNowNs() - start_ns) / 1000);
    profile.Add(span, ProfileCounter::kRowsOut, out.rows);
    profile.Add(span, ProfileCounter::kBatches, out.batches);
    RecordMisestimate(ctx, est, out.rows);
    profile.EndOperator(span, "ok");
    return std::move(out.data);
  } catch (const std::exception& e) {
    op_wall.Record((TraceNowNs() - start_ns) / 1000);
    profile.EndOperator(span, std::string("error: ") + e.what());
    throw;
  } catch (...) {
    op_wall.Record((TraceNowNs() - start_ns) / 1000);
    profile.EndOperator(span, "error: unknown");
    throw;
  }
}

RowDataset PhysicalPlan::Execute(QueryContext& ctx) const {
  struct Out {
    RowDataset data;
    int64_t rows;
    int64_t batches;
  };
  return RunProfiled(*this, estimate_, ctx, [&]() -> Out {
    if (ProducesBatches(ctx.config())) {
      // A batch producer under a row-reading caller: unpack at the
      // operator boundary. rows_out/batches describe the batches the
      // operator actually produced.
      BatchDataset batches = ExecuteBatchesImpl(ctx);
      int64_t rows = static_cast<int64_t>(batches.TotalRows());
      int64_t nbatches = static_cast<int64_t>(batches.TotalBatches());
      return Out{batches.ToRowDataset(ctx), rows, nbatches};
    }
    RowDataset out = ExecuteImpl(ctx);
    int64_t rows = static_cast<int64_t>(out.TotalRows());
    int64_t parts = static_cast<int64_t>(out.num_partitions());
    return Out{std::move(out), rows, parts};
  });
}

BatchDataset PhysicalPlan::ExecuteBatches(QueryContext& ctx) const {
  if (!ProducesBatches(ctx.config())) NoBatches(*this);
  struct Out {
    BatchDataset data;
    int64_t rows;
    int64_t batches;
  };
  return RunProfiled(*this, estimate_, ctx, [&]() -> Out {
    BatchDataset out = ExecuteBatchesImpl(ctx);
    int64_t rows = static_cast<int64_t>(out.TotalRows());
    int64_t nbatches = static_cast<int64_t>(out.TotalBatches());
    return Out{std::move(out), rows, nbatches};
  });
}

BatchDataset PhysicalPlan::ExecuteBatchesImpl(QueryContext&) const {
  NoBatches(*this);
}

std::string PhysicalPlan::TreeString() const {
  std::string out;
  TreeStringInternal(0, &out);
  return out;
}

void PhysicalPlan::TreeStringInternal(int indent, std::string* out) const {
  for (int i = 0; i < indent; ++i) *out += "  ";
  *out += Describe();
  // The planner's batched stamp, so EXPLAIN shows which operators run
  // vectorized (physical plans only; logical TreeStrings are untouched —
  // they key the columnar cache).
  if (runs_batched_) *out += " [batched]";
  *out += "\n";
  for (const auto& c : Children()) c->TreeStringInternal(indent + 1, out);
}

void PhysicalPlan::Foreach(
    const std::function<void(const PhysicalPlan&)>& fn) const {
  fn(*this);
  for (const auto& c : Children()) c->Foreach(fn);
}

std::string FormatAttributes(const AttributeVector& attrs) {
  std::string s = "[";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) s += ", ";
    s += attrs[i]->ToString();
  }
  return s + "]";
}

}  // namespace ssql
