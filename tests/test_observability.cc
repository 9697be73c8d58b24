// Observability tests: per-operator QueryProfile counters reconcile with
// actual result cardinalities, spans strictly nest and always close (success,
// error, retry, cancellation), EXPLAIN ANALYZE golden-shape checks, the
// Chrome trace-event export parses and covers every stage, Catalyst rule
// counters only move when a rule actually rewrites, the per-query counters
// fold into the engine registry's ssql_query_*_total counters, and one
// query's numbers agree on every surface that reports them.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "api/sql_context.h"
#include "datasources/json_parser.h"
#include "engine/query_profile.h"

namespace ssql {
namespace {

DataFrame Numbers(SqlContext& ctx, int n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row({Value(int32_t(i)), Value(int32_t(i % 10))}));
  }
  auto schema = StructType::Make({Field("x", DataType::Int32(), false),
                                  Field("k", DataType::Int32(), false)});
  return ctx.CreateDataFrame(schema, std::move(rows));
}

DataFrame Dimension(SqlContext& ctx, int n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row({Value(int32_t(i)), Value("name" + std::to_string(i))}));
  }
  auto schema = StructType::Make({Field("k", DataType::Int32(), false),
                                  Field("name", DataType::String(), false)});
  return ctx.CreateDataFrame(schema, std::move(rows));
}

/// Engine-wide total of one profile counter: the registry counter that
/// every finished query's profile is folded into.
int64_t RegistryTotal(SqlContext& ctx, ProfileCounter c) {
  return ctx.exec()
      .registry()
      .Counter("ssql_query_" + std::string(ProfileCounterName(c)) + "_total")
      .value();
}

// Depth-first walk over the span tree.
void Walk(const ProfileSpan* span,
          const std::function<void(const ProfileSpan*)>& fn) {
  fn(span);
  for (const ProfileSpan* child : span->children) Walk(child, fn);
}

std::vector<const ProfileSpan*> OperatorSpans(const QueryProfile& profile,
                                              const std::string& name = "") {
  std::vector<const ProfileSpan*> out;
  Walk(profile.root(), [&](const ProfileSpan* s) {
    if (s->kind == SpanKind::kOperator && (name.empty() || s->name == name)) {
      out.push_back(s);
    }
  });
  return out;
}

std::string ScratchPath(const std::string& tag) {
  return ::testing::TempDir() + "/ssql-obs-" + tag + "-" +
         std::to_string(::getpid());
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Trace files are written as "<stem>-q<id>.json" with a process-global
/// query id; find the (single) one matching `base`'s stem.
std::string FindTraceFile(const std::string& base) {
  namespace fs = std::filesystem;
  fs::path basep(base);
  std::string prefix = basep.stem().string() + "-q";
  for (const auto& entry : fs::directory_iterator(basep.parent_path())) {
    std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) return entry.path().string();
  }
  return "";
}

// ---- rows in/out agree with result cardinalities ---------------------------

TEST(ProfileCountersTest, RowsAgreeAcrossScanFilterJoinAggregateSort) {
  SqlContext ctx;
  DataFrame fact = Numbers(ctx, 300);   // k in [0, 10)
  DataFrame dim = Dimension(ctx, 10);
  fact.RegisterTempTable("fact");
  dim.RegisterTempTable("dim");

  DataFrame result = ctx.Sql(
      "SELECT dim.name, count(*) AS c FROM fact JOIN dim ON fact.k = dim.k "
      "WHERE fact.x < 200 GROUP BY dim.name ORDER BY c DESC");
  std::vector<Row> rows = result.Collect();
  ASSERT_EQ(rows.size(), 10u);

  const QueryProfile& profile = ctx.last_profile();
  ASSERT_TRUE(profile.finished());

  // The root-most operator's rows_out is the query's result cardinality.
  ASSERT_NE(profile.root(), nullptr);
  std::vector<const ProfileSpan*> ops = OperatorSpans(profile);
  ASSERT_FALSE(ops.empty());
  const ProfileSpan* top = ops.front();  // pre-order: first is the tree root
  EXPECT_EQ(top->name, "Sort");
  EXPECT_EQ(top->Counter(ProfileCounter::kRowsOut), 10);

  // Every operator with operator children has rows_in == sum(children out).
  for (const ProfileSpan* op : ops) {
    int64_t child_out = 0;
    bool has_op_child = false;
    for (const ProfileSpan* child : op->children) {
      if (child->kind == SpanKind::kOperator) {
        has_op_child = true;
        child_out += child->Counter(ProfileCounter::kRowsOut);
      }
    }
    if (has_op_child) {
      EXPECT_EQ(op->Counter(ProfileCounter::kRowsIn), child_out)
          << "operator " << op->name;
    }
    EXPECT_GT(op->Counter(ProfileCounter::kBatches), 0)
        << "operator " << op->name;
    EXPECT_EQ(op->status, "ok") << "operator " << op->name;
  }

  // The join streamed the filtered fact side and built from the dim side.
  std::vector<const ProfileSpan*> joins =
      OperatorSpans(profile, "BroadcastHashJoin");
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0]->Counter(ProfileCounter::kBuildRows), 10);
  EXPECT_EQ(joins[0]->Counter(ProfileCounter::kProbeRows), 200);
  EXPECT_EQ(joins[0]->Counter(ProfileCounter::kRowsOut), 200);
}

// ---- span nesting + closing ------------------------------------------------

void ExpectSpansNestAndClose(const QueryProfile& profile) {
  ASSERT_NE(profile.root(), nullptr);
  ASSERT_TRUE(profile.finished());
  Walk(profile.root(), [&](const ProfileSpan* s) {
    EXPECT_TRUE(s->closed()) << SpanKindName(s->kind) << " " << s->name;
    EXPECT_FALSE(s->status.empty())
        << SpanKindName(s->kind) << " " << s->name;
    int64_t end = s->end_ns.load();
    EXPECT_GE(end, s->start_ns) << s->name;
    for (const ProfileSpan* child : s->children) {
      EXPECT_EQ(child->parent, s);
      // Strict nesting: children begin after and end before their parent.
      EXPECT_GE(child->start_ns, s->start_ns) << child->name;
      EXPECT_LE(child->end_ns.load(), end) << child->name;
    }
  });
}

TEST(SpanTreeTest, SpansNestAndCloseOnSuccess) {
  SqlContext ctx;
  DataFrame df = Numbers(ctx, 500);
  df.RegisterTempTable("t");
  ctx.Sql("SELECT k, sum(x) FROM t GROUP BY k").Collect();

  const QueryProfile& profile = ctx.last_profile();
  ExpectSpansNestAndClose(profile);
  EXPECT_EQ(profile.root()->status, "ok");

  // The five span levels all appear: query -> phase -> operator -> stage ->
  // task, and phases carry the Catalyst pipeline names.
  std::vector<std::string> phases;
  bool saw_stage = false, saw_task = false;
  Walk(profile.root(), [&](const ProfileSpan* s) {
    if (s->kind == SpanKind::kPhase) phases.push_back(s->name);
    if (s->kind == SpanKind::kStage) saw_stage = true;
    if (s->kind == SpanKind::kTask) {
      saw_task = true;
      EXPECT_EQ(s->parent->kind, SpanKind::kStage);
    }
  });
  EXPECT_EQ(phases,
            (std::vector<std::string>{"optimize", "planning", "execution"}));
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_task);
}

TEST(SpanTreeTest, SpansCloseOnErrorWithErrorStatus) {
  SqlContext ctx;
  ctx.UpdateConfig([&](EngineConfig& c) { c.fault_injection_spec = "project:1:0"; });
  ctx.UpdateConfig([&](EngineConfig& c) { c.task_max_retries = 0; });  // first failure is fatal
  DataFrame df = Numbers(ctx, 100);
  df.RegisterTempTable("t");
  EXPECT_THROW(ctx.Sql("SELECT x + 1 FROM t").Collect(), ExecutionError);

  const QueryProfile& profile = ctx.last_profile();
  ExpectSpansNestAndClose(profile);
  EXPECT_NE(profile.root()->status.find("error"), std::string::npos)
      << profile.root()->status;

  // The failing task span records the failure; the stage span carries the
  // error status too.
  bool saw_failed_task = false, saw_failed_stage = false;
  Walk(profile.root(), [&](const ProfileSpan* s) {
    if (s->kind == SpanKind::kTask &&
        s->status.find("error") != std::string::npos) {
      saw_failed_task = true;
      EXPECT_EQ(s->Counter(ProfileCounter::kFailures), 1);
    }
    if (s->kind == SpanKind::kStage &&
        s->status.find("error") != std::string::npos) {
      saw_failed_stage = true;
    }
  });
  EXPECT_TRUE(saw_failed_task);
  EXPECT_TRUE(saw_failed_stage);
  EXPECT_EQ(profile.Total(ProfileCounter::kFailures), 1);
}

TEST(SpanTreeTest, RetriedTaskStaysOneSpanAndCountsAttempts) {
  SqlContext ctx;
  ctx.UpdateConfig([&](EngineConfig& c) { c.fault_injection_spec = "project:1:0,project:3:0"; });
  DataFrame df = Numbers(ctx, 100);
  df.RegisterTempTable("t");
  std::vector<Row> rows = ctx.Sql("SELECT x + 1 FROM t").Collect();
  EXPECT_EQ(rows.size(), 100u);

  const QueryProfile& profile = ctx.last_profile();
  ExpectSpansNestAndClose(profile);
  EXPECT_EQ(profile.root()->status, "ok");
  EXPECT_EQ(profile.Total(ProfileCounter::kRetries), 2);
  EXPECT_EQ(profile.Total(ProfileCounter::kFailures), 0);
  // One span per partition covering all attempts: attempts = retries extra.
  Walk(profile.root(), [&](const ProfileSpan* s) {
    if (s->kind != SpanKind::kTask) return;
    EXPECT_EQ(s->status, "ok") << s->name;
    EXPECT_EQ(s->Counter(ProfileCounter::kAttempts),
              1 + s->Counter(ProfileCounter::kRetries))
        << s->name;
  });
  // The engine's only query: its registry totals are the profile totals.
  EXPECT_EQ(RegistryTotal(ctx, ProfileCounter::kRetries), 2);
  EXPECT_EQ(profile.Total(ProfileCounter::kAttempts),
            RegistryTotal(ctx, ProfileCounter::kAttempts));
}

TEST(SpanTreeTest, SpansCloseOnCancellation) {
  SqlContext ctx;
  ctx.UpdateConfig([&](EngineConfig& c) { c.query_timeout_ms = 0; });  // expires instantly
  DataFrame df = Numbers(ctx, 1000);
  df.RegisterTempTable("t");
  EXPECT_THROW(ctx.Sql("SELECT x + 1 FROM t").Collect(), ExecutionError);

  const QueryProfile& profile = ctx.last_profile();
  ExpectSpansNestAndClose(profile);
  EXPECT_NE(profile.root()->status, "ok");
}

// ---- EXPLAIN ANALYZE golden shape ------------------------------------------

TEST(ExplainTest, ExplainAnalyzeRendersActuals) {
  SqlContext ctx;
  Numbers(ctx, 300).RegisterTempTable("fact");
  Dimension(ctx, 10).RegisterTempTable("dim");

  DataFrame explained = ctx.Sql(
      "EXPLAIN ANALYZE SELECT dim.name, count(*) AS c FROM fact JOIN dim "
      "ON fact.k = dim.k GROUP BY dim.name");
  std::vector<Row> rows = explained.Collect();
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(explained.schema()->field(0).name, "plan");
  std::string text = rows[0].Get(0).ToString();

  // Static plan, then the profiled sections in order.
  for (const char* section :
       {"== Physical Plan ==", "== Analyzed Execution ==",
        "== Physical Plan (actual) ==", "== Optimizer Rules ==",
        "== Totals =="}) {
    EXPECT_NE(text.find(section), std::string::npos) << section << "\n"
                                                     << text;
  }
  size_t actual = text.find("== Physical Plan (actual) ==");
  ASSERT_NE(actual, std::string::npos);
  // Each operator line is annotated with actuals.
  for (const char* fragment :
       {"BroadcastHashJoin", "HashAggregate", "rows_out=", "rows_in=",
        "batches=", "time=", "build_rows=10", "probe_rows=300",
        "Phase optimize", "Phase planning", "Phase execution",
        "status=ok"}) {
    EXPECT_NE(text.find(fragment), std::string::npos) << fragment << "\n"
                                                      << text;
  }
  // ANALYZE actually executed the query.
  EXPECT_NE(text.find("rows_out=10"), std::string::npos) << text;
}

TEST(ExplainTest, ExplainWithoutAnalyzeDoesNotExecute) {
  SqlContext ctx;
  Numbers(ctx, 100).RegisterTempTable("t");
  DataFrame explained = ctx.Sql("EXPLAIN SELECT x FROM t WHERE x < 10");
  // Rendering the plan launched no stages.
  EXPECT_EQ(RegistryTotal(ctx, ProfileCounter::kAttempts), 0);
  std::vector<Row> rows = explained.Collect();
  ASSERT_EQ(rows.size(), 1u);
  std::string text = rows[0].Get(0).ToString();
  EXPECT_NE(text.find("== Physical Plan =="), std::string::npos);
  EXPECT_EQ(text.find("== Analyzed Execution =="), std::string::npos);
}

TEST(ExplainTest, ExtendedExplainShowsLogicalPlansAndJoinDecision) {
  SqlContext ctx;
  DataFrame fact = Numbers(ctx, 300);
  DataFrame dim = Dimension(ctx, 10);
  fact.RegisterTempTable("fact");
  dim.RegisterTempTable("dim");

  DataFrame query = ctx.Sql(
      "SELECT dim.name FROM fact JOIN dim ON fact.k = dim.k");
  std::string text = query.Explain(/*extended=*/true);
  for (const char* fragment :
       {"== Analyzed Logical Plan ==", "== Optimized Logical Plan ==",
        "== Join Selection ==", "BroadcastHashJoin", "broadcast threshold",
        "== Physical Plan =="}) {
    EXPECT_NE(text.find(fragment), std::string::npos) << fragment << "\n"
                                                      << text;
  }

  // The enum form agrees with the boolean shorthand.
  EXPECT_EQ(text, query.Explain(ExplainMode::kExtended));
  std::string simple = query.Explain();
  EXPECT_EQ(simple.find("== Join Selection =="), std::string::npos);
  EXPECT_NE(simple.find("== Physical Plan =="), std::string::npos);

  // SQL EXPLAIN EXTENDED routes through the same renderer.
  DataFrame explained = ctx.Sql(
      "EXPLAIN EXTENDED SELECT dim.name FROM fact JOIN dim "
      "ON fact.k = dim.k");
  std::string sql_text = explained.Collect()[0].Get(0).ToString();
  EXPECT_NE(sql_text.find("== Join Selection =="), std::string::npos);
}

// ---- trace-event export ----------------------------------------------------

TEST(TraceExportTest, TraceJsonParsesAndCoversAllStages) {
  EngineConfig config;
  std::string trace_path = ScratchPath("trace") + ".json";
  config.trace_path = trace_path;
  config.query_memory_limit_bytes = 64 * 1024;  // force the group-by to spill
  SqlContext ctx(config);
  Numbers(ctx, 5000).RegisterTempTable("fact");
  Dimension(ctx, 10).RegisterTempTable("dim");
  ctx.Sql(
         "SELECT fact.x, count(*) AS c FROM fact "
         "JOIN dim ON fact.k = dim.k GROUP BY fact.x")
      .Collect();

  std::string resolved = FindTraceFile(trace_path);
  ASSERT_FALSE(resolved.empty()) << "no trace file written for " << trace_path;
  JsonValue doc = ParseJson(Slurp(resolved));
  std::filesystem::remove(resolved);

  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue* unit = doc.Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->s, "ms");
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(events->elements.empty());

  int64_t query_ts = -1, query_end = -1;
  std::vector<std::string> names;
  std::vector<const JsonValue*> spans;
  for (const JsonValue& ev : events->elements) {
    ASSERT_EQ(ev.kind, JsonValue::Kind::kObject);
    const JsonValue* ph = ev.Find("ph");
    ASSERT_NE(ph, nullptr);
    for (const char* key : {"name", "ts", "pid", "tid"}) {
      ASSERT_NE(ev.Find(key), nullptr) << key;
    }
    // Instant markers carry no duration. A spilling query can end with
    // one: "journal.dropped", stamped at Finish when its flight-recorder
    // shard overflowed, which depends on how threads map to shards.
    if (ph->s == "i") continue;
    EXPECT_EQ(ph->s, "X");  // every other event is complete: ts + dur
    ASSERT_NE(ev.Find("dur"), nullptr);
    spans.push_back(&ev);
    names.push_back(ev.Find("name")->s);
    if (ev.Find("cat")->s == "query") {
      query_ts = ev.Find("ts")->i;
      query_end = query_ts + ev.Find("dur")->i;
    }
  }
  ASSERT_GE(query_ts, 0) << "no query-level event";

  // Every span fits inside the query event (1us slack: durations are
  // clamped up to 1us so sub-microsecond spans can overhang slightly).
  for (const JsonValue* ev : spans) {
    int64_t ts = ev->Find("ts")->i;
    EXPECT_GE(ts, query_ts);
    EXPECT_LE(ts + ev->Find("dur")->i, query_end + 1);
  }

  // The export covers Catalyst phases, operators, stages and tasks.
  auto contains = [&](const std::string& needle) {
    for (const std::string& n : names) {
      if (n.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  for (const char* expected :
       {"optimize", "planning", "execution", "BroadcastHashJoin",
        "HashAggregate", "Exchange", "p0"}) {
    EXPECT_TRUE(contains(expected)) << expected;
  }
}

// ---- Catalyst rule statistics ----------------------------------------------

TEST(RuleStatsTest, EffectiveMovesOnlyWhenARuleRewrites) {
  SqlContext ctx;
  Numbers(ctx, 100).RegisterTempTable("t");

  // Two stacked filters: CombineFilters must fire and be counted effective.
  ctx.Sql("SELECT x FROM (SELECT x, k FROM t WHERE x < 90) sub WHERE x > 10")
      .Collect();
  auto stats = ctx.last_profile().rule_stats();
  bool saw_effective = false, saw_ineffective = false;
  for (const auto& [key, stat] : stats) {
    EXPECT_GT(stat.invocations, 0) << key;
    EXPECT_LE(stat.effective, stat.invocations) << key;
    EXPECT_GE(stat.wall_ns, 0) << key;
    if (stat.effective > 0) saw_effective = true;
    if (stat.effective == 0) saw_ineffective = true;
  }
  EXPECT_TRUE(saw_effective);
  EXPECT_TRUE(saw_ineffective);
  auto combine = stats.find("Operator Optimizations/CombineFilters");
  ASSERT_NE(combine, stats.end());
  EXPECT_GT(combine->second.effective, 0);

  // A plan those rules cannot touch: the same rules run but stay at zero.
  ctx.Sql("SELECT x FROM t").Collect();
  stats = ctx.last_profile().rule_stats();
  combine = stats.find("Operator Optimizations/CombineFilters");
  ASSERT_NE(combine, stats.end());
  EXPECT_GT(combine->second.invocations, 0);
  EXPECT_EQ(combine->second.effective, 0);
}

// ---- the profile-to-registry fold ------------------------------------------

TEST(RegistryFoldTest, SpillCountersFoldIntoRegistryTotals) {
  EngineConfig config;
  config.query_memory_limit_bytes = 64 * 1024;
  config.spill_dir = ScratchPath("spill");
  SqlContext ctx(config);
  Numbers(ctx, 20000).RegisterTempTable("fact");
  Dimension(ctx, 10).RegisterTempTable("dim");

  // Group by the 20000-distinct-key column so the aggregation map cannot fit
  // in the 64KiB budget and must spill.
  const std::string sql =
      "SELECT fact.x, count(*) AS c FROM fact "
      "JOIN dim ON fact.k = dim.k GROUP BY fact.x";
  std::vector<Row> rows = ctx.Sql(sql).Collect();
  ASSERT_EQ(rows.size(), 20000u);

  const QueryProfile& first = ctx.last_profile();
  const int64_t spill_bytes = first.Total(ProfileCounter::kSpillBytes);
  const int64_t spill_files = first.Total(ProfileCounter::kSpillFiles);
  EXPECT_GT(spill_bytes, 0);
  EXPECT_GT(first.Total(ProfileCounter::kPeakReservedBytes), 0);
  // The engine's only query so far: the registry totals are its totals.
  EXPECT_EQ(RegistryTotal(ctx, ProfileCounter::kSpillBytes), spill_bytes);
  EXPECT_EQ(RegistryTotal(ctx, ProfileCounter::kSpillFiles), spill_files);

  // The spill shows up attributed to operator spans, and EXPLAIN ANALYZE's
  // totals section reports it.
  int64_t op_spill = 0;
  Walk(first.root(), [&](const ProfileSpan* s) {
    op_spill += s->Counter(ProfileCounter::kSpillBytes);
  });
  EXPECT_EQ(op_spill, spill_bytes);
  std::string rendered = first.RenderAnalyzed();
  EXPECT_NE(rendered.find("spilled="), std::string::npos) << rendered;

  // A second query adds its own totals; nothing else moves the counters.
  ASSERT_EQ(ctx.Sql(sql).Collect().size(), 20000u);
  const QueryProfile& second = ctx.last_profile();
  EXPECT_EQ(RegistryTotal(ctx, ProfileCounter::kSpillBytes),
            spill_bytes + second.Total(ProfileCounter::kSpillBytes));
  EXPECT_EQ(RegistryTotal(ctx, ProfileCounter::kSpillFiles),
            spill_files + second.Total(ProfileCounter::kSpillFiles));

  // Counters that do not sum across spans or queries have no total.
  const std::string text = ctx.ExportMetricsText();
  EXPECT_EQ(text.find("ssql_query_peak_reserved_bytes_total"),
            std::string::npos);
  EXPECT_EQ(text.find("ssql_query_cpu_ns_total"), std::string::npos);
  EXPECT_NE(text.find("ssql_query_spill_bytes_total"), std::string::npos);

  std::filesystem::remove_all(config.spill_dir);
}

TEST(RegistryFoldTest, SourceCountersFoldIntoRegistryTotals) {
  SqlContext ctx;
  std::string path = ScratchPath("json") + ".json";
  {
    std::ofstream out(path);
    out << "{\"a\": 1}\n{\"a\": 2}\nnot json\n{\"a\": 3}\n";
  }
  DataFrame df = ctx.Read().Format("json").Mode("DROPMALFORMED").Load(path);
  const int64_t scanned_before =
      RegistryTotal(ctx, ProfileCounter::kRowsScanned);
  const int64_t dropped_before =
      RegistryTotal(ctx, ProfileCounter::kRowsDropped);
  const int64_t malformed_before =
      RegistryTotal(ctx, ProfileCounter::kMalformedRecords);
  EXPECT_EQ(df.Collect().size(), 3u);
  std::filesystem::remove(path);

  const QueryProfile& profile = ctx.last_profile();
  EXPECT_EQ(profile.Total(ProfileCounter::kRowsDropped), 1);
  EXPECT_EQ(profile.Total(ProfileCounter::kMalformedRecords), 1);
  EXPECT_EQ(RegistryTotal(ctx, ProfileCounter::kRowsDropped) - dropped_before,
            1);
  EXPECT_EQ(RegistryTotal(ctx, ProfileCounter::kMalformedRecords) -
                malformed_before,
            1);
  EXPECT_EQ(RegistryTotal(ctx, ProfileCounter::kRowsScanned) - scanned_before,
            profile.Total(ProfileCounter::kRowsScanned));
}

// ---- one number on every surface --------------------------------------------

/// Mirrors the EXPLAIN ANALYZE byte formatting (one decimal, KiB/MiB).
std::string FormatBytesLikeExplain(int64_t bytes) {
  char buf[32];
  if (bytes >= (int64_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (int64_t{1} << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldB", static_cast<long long>(bytes));
  }
  return buf;
}

/// The integer after `key` ("spill_bytes=") in `text`, or -1 when absent.
int64_t NumberAfter(const std::string& text, const std::string& key,
                    size_t from = 0) {
  const size_t at = text.find(key, from);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + key.size()));
}

/// The value of an unlabelled Prometheus sample line "<name> <value>".
int64_t PrometheusValue(const std::string& text, const std::string& name) {
  return NumberAfter(text, "\n" + name + " ");
}

/// The single finished query of `ctx` (callers run exactly one).
Row OnlyFinishedQuery(SqlContext& ctx) {
  auto rows = ctx.Sql("SELECT id, rows_out, spill_bytes, peak_memory_bytes "
                      "FROM system.queries WHERE status = 'FINISHED'")
                  .Collect();
  EXPECT_EQ(rows.size(), 1u);
  return rows.empty() ? Row() : rows[0];
}

TEST(ConsistencyTest, PeakMemoryIsTheSumOfPerOperatorRaises) {
  // The peak is published as deltas on whichever operator raised the
  // query's high-water mark, so here both the broadcast join's build and
  // the aggregation's group table carry a share. Every surface must report
  // their sum, not the largest share.
  SqlContext ctx;
  Numbers(ctx, 50000).RegisterTempTable("fact");
  Dimension(ctx, 3000).RegisterTempTable("dim");
  DataFrame query = ctx.Sql(
      "SELECT fact.x, count(*) AS c FROM fact JOIN dim ON fact.k = dim.k "
      "GROUP BY fact.x");
  const std::string explained = query.Explain(ExplainMode::kAnalyze);

  const QueryProfile& profile = ctx.last_profile();
  const int64_t peak = profile.Total(ProfileCounter::kPeakReservedBytes);
  int raisers = 0;
  for (const ProfileSpan* op : OperatorSpans(profile)) {
    if (op->Counter(ProfileCounter::kPeakReservedBytes) > 0) ++raisers;
  }
  ASSERT_GE(raisers, 2) << explained;

  const size_t totals = explained.find("== Totals ==");
  ASSERT_NE(totals, std::string::npos) << explained;
  EXPECT_NE(explained.find("peak_reserved=" + FormatBytesLikeExplain(peak),
                           totals),
            std::string::npos)
      << "profile peak " << peak << "\n"
      << explained;
  Row record = OnlyFinishedQuery(ctx);
  ASSERT_EQ(record.size(), 4u);
  EXPECT_EQ(record.GetInt64(3), peak);
}

TEST(ConsistencyTest, OneQueryReportsTheSameNumbersEverywhere) {
  // One spilling query with one injected task retry. Its output rows, spill
  // bytes and retries must agree across EXPLAIN ANALYZE, system.queries,
  // system.query_operators and the Prometheus text.
  EngineConfig config;
  config.query_memory_limit_bytes = 64 * 1024;
  config.spill_dir = ScratchPath("consistency");
  config.fault_injection_spec = "aggregate.partial:1:0";
  SqlContext ctx(config);
  Numbers(ctx, 20000).RegisterTempTable("fact");
  Dimension(ctx, 10).RegisterTempTable("dim");
  const std::string before = ctx.ExportMetricsText();
  DataFrame query = ctx.Sql(
      "SELECT fact.x, count(*) AS c FROM fact JOIN dim ON fact.k = dim.k "
      "GROUP BY fact.x");
  const std::string explained = query.Explain(ExplainMode::kAnalyze);
  const std::string after = ctx.ExportMetricsText();

  const QueryProfile& profile = ctx.last_profile();
  const int64_t spill = profile.Total(ProfileCounter::kSpillBytes);
  const int64_t retries = profile.Total(ProfileCounter::kRetries);
  ASSERT_GT(spill, 0) << explained;
  ASSERT_EQ(retries, 1) << explained;
  auto delta = [&](ProfileCounter c) {
    const std::string name =
        "ssql_query_" + std::string(ProfileCounterName(c)) + "_total";
    return PrometheusValue(after, name) - PrometheusValue(before, name);
  };

  // EXPLAIN ANALYZE: the top operator's rows_out and the totals line.
  const size_t tree = explained.find("== Physical Plan (actual) ==");
  const size_t totals = explained.find("== Totals ==");
  ASSERT_NE(tree, std::string::npos) << explained;
  ASSERT_NE(totals, std::string::npos) << explained;
  const int64_t explain_rows = NumberAfter(explained, "rows_out=", tree);
  EXPECT_EQ(NumberAfter(explained, "spill_bytes=", totals), spill);
  EXPECT_EQ(NumberAfter(explained, "retries=", totals), retries);

  // system.queries.
  Row record = OnlyFinishedQuery(ctx);
  ASSERT_EQ(record.size(), 4u);
  const int64_t query_id = record.GetInt64(0);
  EXPECT_EQ(record.GetInt64(1), 20000);
  EXPECT_EQ(explain_rows, 20000);
  EXPECT_EQ(record.GetInt64(2), spill);

  // system.query_operators, summed over the query's operators.
  auto ops = ctx.Sql("SELECT depth, rows_out, spill_bytes FROM "
                     "system.query_operators WHERE query_id = " +
                     std::to_string(query_id))
                 .Collect();
  ASSERT_FALSE(ops.empty());
  int64_t top_rows = 0, all_rows = 0, op_spill = 0;
  for (const Row& op : ops) {
    if (op.GetInt64(0) == 0) top_rows += op.GetInt64(1);
    all_rows += op.GetInt64(1);
    op_spill += op.GetInt64(2);
  }
  EXPECT_EQ(top_rows, 20000);
  EXPECT_EQ(op_spill, spill);

  // Prometheus: the query's fold into the ssql_query_*_total counters.
  EXPECT_EQ(delta(ProfileCounter::kRowsOut), all_rows);
  EXPECT_EQ(delta(ProfileCounter::kSpillBytes), spill);
  EXPECT_EQ(delta(ProfileCounter::kRetries), retries);

  std::filesystem::remove_all(config.spill_dir);
}

// ---- profiling disabled ----------------------------------------------------

TEST(ProfilingDisabledTest, CountersLandOnTheRootSpan) {
  EngineConfig config;
  config.profiling_enabled = false;
  SqlContext ctx(config);
  Numbers(ctx, 200).RegisterTempTable("t");
  std::vector<Row> rows = ctx.Sql("SELECT k, sum(x) FROM t GROUP BY k").Collect();
  EXPECT_EQ(rows.size(), 10u);

  const QueryProfile& profile = ctx.last_profile();
  EXPECT_FALSE(profile.detailed());
  ASSERT_NE(profile.root(), nullptr);
  EXPECT_TRUE(profile.root()->children.empty());
  EXPECT_TRUE(profile.finished());
  // Counters keep flowing into the root span, and from there into the
  // registry; renderers stay safe.
  const int64_t attempts = profile.Total(ProfileCounter::kAttempts);
  EXPECT_GT(attempts, 0);
  EXPECT_EQ(profile.root()->Counter(ProfileCounter::kAttempts), attempts);
  EXPECT_EQ(RegistryTotal(ctx, ProfileCounter::kAttempts), attempts);
  EXPECT_NO_THROW(profile.ToJson());
  EXPECT_NO_THROW(profile.ToChromeTraceJson());
  EXPECT_NO_THROW(profile.RenderAnalyzed());
  EXPECT_NO_THROW(profile.SummaryLine());
}

TEST(ProfilingDisabledTest, SystemQueriesReportsSpillAndPeak) {
  EngineConfig config;
  config.profiling_enabled = false;
  config.query_memory_limit_bytes = 64 * 1024;
  config.spill_dir = ScratchPath("unprofiled-spill");
  SqlContext ctx(config);
  Numbers(ctx, 20000).RegisterTempTable("t");
  ASSERT_EQ(ctx.Sql("SELECT x, count(*) FROM t GROUP BY x").Collect().size(),
            20000u);
  const QueryProfile& profile = ctx.last_profile();
  const int64_t spill = profile.Total(ProfileCounter::kSpillBytes);
  const int64_t peak = profile.Total(ProfileCounter::kPeakReservedBytes);
  EXPECT_GT(spill, 0);
  EXPECT_GT(peak, 0);
  Row record = OnlyFinishedQuery(ctx);
  ASSERT_EQ(record.size(), 4u);
  EXPECT_EQ(record.GetInt64(2), spill);
  EXPECT_EQ(record.GetInt64(3), peak);
  std::filesystem::remove_all(config.spill_dir);
}

TEST(ProfilingDisabledTest, TracePathRequiresProfiling) {
  EngineConfig config;
  config.profiling_enabled = false;
  config.trace_path = "/tmp/never-written.json";
  EXPECT_THROW(SqlContext ctx(config), ExecutionError);
}

}  // namespace
}  // namespace ssql
