// Statistics and cardinality-observability tests (the ANALYZE TABLE layer):
// parser forms and errors, HyperLogLog NDV accuracy (the 10% budget at 100k
// distinct), StatsStore staleness semantics (re-register, drop, write-path),
// the system.table_stats / system.column_stats views, stats-derived
// cardinality estimates with provenance in EXPLAIN and in every operator of
// a spilling join+agg query (profile spans, system.query_operators, the
// ssql_cardinality_misestimate histogram), and ANALYZE racing queries and
// re-registration — the ThreadSanitizer target. Run under both sanitizers
// in CI (scripts/check.sh).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/sql_context.h"
#include "catalyst/analysis/stats_store.h"
#include "catalyst/planner/cost_model.h"
#include "engine/query_profile.h"
#include "sql/parser.h"
#include "util/hll_sketch.h"
#include "util/metrics_registry.h"

namespace ssql {
namespace {

std::string ScratchDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/ssql-stats-" + tag + "-" +
                    std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  return dir;
}

/// Writes a CSV with columns k (n rows, values i % distinct) and s
/// ("name<i % distinct>") — a data-source-backed table, so ANALYZE records
/// a source identity and the cost model actually uses the stats.
std::string WriteCsv(const std::string& path, int n, int distinct) {
  std::ofstream out(path);
  out << "k,s\n";
  for (int i = 0; i < n; ++i) {
    out << (i % distinct) << ",name" << (i % distinct) << "\n";
  }
  return path;
}

void Walk(const ProfileSpan* span,
          const std::function<void(const ProfileSpan*)>& fn) {
  fn(span);
  for (const ProfileSpan* child : span->children) Walk(child, fn);
}

std::vector<const ProfileSpan*> OperatorSpans(const QueryProfile& profile) {
  std::vector<const ProfileSpan*> out;
  Walk(profile.root(), [&](const ProfileSpan* s) {
    if (s->kind == SpanKind::kOperator) out.push_back(s);
  });
  return out;
}

// ---- parser ----------------------------------------------------------------

TEST(AnalyzeParserTest, StatementForms) {
  ParsedStatement s = ParseSql("ANALYZE TABLE t");
  EXPECT_EQ(s.kind, ParsedStatement::Kind::kAnalyzeTable);
  EXPECT_EQ(s.table_name, "t");
  EXPECT_TRUE(s.analyze_columns.empty());
  EXPECT_FALSE(s.analyze_all_columns);

  s = ParseSql("ANALYZE TABLE t COMPUTE STATISTICS");
  EXPECT_EQ(s.kind, ParsedStatement::Kind::kAnalyzeTable);
  EXPECT_TRUE(s.analyze_columns.empty());
  EXPECT_FALSE(s.analyze_all_columns);

  s = ParseSql("ANALYZE TABLE db.t COMPUTE STATISTICS FOR COLUMNS a, b");
  EXPECT_EQ(s.table_name, "db.t");
  ASSERT_EQ(s.analyze_columns.size(), 2u);
  EXPECT_EQ(s.analyze_columns[0], "a");
  EXPECT_EQ(s.analyze_columns[1], "b");
  EXPECT_FALSE(s.analyze_all_columns);

  s = ParseSql("analyze table t compute statistics for all columns");
  EXPECT_EQ(s.kind, ParsedStatement::Kind::kAnalyzeTable);
  EXPECT_TRUE(s.analyze_all_columns);
  EXPECT_TRUE(s.analyze_columns.empty());
}

TEST(AnalyzeParserTest, Errors) {
  EXPECT_THROW(ParseSql("ANALYZE t"), ParseError);  // missing TABLE
  EXPECT_THROW(ParseSql("ANALYZE TABLE"), ParseError);
  EXPECT_THROW(ParseSql("ANALYZE TABLE t COMPUTE"), ParseError);
  EXPECT_THROW(ParseSql("ANALYZE TABLE t COMPUTE STATISTICS FOR"),
               ParseError);
  EXPECT_THROW(ParseSql("ANALYZE TABLE t COMPUTE STATISTICS FOR COLUMNS"),
               ParseError);
  EXPECT_THROW(ParseSql("ANALYZE TABLE t trailing"), ParseError);
  // ANALYZE is not reserved: still fine as an identifier.
  EXPECT_NO_THROW(ParseSql("SELECT analyze FROM t"));
}

// ---- HyperLogLog -----------------------------------------------------------

TEST(HllSketchTest, NdvWithinTenPercentAt100kDistinct) {
  HllSketch hll;
  const int64_t n = 100000;
  for (int64_t i = 0; i < n; ++i) hll.Add(Mix64(static_cast<uint64_t>(i)));
  // Duplicates must not move the estimate.
  for (int64_t i = 0; i < n; i += 3) hll.Add(Mix64(static_cast<uint64_t>(i)));
  int64_t est = hll.Estimate();
  EXPECT_GT(est, n * 0.9);
  EXPECT_LT(est, n * 1.1);
}

TEST(HllSketchTest, SmallCardinalitiesNearExact) {
  HllSketch hll;
  EXPECT_EQ(hll.Estimate(), 0);
  for (int64_t i = 0; i < 100; ++i) hll.Add(Mix64(static_cast<uint64_t>(i)));
  // Linear counting regime: tight.
  EXPECT_NEAR(hll.Estimate(), 100, 5);
}

TEST(HllSketchTest, MergeEstimatesUnion) {
  HllSketch a, b;
  for (int64_t i = 0; i < 50000; ++i) a.Add(Mix64(static_cast<uint64_t>(i)));
  for (int64_t i = 25000; i < 75000; ++i) {
    b.Add(Mix64(static_cast<uint64_t>(i)));
  }
  a.Merge(b);
  int64_t est = a.Estimate();
  EXPECT_GT(est, 75000 * 0.9);
  EXPECT_LT(est, 75000 * 1.1);
}

// ---- StatsStore ------------------------------------------------------------

TEST(StatsStoreTest, StalenessAndIdentityLookups) {
  SqlContext ctx;
  std::string dir = ScratchDir("store");
  WriteCsv(dir + "/t.csv", 10, 5);
  DataFrame df = ctx.ReadCsv(dir + "/t.csv");
  ctx.RegisterTable("t", df);
  ctx.Sql("ANALYZE TABLE t").Collect();

  StatsStore& store = ctx.catalog().stats();
  auto fresh = store.Lookup("T");  // names are case-insensitive
  ASSERT_TRUE(fresh);
  EXPECT_EQ(fresh->row_count, 10);
  EXPECT_FALSE(fresh->stale);

  // MarkStale is copy-on-write: the old snapshot a concurrent planner may
  // hold is untouched, the new lookup sees the flag.
  store.MarkStale("t");
  EXPECT_FALSE(fresh->stale);
  auto stale = store.Lookup("t");
  ASSERT_TRUE(stale);
  EXPECT_TRUE(stale->stale);

  // Source-name invalidation counts the entries it flipped.
  ctx.Sql("ANALYZE TABLE t").Collect();
  EXPECT_FALSE(store.Lookup("t")->stale);
  EXPECT_EQ(store.MarkStaleBySourceName("csv:" + dir + "/t.csv"), 1);
  EXPECT_TRUE(store.Lookup("t")->stale);
  EXPECT_EQ(store.MarkStaleBySourceName("csv:/no/such/file.csv"), 0);

  store.Remove("t");
  EXPECT_FALSE(store.Lookup("t"));
  EXPECT_TRUE(store.Snapshot().empty());
}

// ---- ANALYZE TABLE end to end ----------------------------------------------

TEST(AnalyzeTableTest, PopulatesTableAndColumnStats) {
  SqlContext ctx;
  auto schema = StructType::Make({Field("x", DataType::Int64(), true),
                                  Field("s", DataType::String(), true)});
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(Row({Value(int64_t{i % 20}),
                        i % 10 == 0 ? Value::Null()
                                    : Value("s" + std::to_string(i % 4))}));
  }
  ctx.CreateDataFrame(schema, std::move(rows)).RegisterTempTable("t");

  auto summary =
      ctx.Sql("ANALYZE TABLE t COMPUTE STATISTICS FOR ALL COLUMNS").Collect();
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].GetString(0), "t");
  EXPECT_EQ(summary[0].GetInt64(1), 100);
  EXPECT_EQ(summary[0].GetInt64(2), 2);

  auto stats = ctx.catalog().stats().Lookup("t");
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->row_count, 100);
  EXPECT_GT(stats->size_bytes, 0);
  EXPECT_GT(stats->analyzed_at_unix_ms, 0);
  ASSERT_EQ(stats->columns.size(), 2u);

  const ColumnStats& x = stats->columns.at("x");
  EXPECT_EQ(x.null_count, 0);
  EXPECT_EQ(x.ndv, 20);  // linear counting: exact at this scale
  EXPECT_EQ(x.min.i64(), 0);
  EXPECT_EQ(x.max.i64(), 19);
  ASSERT_EQ(x.histogram.size(),
            static_cast<size_t>(HistogramMetric::kNumBuckets));
  int64_t hist_total = 0;
  for (int64_t c : x.histogram) hist_total += c;
  EXPECT_EQ(hist_total, 100);  // every non-null numeric value lands once

  const ColumnStats& s = stats->columns.at("s");
  EXPECT_EQ(s.null_count, 10);
  EXPECT_EQ(s.ndv, 4);
  EXPECT_NEAR(s.NullFraction(), 0.1, 1e-9);
  EXPECT_EQ(s.min.str(), "s0");
  EXPECT_EQ(s.max.str(), "s3");
  EXPECT_TRUE(s.histogram.empty());  // non-numeric: no histogram

  // The same facts through SQL.
  auto trows = ctx.Sql("SELECT table_name, row_count, stale, "
                       "columns_analyzed FROM system.table_stats")
                   .Collect();
  ASSERT_EQ(trows.size(), 1u);
  EXPECT_EQ(trows[0].GetString(0), "t");
  EXPECT_EQ(trows[0].GetInt64(1), 100);
  EXPECT_FALSE(trows[0].GetBool(2));
  EXPECT_EQ(trows[0].GetInt64(3), 2);

  auto crows = ctx.Sql("SELECT column_name, null_count, ndv, min, max, "
                       "histogram FROM system.column_stats "
                       "WHERE table_name = 't' ORDER BY column_name")
                   .Collect();
  ASSERT_EQ(crows.size(), 2u);
  EXPECT_EQ(crows[0].GetString(0), "s");
  EXPECT_EQ(crows[0].GetInt64(1), 10);
  EXPECT_TRUE(crows[0].IsNullAt(5));  // no histogram for strings
  EXPECT_EQ(crows[1].GetString(0), "x");
  EXPECT_EQ(crows[1].GetString(3), "0");
  EXPECT_EQ(crows[1].GetString(4), "19");
  EXPECT_FALSE(crows[1].IsNullAt(5));
}

TEST(AnalyzeTableTest, ColumnSelectionAndErrors) {
  SqlContext ctx;
  std::string dir = ScratchDir("cols");
  WriteCsv(dir + "/t.csv", 20, 4);
  ctx.RegisterTable("t", ctx.ReadCsv(dir + "/t.csv"));

  ctx.Sql("ANALYZE TABLE t COMPUTE STATISTICS FOR COLUMNS k").Collect();
  auto stats = ctx.catalog().stats().Lookup("t");
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->columns.size(), 1u);
  EXPECT_TRUE(stats->columns.count("k"));

  // Table-level re-analyze replaces the entry (no column stats kept).
  ctx.Sql("ANALYZE TABLE t").Collect();
  stats = ctx.catalog().stats().Lookup("t");
  ASSERT_TRUE(stats);
  EXPECT_TRUE(stats->columns.empty());

  EXPECT_THROW(ctx.Sql("ANALYZE TABLE nope"), AnalysisError);
  EXPECT_THROW(
      ctx.Sql("ANALYZE TABLE t COMPUTE STATISTICS FOR COLUMNS missing"),
      AnalysisError);
}

TEST(AnalyzeTableTest, EmptyTableAnalyzes) {
  SqlContext ctx;
  std::string dir = ScratchDir("empty");
  std::ofstream(dir + "/e.csv") << "k,s\n";
  ctx.RegisterTable("e", ctx.ReadCsv(dir + "/e.csv"));
  ctx.Sql("ANALYZE TABLE e COMPUTE STATISTICS FOR ALL COLUMNS").Collect();
  auto stats = ctx.catalog().stats().Lookup("e");
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->row_count, 0);
  const ColumnStats& k = stats->columns.at("k");
  EXPECT_EQ(k.ndv, 0);
  EXPECT_TRUE(k.min.is_null());
  EXPECT_DOUBLE_EQ(k.NullFraction(), 0.0);
}

TEST(AnalyzeTableTest, ViewsAnalyzeWithoutSourceIdentity) {
  SqlContext ctx;
  std::string dir = ScratchDir("view");
  WriteCsv(dir + "/t.csv", 30, 3);
  ctx.RegisterTable("t", ctx.ReadCsv(dir + "/t.csv"));
  ctx.Sql("CREATE TEMPORARY VIEW v AS SELECT k FROM t WHERE k > 0");
  ctx.Sql("ANALYZE TABLE v").Collect();
  auto stats = ctx.catalog().stats().Lookup("v");
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->row_count, 20);  // k in {1, 2} keeps 20 of 30
}

// ---- staleness through catalog and write path ------------------------------

TEST(StalenessTest, ReRegisterDropAndSaveInvalidate) {
  SqlContext ctx;
  std::string dir = ScratchDir("stale");
  WriteCsv(dir + "/t.csv", 10, 5);
  ctx.RegisterTable("t", ctx.ReadCsv(dir + "/t.csv"));
  ctx.Sql("ANALYZE TABLE t").Collect();
  EXPECT_FALSE(ctx.catalog().stats().Lookup("t")->stale);

  // Re-registering the same name flips the flag.
  ctx.RegisterTable("t", ctx.ReadCsv(dir + "/t.csv"));
  EXPECT_TRUE(ctx.catalog().stats().Lookup("t")->stale);
  auto rows = ctx.Sql("SELECT stale FROM system.table_stats "
                      "WHERE table_name = 't'")
                  .Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].GetBool(0));

  // A write through the save path to the backing file invalidates too.
  ctx.Sql("ANALYZE TABLE t").Collect();
  EXPECT_FALSE(ctx.catalog().stats().Lookup("t")->stale);
  ctx.Table("t").Save("csv", {{"path", dir + "/t.csv"}});
  EXPECT_TRUE(ctx.catalog().stats().Lookup("t")->stale);

  // Dropping removes the entry.
  ctx.DropTable("t");
  EXPECT_FALSE(ctx.catalog().stats().Lookup("t"));
}

// ---- cardinality estimates in plans ----------------------------------------

TEST(CardinalityTest, ExplainExtendedShowsEstimateProvenance) {
  SqlContext ctx;
  std::string dir = ScratchDir("prov");
  WriteCsv(dir + "/f.csv", 200, 10);
  WriteCsv(dir + "/d.csv", 10, 10);
  ctx.RegisterTable("f", ctx.ReadCsv(dir + "/f.csv"));
  ctx.RegisterTable("d", ctx.ReadCsv(dir + "/d.csv"));

  const std::string q =
      "SELECT f.k, count(*) FROM f JOIN d ON f.k = d.k GROUP BY f.k";
  // Before ANALYZE the build-side size comes from the file-size heuristic.
  std::string before =
      ctx.Sql("EXPLAIN EXTENDED " + q).Collect()[0].GetString(0);
  EXPECT_NE(before.find("(byte-heuristic)"), std::string::npos) << before;

  ctx.Sql("ANALYZE TABLE f COMPUTE STATISTICS FOR ALL COLUMNS").Collect();
  ctx.Sql("ANALYZE TABLE d COMPUTE STATISTICS FOR ALL COLUMNS").Collect();
  std::string after =
      ctx.Sql("EXPLAIN EXTENDED " + q).Collect()[0].GetString(0);
  EXPECT_NE(after.find("(analyzed-stats)"), std::string::npos) << after;
  EXPECT_NE(after.find("~10 rows"), std::string::npos) << after;
}

TEST(CardinalityTest, FilterSelectivityFromNdv) {
  SqlContext ctx;
  std::string dir = ScratchDir("sel");
  WriteCsv(dir + "/t.csv", 1000, 10);
  ctx.RegisterTable("t", ctx.ReadCsv(dir + "/t.csv"));
  ctx.Sql("ANALYZE TABLE t COMPUTE STATISTICS FOR ALL COLUMNS").Collect();

  ctx.Sql("SELECT * FROM t WHERE k = 5").Collect();
  const QueryProfile& profile = ctx.last_profile();
  const ProfileSpan* filter = nullptr;
  const ProfileSpan* scan = nullptr;
  for (const ProfileSpan* s : OperatorSpans(profile)) {
    if (s->name.find("Filter") != std::string::npos) filter = s;
    if (s->name.find("Scan") != std::string::npos) scan = s;
  }
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->est_rows, 1000);
  EXPECT_EQ(scan->est_source, "analyzed-stats");
  // Equality on a 10-NDV column over 1000 rows: ~100 estimated. The filter
  // may have been pushed into the scan; either way some operator carries
  // the selective estimate.
  if (filter != nullptr) {
    EXPECT_NEAR(static_cast<double>(filter->est_rows), 100.0, 10.0);
    EXPECT_EQ(filter->est_source, "analyzed-stats");
  }
}

TEST(CardinalityTest, SpillingJoinAggReportsEstimatesOnEveryOperator) {
  std::string dir = ScratchDir("spill");
  // The join's build side (d, 20000 distinct keys) dwarfs the 16 KiB
  // budget, forcing the Grace spill path; f's keys cover only the first
  // 100 of them, so the aggregate stays at 100 groups.
  WriteCsv(dir + "/f.csv", 20000, 100);
  WriteCsv(dir + "/d.csv", 20000, 20000);

  EngineConfig config;
  config.num_threads = 2;
  config.default_parallelism = 3;
  config.query_memory_limit_bytes = 16 * 1024;  // force spilling
  config.broadcast_threshold_bytes = 1;         // force the shuffle join
  config.spill_dir = dir + "/spill";
  SqlContext ctx(config);
  ctx.RegisterTable("f", ctx.ReadCsv(dir + "/f.csv"));
  ctx.RegisterTable("d", ctx.ReadCsv(dir + "/d.csv"));
  ctx.Sql("ANALYZE TABLE f COMPUTE STATISTICS FOR ALL COLUMNS").Collect();
  ctx.Sql("ANALYZE TABLE d COMPUTE STATISTICS FOR ALL COLUMNS").Collect();

  DataFrame df = ctx.Sql(
      "SELECT f.k, count(*) AS c FROM f JOIN d ON f.k = d.k GROUP BY f.k");
  int64_t query_id = -1;
  QueryOptions opts;
  opts.on_start = [&](QueryContext& q) {
    query_id = static_cast<int64_t>(q.query_id());
  };
  auto rows = ctx.Execute(df.plan(), opts).Collect();
  EXPECT_EQ(rows.size(), 100u);
  ASSERT_GT(query_id, 0);
  EXPECT_GT(ctx.last_profile().Total(ProfileCounter::kSpillBytes), 0)
      << "query did not spill; lower the limit";

  // Every operator of the profiled query carries estimate, provenance and
  // misestimation ratio — in the span tree...
  const QueryProfile& profile = ctx.last_profile();
  std::vector<const ProfileSpan*> ops = OperatorSpans(profile);
  ASSERT_GE(ops.size(), 4u);  // scans, join, partial+final agg, exchange
  for (const ProfileSpan* op : ops) {
    EXPECT_GE(op->est_rows, 0) << op->name;
    EXPECT_FALSE(op->est_source.empty()) << op->name;
  }
  std::string rendered = profile.RenderAnalyzed();
  EXPECT_NE(rendered.find("est_rows="), std::string::npos);
  EXPECT_NE(rendered.find("ratio="), std::string::npos);
  EXPECT_NE(profile.SummaryLine().find("misest_max="), std::string::npos);

  // ...and in system.query_operators.
  auto op_rows =
      ctx.Sql("SELECT name, est_rows, est_source, misestimate FROM "
              "system.query_operators WHERE query_id = " +
              std::to_string(query_id))
          .Collect();
  ASSERT_GE(op_rows.size(), 4u);
  for (const Row& r : op_rows) {
    ASSERT_FALSE(r.IsNullAt(1)) << r.GetString(0);
    EXPECT_GE(r.GetInt64(1), 0) << r.GetString(0);
    ASSERT_FALSE(r.IsNullAt(2)) << r.GetString(0);
    ASSERT_FALSE(r.IsNullAt(3)) << r.GetString(0);
    EXPECT_GE(r.GetDouble(3), 1.0) << r.GetString(0);
  }

  // The Prometheus exposition now carries the misestimation histogram.
  std::string metrics = ctx.ExportMetricsText();
  EXPECT_NE(metrics.find("ssql_cardinality_misestimate_bucket"),
            std::string::npos);
  EXPECT_NE(metrics.find("ssql_cardinality_misestimate_count"),
            std::string::npos);
}

TEST(CardinalityTest, MisestimateRatioIsSymmetricAndFloorsAtOne) {
  EXPECT_DOUBLE_EQ(MisestimateRatio(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(MisestimateRatio(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(MisestimateRatio(99, 0), 100.0);
  EXPECT_DOUBLE_EQ(MisestimateRatio(0, 99), 100.0);
  EXPECT_DOUBLE_EQ(MisestimateRatio(9, 99), MisestimateRatio(99, 9));
  EXPECT_GT(MisestimateRatio(1, 1000), MisestimateRatio(1, 100));
}

TEST(CardinalityTest, StaleStatsAreNotUsedForEstimation) {
  SqlContext ctx;
  std::string dir = ScratchDir("nostale");
  WriteCsv(dir + "/t.csv", 50, 5);
  ctx.RegisterTable("t", ctx.ReadCsv(dir + "/t.csv"));
  ctx.Sql("ANALYZE TABLE t").Collect();

  ctx.Sql("SELECT * FROM t").Collect();
  const ProfileSpan* scan = nullptr;
  for (const ProfileSpan* s : OperatorSpans(ctx.last_profile())) {
    if (s->name.find("Scan") != std::string::npos) scan = s;
  }
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->est_source, "analyzed-stats");

  ctx.catalog().stats().MarkStale("t");
  ctx.Sql("SELECT * FROM t").Collect();
  scan = nullptr;
  for (const ProfileSpan* s : OperatorSpans(ctx.last_profile())) {
    if (s->name.find("Scan") != std::string::npos) scan = s;
  }
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->est_source, "byte-heuristic");
}

// ---- concurrency (the ThreadSanitizer target) ------------------------------

TEST(StatsConcurrencyTest, AnalyzeRacesQueriesAndReRegistration) {
  SqlContext ctx;
  std::string dir = ScratchDir("race");
  WriteCsv(dir + "/t.csv", 500, 25);
  ctx.RegisterTable("t", ctx.ReadCsv(dir + "/t.csv"));
  ctx.Sql("ANALYZE TABLE t COMPUTE STATISTICS FOR ALL COLUMNS").Collect();

  constexpr int kIters = 12;
  std::thread analyzer([&] {
    for (int i = 0; i < kIters; ++i) {
      ctx.Sql("ANALYZE TABLE t COMPUTE STATISTICS FOR ALL COLUMNS").Collect();
    }
  });
  std::thread querier([&] {
    for (int i = 0; i < kIters; ++i) {
      auto rows = ctx.Sql("SELECT k, count(*) FROM t t1 GROUP BY k").Collect();
      EXPECT_EQ(rows.size(), 25u);
      ctx.Sql("SELECT * FROM system.table_stats").Collect();
      ctx.Sql("SELECT * FROM system.column_stats").Collect();
    }
  });
  std::thread invalidator([&] {
    for (int i = 0; i < kIters; ++i) {
      ctx.catalog().stats().MarkStale("t");
    }
  });
  analyzer.join();
  querier.join();
  invalidator.join();

  // The final state is coherent: one entry, fresh or stale but complete.
  auto stats = ctx.catalog().stats().Lookup("t");
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->row_count, 500);
  EXPECT_EQ(stats->columns.size(), 2u);
}

}  // namespace
}  // namespace ssql
