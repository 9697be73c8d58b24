// The system. catalog, the metrics registry, and the structured logger.
// Covers: each virtual table's contents, querying system.queries /
// system.memory with SQL while other queries run (including a 4-thread
// stress over spilling queries — the ThreadSanitizer target), the
// CANCELLED status of queries hit by CancelAllQueries, Prometheus text
// exposition validity, pruning observability, the catalog's system.
// namespace guard, and log-level / sink behaviour. Run under both
// sanitizers in CI (scripts/check.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/sql_context.h"
#include "datasources/system_tables.h"
#include "util/log.h"
#include "util/metrics_registry.h"

namespace ssql {
namespace {

EngineConfig SmallConfig() {
  EngineConfig config;
  config.num_threads = 2;
  config.default_parallelism = 3;
  return config;
}

/// A tiny table so queries have something to chew on.
void RegisterNumbers(SqlContext& ctx, int n = 64) {
  auto schema = StructType::Make({
      Field("k", DataType::Int64(), false),
      Field("v", DataType::Int64(), false),
  });
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row({Value(int64_t{i}), Value(int64_t{i * 7})}));
  }
  ctx.CreateDataFrame(schema, std::move(rows)).RegisterTempTable("numbers");
}

// ---- basic table contents --------------------------------------------------

TEST(SystemTablesTest, FinishedQueriesAppearWithActuals) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx);
  ctx.Sql("SELECT sum(v) FROM numbers").Collect();
  ctx.Sql("SELECT count(*) FROM numbers WHERE k > 10").Collect();

  auto rows = ctx.Sql("SELECT id, status, duration_ms, rows_out FROM "
                      "system.queries WHERE status = 'FINISHED' ORDER BY id")
                  .Collect();
  ASSERT_GE(rows.size(), 2u);
  for (const Row& r : rows) {
    EXPECT_GT(r.GetInt64(0), 0);
    EXPECT_EQ(r.GetString(1), "FINISHED");
    EXPECT_GE(r.GetInt64(2), 0);
    EXPECT_EQ(r.GetInt64(3), 1);  // both queries return one aggregate row
  }
}

TEST(SystemTablesTest, ErrorQueriesRecordTheMessage) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx, 8);
  ctx.RegisterUdf("boom", DataType::Int64(),
                  [](const std::vector<Value>&) -> Value {
                    throw ExecutionError("boom udf");
                  });
  EXPECT_THROW(ctx.Sql("SELECT boom(k) FROM numbers").Collect(),
               ExecutionError);
  auto rows =
      ctx.Sql("SELECT error FROM system.queries WHERE status = 'ERROR'")
          .Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].GetString(0).find("boom udf"), std::string::npos);
}

TEST(SystemTablesTest, QueryOperatorsFlattenTheProfile) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx);
  ctx.Sql("SELECT k, sum(v) FROM numbers GROUP BY k").Collect();

  auto ops = ctx.Sql("SELECT query_id, name, rows_out, wall_ns FROM "
                     "system.query_operators ORDER BY operator_id")
                 .Collect();
  ASSERT_GE(ops.size(), 2u);  // at least scan + aggregate
  std::set<std::string> names;
  for (const Row& r : ops) {
    EXPECT_GT(r.GetInt64(0), 0);
    EXPECT_GE(r.GetInt64(3), 0);
    names.insert(r.GetString(1));
  }
  bool has_aggregate = false;
  for (const auto& n : names) {
    if (n.find("Aggregate") != std::string::npos) has_aggregate = true;
  }
  EXPECT_TRUE(has_aggregate) << "operator names seen: " << names.size();
}

TEST(SystemTablesTest, MetricsTableServesRegistryAndQueryTotals) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx);
  ctx.Sql("SELECT sum(v) FROM numbers").Collect();

  auto rows = ctx.Sql("SELECT name, kind, value FROM system.metrics "
                      "WHERE name = 'ssql_queries_started_total'")
                  .Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetString(1), "counter");
  EXPECT_GE(rows[0].GetInt64(2), 1);

  // Engine-wide query totals are plain registry counters, folded from each
  // finished query's profile; the scanning query itself has not finished
  // when it reads them. Every row is a registry instrument.
  const int64_t attempts =
      ctx.exec().registry().Counter("ssql_query_attempts_total").value();
  EXPECT_GT(attempts, 0);
  auto totals = ctx.Sql("SELECT kind, value FROM system.metrics "
                        "WHERE name = 'ssql_query_attempts_total'")
                    .Collect();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].GetString(0), "counter");
  EXPECT_EQ(totals[0].GetInt64(1), attempts);
  auto kinds = ctx.Sql("SELECT count(*) FROM system.metrics WHERE kind "
                       "<> 'counter' AND kind <> 'gauge' AND kind <> "
                       "'histogram'")
                   .Collect();
  EXPECT_EQ(kinds[0].GetInt64(0), 0);

  // Histograms expose sum + quantiles; counters leave them null.
  auto hist = ctx.Sql("SELECT p50, p95 FROM system.metrics "
                      "WHERE name = 'ssql_query_latency_us'")
                  .Collect();
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_FALSE(hist[0].IsNullAt(0));
  EXPECT_GE(hist[0].GetInt64(1), hist[0].GetInt64(0));
}

TEST(SystemTablesTest, MemoryTableShowsEnginePoolAndQueries) {
  EngineConfig config = SmallConfig();
  config.total_memory_limit_bytes = 64 * 1024 * 1024;
  SqlContext ctx(config);
  auto rows =
      ctx.Sql("SELECT scope, limit_bytes FROM system.memory").Collect();
  // At minimum the engine pool row plus the introspecting query itself.
  ASSERT_GE(rows.size(), 2u);
  EXPECT_EQ(rows[0].GetString(0), "engine");
  EXPECT_EQ(rows[0].GetInt64(1), 64 * 1024 * 1024);
}

TEST(SystemTablesTest, TablesAndColumnsDescribeTheCatalog) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx);
  auto tables = ctx.Sql("SELECT name, is_system, columns FROM system.tables "
                        "WHERE name = 'numbers'")
                    .Collect();
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_FALSE(tables[0].GetBool(1));
  EXPECT_EQ(tables[0].GetInt64(2), 2);

  auto cols = ctx.Sql("SELECT column_name, ordinal, type FROM system.columns "
                      "WHERE table_name = 'numbers' ORDER BY ordinal")
                  .Collect();
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0].GetString(0), "k");
  EXPECT_EQ(cols[1].GetString(0), "v");
  EXPECT_EQ(cols[0].GetInt64(1), 0);

  // The system tables list themselves (queries, query_operators, metrics,
  // memory, tables, columns, table_stats, column_stats, events,
  // metrics_history).
  auto sys = ctx.Sql("SELECT count(*) FROM system.tables WHERE is_system")
                 .Collect();
  ASSERT_EQ(sys.size(), 1u);
  EXPECT_EQ(sys[0].GetInt64(0), 10);
}

TEST(SystemTablesTest, RetentionBoundsTheRing) {
  EngineConfig config = SmallConfig();
  config.finished_query_retention = 3;
  SqlContext ctx(config);
  RegisterNumbers(ctx, 4);
  for (int i = 0; i < 8; ++i) ctx.Sql("SELECT count(*) FROM numbers").Collect();
  auto rows = ctx.Sql("SELECT count(*) FROM system.queries "
                      "WHERE status = 'FINISHED'")
                  .Collect();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetInt64(0), 3);
}

// ---- catalog namespace guard ----------------------------------------------

TEST(SystemTablesTest, SystemNamespaceIsReserved) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx, 4);
  DataFrame df = ctx.Table("numbers");
  EXPECT_THROW(ctx.RegisterTable("system.evil", df), AnalysisError);
  EXPECT_THROW(ctx.RegisterTable("SYSTEM.queries", df), AnalysisError);
  EXPECT_THROW(ctx.DropTable("system.queries"), AnalysisError);
  // After the failed attempts the real table still answers.
  EXPECT_FALSE(ctx.Sql("SELECT * FROM system.queries").Collect().empty());
}

// ---- live views while queries run ------------------------------------------

/// A query that holds a slot until released, implemented as a slow UDF.
struct Latch {
  std::atomic<bool> release{false};
  std::atomic<int> entered{0};
};

void RegisterBlockingUdf(SqlContext& ctx, Latch* latch) {
  ctx.RegisterUdf(
      "block_once", DataType::Int64(),
      [latch](const std::vector<Value>& args) -> Value {
        if (args[0].i64() == 0 && !latch->release.load()) {
          latch->entered.fetch_add(1);
          while (!latch->release.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        return args[0];
      },
      /*deterministic=*/false);
}

TEST(SystemTablesTest, GroupByStatusSeesRunningAndFinishedConcurrently) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx);
  Latch latch;
  RegisterBlockingUdf(ctx, &latch);
  ctx.Sql("SELECT count(*) FROM numbers").Collect();  // one FINISHED row

  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&ctx] {
      ctx.Sql("SELECT sum(block_once(k)) FROM numbers").Collect();
    });
  }
  while (latch.entered.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ≥ 2 other queries are executing right now; the acceptance query must
  // see them plus itself as RUNNING and the earlier query as FINISHED.
  auto rows = ctx.Sql("SELECT status, count(*) FROM system.queries "
                      "GROUP BY status ORDER BY status")
                  .Collect();
  std::map<std::string, int64_t> by_status;
  for (const Row& r : rows) by_status[r.GetString(0)] = r.GetInt64(1);
  EXPECT_EQ(by_status["RUNNING"], 3);  // 2 blocked + the introspecting query
  EXPECT_EQ(by_status["FINISHED"], 1);

  latch.release.store(true);
  for (auto& t : workers) t.join();

  auto after = ctx.Sql("SELECT count(*) FROM system.queries "
                       "WHERE status = 'FINISHED'")
                   .Collect();
  // 1 warmup + 2 workers + the GROUP BY introspection.
  EXPECT_EQ(after[0].GetInt64(0), 4);
}

TEST(SystemTablesTest, CancelAllMarksQueriesCancelledNotRunning) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx);
  Latch latch;
  RegisterBlockingUdf(ctx, &latch);

  std::vector<std::thread> workers;
  std::atomic<int> cancelled_errors{0};
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&] {
      try {
        ctx.Sql("SELECT sum(block_once(k)) FROM numbers").Collect();
      } catch (const ExecutionError&) {
        cancelled_errors.fetch_add(1);
      }
    });
  }
  while (latch.entered.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ctx.exec().CancelAllQueries("test shutdown");
  // Live view: the affected queries must read CANCELLED immediately, even
  // while their tasks are still unwinding.
  auto live = ctx.Sql("SELECT count(*) FROM system.queries "
                      "WHERE status = 'CANCELLED'")
                  .Collect();
  EXPECT_EQ(live[0].GetInt64(0), 2);

  latch.release.store(true);
  for (auto& t : workers) t.join();
  EXPECT_EQ(cancelled_errors.load(), 2);

  // Retired view: still CANCELLED (not ERROR) once they unwind, with the
  // cancellation reason recorded.
  auto rows = ctx.Sql("SELECT status, error FROM system.queries "
                      "WHERE status = 'CANCELLED'")
                  .Collect();
  ASSERT_EQ(rows.size(), 2u);
  for (const Row& r : rows) {
    EXPECT_NE(r.GetString(1).find("test shutdown"), std::string::npos);
  }
  EXPECT_EQ(ctx.Sql("SELECT count(*) FROM system.queries "
                    "WHERE status = 'RUNNING' AND id > 0")
                .Collect()[0]
                .GetInt64(0),
            1);  // only the introspecting query itself
}

// ---- 4-thread stress over spilling queries (TSan target) -------------------

TEST(SystemTablesTest, StressSystemScansWhileSpillingQueriesRun) {
  EngineConfig config = SmallConfig();
  config.num_threads = 4;
  config.query_memory_limit_bytes = 32 * 1024;  // force aggregation spills
  SqlContext ctx(config);
  auto schema = StructType::Make({
      Field("k", DataType::Int64(), false),
      Field("v", DataType::Int64(), false),
  });
  std::vector<Row> rows;
  for (int i = 0; i < 3000; ++i) {
    rows.push_back(Row({Value(int64_t{i % 997}), Value(int64_t{i})}));
  }
  ctx.CreateDataFrame(schema, std::move(rows)).RegisterTempTable("big");

  std::atomic<bool> stop{false};
  std::atomic<int> spill_queries{0};
  std::thread spiller([&] {
    while (!stop.load()) {
      ctx.Sql("SELECT k, sum(v) FROM big GROUP BY k").Collect();
      spill_queries.fetch_add(1);
    }
  });

  std::vector<std::thread> scanners;
  for (int t = 0; t < 4; ++t) {
    scanners.emplace_back([&ctx, &stop, t] {
      int i = 0;
      while (!stop.load() || i < 3) {
        if (t % 2 == 0) {
          auto rows = ctx.Sql("SELECT status, count(*) FROM system.queries "
                              "GROUP BY status")
                          .Collect();
          ASSERT_FALSE(rows.empty());
        } else {
          auto rows =
              ctx.Sql("SELECT scope, reserved_bytes FROM system.memory")
                  .Collect();
          ASSERT_FALSE(rows.empty());
          ASSERT_EQ(rows[0].GetString(0), "engine");
        }
        ++i;
        if (i >= 10 && stop.load()) break;
      }
    });
  }

  while (spill_queries.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  spiller.join();
  for (auto& t : scanners) t.join();

  // The spilling workload actually spilled (else the stress proved little).
  EXPECT_GT(
      ctx.exec().registry().Counter("ssql_query_spill_bytes_total").value(),
      0);
  // And every query the engine saw retired cleanly.
  auto done = ctx.Sql("SELECT count(*) FROM system.queries "
                      "WHERE status = 'FINISHED'")
                  .Collect();
  EXPECT_GT(done[0].GetInt64(0), 0);
}

// ---- pushdown observability ------------------------------------------------

TEST(SystemTablesTest, ColumnPruningOnSystemTablesIsObservable) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx, 4);
  ctx.Sql("SELECT count(*) FROM numbers").Collect();
  auto scans = [&ctx] {
    return ctx.exec().registry().Counter("ssql_system_table_scans_total")
        .value();
  };
  // system.queries has 11 columns; this query needs only `status`, and the
  // scan operator's column list in the profile shows the pruned read.
  ctx.Sql("SELECT status FROM system.queries").Collect();
  EXPECT_EQ(scans(), 1);
  std::string scan_detail;
  for (const auto& op : ctx.last_profile().OperatorActuals()) {
    if (op.name == "Scan") scan_detail = op.detail;
  }
  EXPECT_EQ(scan_detail.rfind("Scan system.queries [status#", 0), 0u)
      << scan_detail;
  EXPECT_EQ(scan_detail.find(','), std::string::npos) << scan_detail;

  // Filter pushdown reaches the source: scanned==all records, returned==
  // the matching subset (both recorded by the relation itself).
  auto rows = ctx.Sql("SELECT id FROM system.queries "
                      "WHERE status = 'FINISHED'")
                  .Collect();
  EXPECT_GE(rows.size(), 1u);
  EXPECT_EQ(scans(), 2);
}

TEST(SystemTablesTest, HeartbeatAndStallColumnsAreQueryable) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx);
  ctx.Sql("SELECT sum(v) FROM numbers").Collect();
  // A healthy finished query: heartbeat age is a small non-negative number
  // (the age at finish time) and the watchdog never marked it stalled.
  auto rows = ctx.Sql("SELECT last_heartbeat_ms, stalled FROM system.queries "
                      "WHERE status = 'FINISHED'")
                  .Collect();
  ASSERT_GE(rows.size(), 1u);
  for (const Row& r : rows) {
    EXPECT_GE(r.GetInt64(0), 0);
    EXPECT_FALSE(r.GetBool(1));
  }
  // The stalled flag is filterable like any other column.
  auto stalled = ctx.Sql("SELECT count(*) FROM system.queries "
                         "WHERE stalled = true")
                     .Collect();
  EXPECT_EQ(stalled[0].GetInt64(0), 0);
}

// ---- Prometheus exposition -------------------------------------------------

TEST(SystemTablesTest, PrometheusExportIsWellFormed) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx);
  for (int i = 0; i < 3; ++i) {
    ctx.Sql("SELECT k, sum(v) FROM numbers GROUP BY k").Collect();
  }
  std::string text = ctx.ExportMetricsText();

  // TYPE lines for each metric family the engine always registers.
  EXPECT_NE(text.find("# TYPE ssql_queries_started_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ssql_active_queries gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ssql_query_latency_us histogram"),
            std::string::npos);

  // The straggler-defense counters are registered at engine construction,
  // so they are scrapeable (as zeros) before anything speculates or stalls.
  EXPECT_NE(text.find("# TYPE ssql_query_speculated_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ssql_query_speculation_wins_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ssql_query_task_timeouts_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ssql_watchdog_kills_total counter"),
            std::string::npos);

  // The latency histogram observed 3 queries: non-empty buckets, a +Inf
  // bucket equal to _count, and cumulative monotonicity.
  std::istringstream in(text);
  std::string line;
  int64_t last_cumulative = -1;
  int64_t inf_value = -1;
  int64_t count_value = -1;
  int buckets = 0;
  while (std::getline(in, line)) {
    if (line.rfind("ssql_query_latency_us_bucket{le=\"+Inf\"} ", 0) == 0) {
      inf_value = std::stoll(line.substr(line.find("} ") + 2));
    } else if (line.rfind("ssql_query_latency_us_bucket", 0) == 0) {
      int64_t v = std::stoll(line.substr(line.find("} ") + 2));
      EXPECT_GE(v, last_cumulative);
      last_cumulative = v;
      ++buckets;
    } else if (line.rfind("ssql_query_latency_us_count ", 0) == 0) {
      count_value = std::stoll(line.substr(line.find(' ') + 1));
    }
  }
  EXPECT_GE(buckets, 1);
  EXPECT_GE(count_value, 3);
  EXPECT_EQ(inf_value, count_value);

  // Per-query counters are exported only as the folded registry totals:
  // the three queries' task attempts, and no second family.
  EXPECT_NE(text.find("\nssql_query_attempts_total "), std::string::npos);
  EXPECT_EQ(text.find("ssql_legacy_"), std::string::npos);
}

TEST(SystemTablesTest, MetricsPathIsRewrittenAfterQueries) {
  EngineConfig config = SmallConfig();
  config.metrics_path = ::testing::TempDir() + "/ssql-metrics-test.prom";
  {
    SqlContext ctx(config);
    RegisterNumbers(ctx, 8);
    ctx.Sql("SELECT count(*) FROM numbers").Collect();
  }
  std::ifstream in(config.metrics_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("ssql_queries_finished_total 1"),
            std::string::npos);
}

// ---- metrics registry unit behaviour ---------------------------------------

TEST(MetricsRegistryTest, HistogramBucketsAndQuantiles) {
  HistogramMetric h;
  for (int64_t v : {1, 2, 3, 100, 1000}) h.Record(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 1106);
  // p50 falls in the bucket holding the 3rd observation (3 → le=4).
  EXPECT_LE(h.ApproxQuantile(0.5), 4);
  EXPECT_GE(h.ApproxQuantile(0.99), 1000);
  EXPECT_LE(h.ApproxQuantile(0.99), 1024);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.Counter("x", "a counter");
  EXPECT_THROW(registry.Gauge("x", "now a gauge"), ExecutionError);
  // Same-kind re-lookup returns the same instance.
  CounterMetric& a = registry.Counter("x", "");
  CounterMetric& b = registry.Counter("x", "");
  EXPECT_EQ(&a, &b);
}

// ---- structured logger -----------------------------------------------------

TEST(LogTest, FormatAndLevelFiltering) {
  EXPECT_EQ(FormatLogLine(LogLevel::kWarn, "query.slow",
                          {{"query", int64_t{3}}, {"wall_ms", int64_t{5210}}}),
            "ssql [WARN] query.slow query=3 wall_ms=5210");
  // Values with spaces are quoted.
  EXPECT_EQ(FormatLogLine(LogLevel::kInfo, "e", {{"msg", "two words"}}),
            "ssql [INFO] e msg=\"two words\"");

  LogLevel saved = GetLogLevel();
  std::vector<std::string> lines;
  SetLogSink([&lines](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  SetLogLevel(LogLevel::kWarn);
  LogEvent(LogLevel::kInfo, "dropped.event", {});
  LogEvent(LogLevel::kError, "kept.event", {{"k", "v"}});
  SetLogSink(nullptr);
  SetLogLevel(saved);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "ssql [ERROR] kept.event k=v");
}

TEST(LogTest, EngineConfigControlsTheLevel) {
  EngineConfig config = SmallConfig();
  config.log_level = "nonsense";
  EXPECT_THROW(ValidateEngineConfig(config), ExecutionError);

  LogLevel saved = GetLogLevel();
  config.log_level = "error";
  { SqlContext ctx(config); EXPECT_EQ(GetLogLevel(), LogLevel::kError); }
  SetLogLevel(saved);
}

TEST(LogTest, SlowQueryGoesThroughTheLogger) {
  LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  std::vector<std::string> lines;
  SetLogSink([&lines](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  {
    EngineConfig config = SmallConfig();
    config.slow_query_threshold_ms = 0;  // every query is "slow"
    SqlContext ctx(config);
    RegisterNumbers(ctx, 8);
    ctx.Sql("SELECT count(*) FROM numbers").Collect();
  }
  SetLogSink(nullptr);
  SetLogLevel(saved);
  bool saw_slow = false;
  for (const auto& line : lines) {
    if (line.find("query.slow") != std::string::npos) saw_slow = true;
  }
  EXPECT_TRUE(saw_slow);
}

}  // namespace
}  // namespace ssql
