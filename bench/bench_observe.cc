// Instrumentation overhead: the same queries with the per-query span tree
// recorded (profiling_enabled, the default) vs the root-span-only mode,
// where every counter still lands on the query's root span.
// Spans are created per operator/stage/task — never per row — so the two
// modes should stay within a few percent of each other (~3% budget); a
// larger gap means someone put profile work on a per-row path. The third
// variant additionally writes the Chrome trace-event file each query, to
// price the export itself.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/workloads.h"
#include "util/event_journal.h"
#include "util/metrics_registry.h"

namespace ssql {
namespace bench {
namespace {

constexpr size_t kRows = 100000;
constexpr int kKeys = 2000;

enum Mode : int64_t { kUnprofiled = 0, kProfiled = 1, kProfiledWithTrace = 2 };

const char* TracePath() { return "/tmp/ssql-bench-observe-trace.json"; }

SqlContext* MakeContext(Mode mode) {
  EngineConfig config = SparkSqlConfig();
  config.profiling_enabled = mode != kUnprofiled;
  if (mode == kProfiledWithTrace) config.trace_path = TracePath();
  auto* ctx = new SqlContext(config);

  std::mt19937_64 rng(7);
  auto schema = StructType::Make({
      Field("k", DataType::Int32(), false),
      Field("v", DataType::Int32(), false),
  });
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back(Row({Value(static_cast<int32_t>(rng() % kKeys)),
                        Value(static_cast<int32_t>(rng() % 1000))}));
  }
  ctx->CreateDataFrame(schema, std::move(rows)).RegisterTempTable("t");

  auto dim = StructType::Make({
      Field("k", DataType::Int32(), false),
      Field("w", DataType::Int32(), false),
  });
  std::vector<Row> dim_rows;
  dim_rows.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    dim_rows.push_back(Row({Value(int32_t(i)), Value(int32_t(i * 2))}));
  }
  ctx->CreateDataFrame(dim, std::move(dim_rows)).RegisterTempTable("dim");
  return ctx;
}

/// state.range(0): Mode above.
void RunQuery(benchmark::State& state, const std::string& sql) {
  Mode mode = static_cast<Mode>(state.range(0));
  SqlContext* ctx = MakeContext(mode);
  size_t result_rows = 0;
  for (auto _ : state) {
    result_rows = ctx->Sql(sql).Collect().size();
  }
  state.counters["result_rows"] = static_cast<double>(result_rows);
  if (mode != kUnprofiled) {
    state.counters["spans"] = static_cast<double>(
        1 + ctx->last_profile().root()->children.size());
  }
  delete ctx;
  if (mode == kProfiledWithTrace) std::remove(TracePath());
}

void BM_FilterAggregate(benchmark::State& state) {
  RunQuery(state,
           "SELECT k, sum(v), count(*) FROM t WHERE v < 900 GROUP BY k");
}

void BM_JoinAggregate(benchmark::State& state) {
  RunQuery(state,
           "SELECT t.k, sum(dim.w) FROM t JOIN dim ON t.k = dim.k GROUP BY "
           "t.k");
}

void BM_SortLimit(benchmark::State& state) {
  RunQuery(state, "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 100");
}

BENCHMARK(BM_FilterAggregate)
    ->Arg(kUnprofiled)->Arg(kProfiled)->Arg(kProfiledWithTrace)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinAggregate)
    ->Arg(kUnprofiled)->Arg(kProfiled)->Arg(kProfiledWithTrace)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SortLimit)
    ->Arg(kUnprofiled)->Arg(kProfiled)->Arg(kProfiledWithTrace)
    ->Unit(benchmark::kMillisecond);

// ---- registry primitives ---------------------------------------------------

// Cost of one histogram observation (two relaxed atomic adds) — the price
// paid per query / per operator / per spill event on the hot path.
void BM_HistogramRecord(benchmark::State& state) {
  HistogramMetric h;
  int64_t v = 1;
  for (auto _ : state) {
    h.Record(v);
    v = (v * 31 + 7) & 0xfffff;  // spread across buckets
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

// ---- ANALYZE TABLE cost and stats-aware planning ---------------------------

const char* StatsCsvPath() { return "/tmp/ssql-bench-observe-stats.csv"; }

/// A csv-backed twin of the `t` table — file-backed so ANALYZE records a
/// source identity and the planner actually consults the stats.
SqlContext* MakeCsvContext() {
  std::mt19937_64 rng(11);
  std::ofstream out(StatsCsvPath());
  out << "k,v\n";
  for (size_t i = 0; i < kRows; ++i) {
    out << rng() % kKeys << "," << rng() % 1000 << "\n";
  }
  out.close();
  auto* ctx = new SqlContext(SparkSqlConfig());
  ctx->RegisterTable("t", ctx->ReadCsv(StatsCsvPath()));
  return ctx;
}

// Price of ANALYZE TABLE ... FOR ALL COLUMNS on 100k x 2 columns: one full
// scan plus, per non-null value, an HLL add, a min/max compare and a
// histogram bucket increment. Sets the refresh budget for keeping stats
// fresh on hot tables.
void BM_AnalyzeTableAllColumns(benchmark::State& state) {
  SqlContext* ctx = MakeCsvContext();
  for (auto _ : state) {
    ctx->Sql("ANALYZE TABLE t COMPUTE STATISTICS FOR ALL COLUMNS").Collect();
  }
  state.counters["rows"] = static_cast<double>(kRows);
  delete ctx;
  std::remove(StatsCsvPath());
}
BENCHMARK(BM_AnalyzeTableAllColumns)->Unit(benchmark::kMillisecond);

// Physical planning of a join+filter+agg query without (0) and with (1)
// analyzed stats: the per-node estimate annotation and StatsStore lookups
// must stay microseconds — planning-path work, never per-row.
void BM_PlanWithEstimates(benchmark::State& state) {
  SqlContext* ctx = MakeCsvContext();
  if (state.range(0) == 1) {
    ctx->Sql("ANALYZE TABLE t COMPUTE STATISTICS FOR ALL COLUMNS").Collect();
  }
  DataFrame df = ctx->Sql(
      "SELECT t1.k, count(*) FROM t t1 JOIN t t2 ON t1.k = t2.k "
      "WHERE t1.v < 900 GROUP BY t1.k");
  PlanPtr optimized = ctx->Optimize(df.plan());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->PlanPhysical(optimized));
  }
  delete ctx;
  std::remove(StatsCsvPath());
}
BENCHMARK(BM_PlanWithEstimates)->Arg(0)->Arg(1);

// ---- system-table scan overhead --------------------------------------------

// One SELECT over system.queries while state.range(0) background query
// threads hammer the engine — the overhead a monitoring dashboard imposes
// on a busy engine, and vice versa.
void BM_SystemTableScan(benchmark::State& state) {
  const int background = static_cast<int>(state.range(0));
  SqlContext* ctx = MakeContext(kProfiled);

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int i = 0; i < background; ++i) {
    workers.emplace_back([ctx, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        ctx->Sql("SELECT k, sum(v) FROM t WHERE v < 900 GROUP BY k")
            .Collect();
      }
    });
  }

  size_t rows = 0;
  for (auto _ : state) {
    rows = ctx->Sql("SELECT status, count(*) FROM system.queries "
                    "GROUP BY status")
               .Collect()
               .size();
  }
  state.counters["status_groups"] = static_cast<double>(rows);

  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  delete ctx;
}
BENCHMARK(BM_SystemTableScan)
    ->Arg(0)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// ---- flight recorder -------------------------------------------------------

// Raw cost of one journal Emit: disabled (capacity 0 — one relaxed atomic
// load) vs enabled (fetch_add + slot copy under an uncontended shard
// mutex). This is the per-event price every task attempt / spill / query
// pays; both must stay in the nanoseconds.
void BM_JournalEmit(benchmark::State& state) {
  EventJournal journal(static_cast<size_t>(state.range(0)));
  int64_t v = 0;
  for (auto _ : state) {
    journal.Emit(EngineEventKind::kTaskStart, EventSeverity::kDebug, 1, v++,
                 "stage");
  }
  state.counters["appended"] = static_cast<double>(journal.appended());
}
BENCHMARK(BM_JournalEmit)->Arg(0)->Arg(4096);

// End-to-end query cost with the flight recorder off (0) vs on (4096, the
// default). The recorder emits per task attempt and per query — never per
// row — so the two must be within noise of each other; a gap means an
// emission landed on a per-row path.
void BM_QueryWithJournal(benchmark::State& state) {
  SqlContext* ctx = MakeContext(kProfiled);
  ctx->UpdateConfig([&](EngineConfig& c) {
    c.event_journal_capacity = static_cast<size_t>(state.range(0));
  });
  size_t rows = 0;
  for (auto _ : state) {
    rows = ctx->Sql("SELECT k, sum(v), count(*) FROM t WHERE v < 900 "
                    "GROUP BY k")
               .Collect()
               .size();
  }
  state.counters["result_rows"] = static_cast<double>(rows);
  delete ctx;
}
BENCHMARK(BM_QueryWithJournal)->Arg(0)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// SELECT over system.events (with a kind filter pushed down) while
// state.range(0) background query threads keep the journal churning — the
// cost of watching the flight recorder on a busy engine.
void BM_EventsScanUnderLoad(benchmark::State& state) {
  const int background = static_cast<int>(state.range(0));
  SqlContext* ctx = MakeContext(kProfiled);

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int i = 0; i < background; ++i) {
    workers.emplace_back([ctx, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        ctx->Sql("SELECT k, sum(v) FROM t WHERE v < 900 GROUP BY k")
            .Collect();
      }
    });
  }

  size_t rows = 0;
  for (auto _ : state) {
    rows = ctx->Sql("SELECT kind, count(*) FROM system.events "
                    "WHERE severity = 'DEBUG' GROUP BY kind")
               .Collect()
               .size();
  }
  state.counters["kind_groups"] = static_cast<double>(rows);

  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  delete ctx;
}
BENCHMARK(BM_EventsScanUnderLoad)
    ->Arg(0)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace ssql

BENCHMARK_MAIN();
