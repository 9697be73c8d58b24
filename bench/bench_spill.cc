// Memory-bounded execution: cost of spilling vs the in-memory paths. Runs
// the same GROUP BY aggregation, ORDER BY sort and equi-join with an
// unlimited budget and with budgets small enough to force one or many
// spill/merge rounds, reporting the spilled byte volume per iteration.
// The interesting readout is the slope: external operators should degrade
// smoothly (a constant factor for disk + serde), not fall off a cliff.
//
// A second dimension measures the chaos machinery itself: "armed" runs the
// same workload with fault points configured but never firing (the pure
// per-call overhead of the injection checks on the hot spill path), and
// "faulted" injects retryable spill-write faults healed by task retry (the
// cost of the retry/backoff loop under a realistic transient-fault rate).
// The armed-vs-off delta is the number that must stay ~zero: resilience
// instrumentation may not tax the happy path.

#include <benchmark/benchmark.h>

#include <random>
#include <string>

#include "bench/workloads.h"

namespace ssql {
namespace bench {
namespace {

constexpr size_t kRows = 100000;
constexpr int kKeys = 5000;

/// Fault configuration dimension (state.range(1)).
enum FaultMode { kFaultsOff = 0, kFaultsArmed = 1, kFaultsFiring = 2 };

/// One context per budget so metrics and the spill scratch stay separate.
SqlContext* MakeContext(int64_t memory_limit, int fault_mode) {
  EngineConfig config = SparkSqlConfig();
  config.query_memory_limit_bytes = memory_limit;
  config.task_retry_backoff_ms = 1;
  switch (fault_mode) {
    case kFaultsArmed:
      // Checks run on every spill write/read but the trigger never fires
      // (first-hit window far beyond any real hit count): measures the
      // pure instrumentation overhead on the happy path.
      config.fault_injection_spec = "spill.write=n1000000000,seed=7";
      break;
    case kFaultsFiring:
      // ~1 in 100k spill writes throws a retryable fault; the failed task
      // re-runs with backoff, so the run measures retry amplification at a
      // rate the 3-attempt budget almost always heals (a faulted write that
      // lands outside a task boundary — e.g. the driver-side final merge —
      // still fails the query, and failed_iters reports it).
      config.fault_injection_spec = "spill.write=p0.00001:retryable,seed=7";
      break;
    default:
      break;
  }
  auto* ctx = new SqlContext(config);

  std::mt19937_64 rng(99);
  auto schema = StructType::Make({
      Field("k", DataType::String(), false),
      Field("v", DataType::Int32(), false),
  });
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back(Row({Value("key_" + std::to_string(rng() % kKeys)),
                        Value(static_cast<int32_t>(rng() % 1000))}));
  }
  ctx->CreateDataFrame(schema, std::move(rows)).RegisterTempTable("t");

  auto dim = StructType::Make({
      Field("k", DataType::String(), false),
      Field("w", DataType::Int32(), false),
  });
  std::vector<Row> dim_rows;
  dim_rows.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    dim_rows.push_back(
        Row({Value("key_" + std::to_string(i)), Value(int32_t(i))}));
  }
  ctx->CreateDataFrame(dim, std::move(dim_rows)).RegisterTempTable("dim");
  return ctx;
}

/// state.range(0): memory budget in KiB, 0 = unlimited.
/// state.range(1): FaultMode (off / armed-but-silent / firing).
void RunQuery(benchmark::State& state, const std::string& sql) {
  int64_t limit = state.range(0) == 0 ? -1 : state.range(0) * 1024;
  SqlContext* ctx = MakeContext(limit, static_cast<int>(state.range(1)));
  size_t result_rows = 0;
  int64_t failed_iters = 0;
  for (auto _ : state) {
    // Under kFaultsFiring a query can still die (all task attempts hit a
    // fault); count it rather than aborting the benchmark — the failure
    // rate is part of the readout.
    try {
      result_rows = ctx->Sql(sql).Collect().size();
    } catch (const SsqlError&) {
      ++failed_iters;
    }
  }
  state.counters["result_rows"] = static_cast<double>(result_rows);
  MetricsRegistry& registry = ctx->exec().registry();
  state.counters["spill_bytes_per_iter"] = benchmark::Counter(
      static_cast<double>(
          registry.Counter("ssql_query_spill_bytes_total").value()),
      benchmark::Counter::kAvgIterations);
  state.counters["faults_injected"] = static_cast<double>(
      registry.Counter("ssql_faults_injected_total").value());
  state.counters["task_retries"] = static_cast<double>(
      registry.Counter("ssql_query_retries_total").value());
  state.counters["failed_iters"] = static_cast<double>(failed_iters);
  delete ctx;
}

void BM_AggregateSpill(benchmark::State& state) {
  RunQuery(state, "SELECT k, sum(v), count(*) FROM t GROUP BY k");
}

void BM_SortSpill(benchmark::State& state) {
  RunQuery(state, "SELECT k, v FROM t ORDER BY v, k");
}

void BM_JoinSpill(benchmark::State& state) {
  RunQuery(state, "SELECT t.k, t.v, dim.w FROM t JOIN dim ON t.k = dim.k");
}

// Budget axis: 0 = unlimited (in-memory paths); 1024 KiB forces a handful
// of spills; 64 KiB forces many rounds through tiny spill files.
// Fault axis: off / armed-but-silent on every budget (the armed-vs-off
// delta is the happy-path tax), firing only on the spilling budgets (the
// in-memory path never reaches a spill fault point).
BENCHMARK(BM_AggregateSpill)
    ->Args({0, kFaultsOff})->Args({0, kFaultsArmed})
    ->Args({1024, kFaultsOff})->Args({1024, kFaultsArmed})
    ->Args({1024, kFaultsFiring})
    ->Args({64, kFaultsOff})->Args({64, kFaultsArmed})
    ->Args({64, kFaultsFiring})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SortSpill)
    ->Args({0, kFaultsOff})->Args({0, kFaultsArmed})
    ->Args({1024, kFaultsOff})->Args({1024, kFaultsArmed})
    ->Args({1024, kFaultsFiring})
    ->Args({64, kFaultsOff})->Args({64, kFaultsArmed})
    ->Args({64, kFaultsFiring})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinSpill)
    ->Args({0, kFaultsOff})->Args({0, kFaultsArmed})
    ->Args({1024, kFaultsOff})->Args({1024, kFaultsArmed})
    ->Args({1024, kFaultsFiring})
    ->Args({64, kFaultsOff})->Args({64, kFaultsArmed})
    ->Args({64, kFaultsFiring})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace ssql

BENCHMARK_MAIN();
