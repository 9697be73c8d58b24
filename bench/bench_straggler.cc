// Straggler defense: tail latency of a stage with one 10x-slow partition,
// with and without speculative execution. The workload models a slow
// *executor*, not skewed data: the straggler partition's first attempt
// crawls, while a re-run of the same partition (the speculative duplicate)
// proceeds at normal speed — exactly the scenario Spark's speculation
// targets. The readout is slowdown_vs_median: stage wall time over the
// median healthy task time. Without speculation the stage is hostage to the
// straggler (~8-10x median); with speculation armed the duplicate bounds it
// to roughly first-completions + one duplicate runtime (~2x median).
//
// A second benchmark measures the cost of arming speculation on a healthy
// stage (no straggler): the coordinator thread, per-attempt tokens and
// runtime bookkeeping must be noise when nothing is actually slow.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "engine/exec_context.h"
#include "engine/query_context.h"
#include "engine/task_runner.h"

namespace ssql {
namespace bench {
namespace {

constexpr size_t kPartitions = 4;
constexpr int64_t kStragglerFactor = 10;

/// Healthy runtime of partition p in milliseconds: 45/60/60/75 — a little
/// heterogeneity so the speculation coordinator sees a realistic duration
/// distribution (median 60 ms). The straggler is partition 0, the smallest:
/// a slow *node* hits whatever partition landed on it, and a sub-median
/// partition is the common case.
int64_t BaseMs(size_t p) {
  static constexpr int64_t kMs[kPartitions] = {45, 60, 60, 75};
  return kMs[p];
}

/// Compute-bound work for `target_ms`, polling cancellation cooperatively —
/// a cancelled (lost-race) attempt stops within one poll interval.
uint64_t SpinFor(QueryContext& ctx, int64_t target_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(target_ms);
  uint64_t acc = 0x9e3779b97f4a7c15ULL;
  size_t poll = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 4096; ++i) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    ctx.CheckCancelledEvery(&poll);
  }
  return acc;
}

/// state.range(0): 1 = speculation armed, 0 = off.
/// state.range(1): 1 = partition 0's first attempt runs 10x slow.
void RunStragglerStage(benchmark::State& state) {
  const bool speculate = state.range(0) == 1;
  const bool straggle = state.range(1) == 1;
  EngineConfig config;
  config.num_threads = static_cast<int>(kPartitions);  // one wave
  if (speculate) {
    // Eager profile: once half the stage has finished, duplicate anything
    // running past the observed median. On a healthy stage this may probe
    // an occasional duplicate of the largest partition (cancelled within a
    // poll interval when the primary commits); the wall time must not move.
    config.speculation_multiplier = 1.0;
    config.speculation_quantile = 0.5;
  }
  ExecContext engine(config);

  int64_t median_ms = BaseMs(kPartitions / 2);
  double wall_ms_total = 0;
  uint64_t sink = 0;
  for (auto _ : state) {
    QueryContextPtr query = engine.BeginQuery();
    QueryContext& ctx = *query;
    std::vector<std::atomic<int>> attempts(kPartitions);
    std::vector<std::atomic<uint64_t>> results(kPartitions);
    const auto start = std::chrono::steady_clock::now();
    TaskRunner(ctx).RunStageSpeculatable(
        "straggle", kPartitions, [&](size_t p) -> TaskRunner::TaskCommitFn {
          const int attempt = attempts[p].fetch_add(1);
          int64_t target = BaseMs(p);
          if (straggle && p == 0 && attempt == 0) target *= kStragglerFactor;
          const uint64_t acc = SpinFor(ctx, target);
          return [&results, p, acc] {
            results[p].store(acc, std::memory_order_relaxed);
          };
        });
    wall_ms_total +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    for (size_t p = 0; p < kPartitions; ++p) {
      sink ^= results[p].load(std::memory_order_relaxed);
    }
    query->Finish("ok");
  }
  benchmark::DoNotOptimize(sink);

  const double mean_wall = wall_ms_total / static_cast<double>(state.iterations());
  state.counters["stage_wall_ms"] = mean_wall;
  state.counters["median_task_ms"] = static_cast<double>(median_ms);
  state.counters["slowdown_vs_median"] =
      mean_wall / static_cast<double>(median_ms);
  state.counters["tasks_speculated"] = static_cast<double>(
      engine.registry().Counter("ssql_query_speculated_total").value());
  state.counters["speculation_wins"] = static_cast<double>(
      engine.registry().Counter("ssql_query_speculation_wins_total").value());
}

void BM_StragglerStage(benchmark::State& state) { RunStragglerStage(state); }

// {speculation, straggler}: the headline pair is {0,1} vs {1,1} — the tail
// latency of a straggling stage without/with defense. {0,0} vs {1,0} is the
// overhead pair: arming speculation on a healthy stage must cost nothing.
BENCHMARK(BM_StragglerStage)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace ssql

BENCHMARK_MAIN();
