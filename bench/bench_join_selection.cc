// Ablation: cost-based join selection (Section 4.3.3). Runs the same
// equi-join with each physical algorithm across build-side sizes, showing
// where broadcast wins (small build side: no shuffle of the big side) and
// that the planner's threshold-based choice tracks the best algorithm.

#include <benchmark/benchmark.h>

#include "bench/workloads.h"
#include "catalyst/expr/predicates.h"
#include "exec/join_exec.h"
#include "exec/scan_exec.h"

namespace ssql {
namespace bench {
namespace {

constexpr size_t kStreamRows = 200000;

struct Fixture {
  ExecContext engine{SparkSqlConfig()};
  QueryContextPtr query = engine.BeginQuery();
  AttributeVector left_attrs = {
      AttributeReference::Make("lk", DataType::Int32(), false),
      AttributeReference::Make("lv", DataType::Int32(), false)};
  AttributeVector right_attrs = {
      AttributeReference::Make("rk", DataType::Int32(), false),
      AttributeReference::Make("rv", DataType::Int32(), false)};
  std::shared_ptr<const LocalRows> stream;

  Fixture() {
    std::mt19937_64 rng(17);
    std::vector<Row> rows;
    rows.reserve(kStreamRows);
    for (size_t i = 0; i < kStreamRows; ++i) {
      rows.push_back(Row({Value(int32_t(rng() % 100000)),
                          Value(int32_t(i))}));
    }
    stream = std::make_shared<const LocalRows>(std::move(rows));
  }

  std::shared_ptr<const LocalRows> BuildSide(size_t n) {
    std::vector<Row> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(Row({Value(int32_t(i % 100000)), Value(int32_t(i * 7))}));
    }
    return std::make_shared<const LocalRows>(std::move(rows));
  }
};

Fixture& F() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

enum class Algo { kBroadcast, kShuffleHash, kNestedLoop };

void RunJoin(benchmark::State& state, Algo algo) {
  size_t build_rows = static_cast<size_t>(state.range(0));
  auto& f = F();
  auto left = std::make_shared<LocalTableScanExec>(f.left_attrs, f.stream);
  auto right = std::make_shared<LocalTableScanExec>(f.right_attrs,
                                                    f.BuildSide(build_rows));
  ExprVector lk = {f.left_attrs[0]};
  ExprVector rk = {f.right_attrs[0]};

  PhysPtr join;
  switch (algo) {
    case Algo::kBroadcast:
      join = std::make_shared<BroadcastHashJoinExec>(
          left, right, lk, rk, JoinType::kInner, nullptr);
      break;
    case Algo::kShuffleHash:
      join = std::make_shared<ShuffleHashJoinExec>(left, right, lk, rk,
                                                   JoinType::kInner, nullptr);
      break;
    case Algo::kNestedLoop:
      join = std::make_shared<NestedLoopJoinExec>(
          left, right, JoinType::kInner,
          EqualTo::Make(f.left_attrs[0], f.right_attrs[0]));
      break;
  }
  size_t result = 0;
  for (auto _ : state) {
    result = join->Execute(*f.query).TotalRows();
    benchmark::DoNotOptimize(result);
  }
  state.counters["build_rows"] = static_cast<double>(build_rows);
  state.counters["result_rows"] = static_cast<double>(result);
}

void BM_Join_Broadcast(benchmark::State& state) {
  RunJoin(state, Algo::kBroadcast);
}
void BM_Join_ShuffleHash(benchmark::State& state) {
  RunJoin(state, Algo::kShuffleHash);
}
void BM_Join_NestedLoop(benchmark::State& state) {
  RunJoin(state, Algo::kNestedLoop);
}

// Build-side sizes sweep: 1k (broadcastable) to 200k.
BENCHMARK(BM_Join_Broadcast)
    ->Arg(1000)
    ->Arg(20000)
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);
BENCHMARK(BM_Join_ShuffleHash)
    ->Arg(1000)
    ->Arg(20000)
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);
// Nested loop only at the small size — it is O(n*m).
BENCHMARK(BM_Join_NestedLoop)->Arg(1000)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace bench
}  // namespace ssql

BENCHMARK_MAIN();
