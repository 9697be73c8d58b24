// Per-layer primitive: what one input row costs the hash-aggregation group
// table (find-or-insert of its key plus the accumulator update), measured
// through the public SQL API as
//
//   SELECT <key>, count(*), sum(v) FROM t GROUP BY <key>
//
// over kRows in-memory rows on one partition and one worker thread, so the
// figure is the whole query's wall time divided by its input rows: the
// local scan and the one-partition exchange are included and identical
// across key shapes; the key shape and group count are what vary.
//
// Arguments: {key shape, distinct groups}. Key shapes: 0 = int64 column,
// 1 = 8-byte string column, 2 = (int32, 8-byte string) pair. Groups: 8,
// 10k and 50k. The ns_per_row counter is the reported figure.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <random>

#include "api/sql_context.h"

namespace ssql {
namespace {

constexpr size_t kRows = 200000;

const char* const kKeySql[] = {"g", "s", "h, s"};
const char* const kKeyName[] = {"int64", "string8", "int_string8"};

/// One table per group count: g (int64), h (int32), s (8-byte string) and
/// the summed value v; (h, s) and s are as distinct as g.
DataFrame& Table(SqlContext& ctx, int64_t groups) {
  static auto* tables = new std::map<int64_t, DataFrame>();
  auto it = tables->find(groups);
  if (it != tables->end()) return it->second;
  auto schema = StructType::Make({
      Field("g", DataType::Int64(), false),
      Field("h", DataType::Int32(), false),
      Field("s", DataType::String(), false),
      Field("v", DataType::Int64(), false),
  });
  std::mt19937_64 rng(17);
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    // Every group appears at least once, so the result size is exact.
    auto g = static_cast<int64_t>(i) < groups
                 ? static_cast<int64_t>(i)
                 : static_cast<int64_t>(rng() % static_cast<uint64_t>(groups));
    char s[9];
    std::snprintf(s, sizeof(s), "%08lld", static_cast<long long>(g));
    rows.push_back(Row({Value(g), Value(static_cast<int32_t>(g % 1000)),
                        Value(std::string(s)), Value(int64_t{1})}));
  }
  return tables->emplace(groups, ctx.CreateDataFrame(schema, std::move(rows)))
      .first->second;
}

SqlContext& Ctx() {
  static SqlContext* ctx = [] {
    EngineConfig config;
    config.num_threads = 1;
    config.default_parallelism = 1;
    return new SqlContext(config);
  }();
  return *ctx;
}

void BM_GroupTable(benchmark::State& state) {
  const auto shape = static_cast<size_t>(state.range(0));
  const int64_t groups = state.range(1);
  SqlContext& ctx = Ctx();
  Table(ctx, groups).RegisterTempTable("t");
  const std::string key = kKeySql[shape];
  const std::string sql =
      "SELECT " + key + ", count(*), sum(v) FROM t GROUP BY " + key;
  double ns = 0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    std::vector<Row> out = ctx.Sql(sql).Collect();
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
    if (out.size() != static_cast<size_t>(groups)) {
      state.SkipWithError("wrong group count");
      break;
    }
  }
  state.counters["ns_per_row"] =
      ns / static_cast<double>(state.iterations() * kRows);
  state.SetLabel(std::string(kKeyName[shape]) + " keys, " +
                 std::to_string(groups) + " groups");
}
BENCHMARK(BM_GroupTable)
    ->ArgsProduct({{0, 1, 2}, {8, 10000, 50000}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(0.3);

}  // namespace
}  // namespace ssql

BENCHMARK_MAIN();
