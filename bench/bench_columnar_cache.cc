// Ablation: in-memory columnar caching (Section 3.6). Reports the
// compressed columnar footprint vs the boxed-row footprint (the paper's
// "order of magnitude" claim), scan speed with column pruning, and the
// cache-vs-recompute speedup for a repeated query.

#include <benchmark/benchmark.h>

#include "bench/workloads.h"
#include "columnar/columnar_cache.h"
#include "datasources/chunk_reader.h"
#include "datasources/colf_format.h"

namespace ssql {
namespace bench {
namespace {

constexpr size_t kRows = 300000;

struct Fixture {
  SchemaPtr schema = StructType::Make({
      Field("id", DataType::Int64(), false),
      Field("category", DataType::String(), false),  // low cardinality
      Field("flag", DataType::Boolean(), false),     // RLE-friendly
      Field("score", DataType::Double(), false),
  });
  std::vector<Row> rows;
  std::shared_ptr<const CachedTable> table;
  std::string colf_path = "/tmp/ssql_bench_cache.colf";

  Fixture() {
    std::mt19937_64 rng(13);
    rows.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      rows.push_back(Row({Value(int64_t(i)),
                          Value("category-" + std::to_string(rng() % 8)),
                          Value(i % 1000 < 900),
                          Value(double(rng() % 10000) / 13.0)}));
    }
    table = CachedTable::Build(schema, RowDataset::FromRows(rows, 8));
    WriteColfFile(colf_path, schema, rows);
  }
};

Fixture& F() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_Cache_BuildColumnar(benchmark::State& state) {
  for (auto _ : state) {
    auto table =
        CachedTable::Build(F().schema, RowDataset::FromRows(F().rows, 8));
    benchmark::DoNotOptimize(table->MemoryBytes());
  }
  // The Section 3.6 memory comparison, reported as counters.
  state.counters["columnar_bytes"] =
      static_cast<double>(F().table->MemoryBytes());
  state.counters["boxed_row_bytes"] =
      static_cast<double>(F().table->EstimatedRowCacheBytes());
  state.counters["compression_x"] =
      static_cast<double>(F().table->EstimatedRowCacheBytes()) /
      static_cast<double>(F().table->MemoryBytes());
  state.SetLabel("encode 300k rows into compressed columns");
}
BENCHMARK(BM_Cache_BuildColumnar)->Unit(benchmark::kMillisecond)->Iterations(3);

/// Unfiltered scans of the cache through its data source (the path
/// queries take): one chunk-reader task per chunk, unpacked into rows.
void RunScan(benchmark::State& state, const std::vector<int>& columns) {
  ExecContext engine(SparkSqlConfig());
  CachedTableSource source(F().table, "bench");
  for (auto _ : state) {
    QueryContextPtr query = engine.BeginQuery();
    auto data =
        source.ScanBatches(*query, columns, {}, query->config().batch_size)
            .ToRowDataset(*query);
    benchmark::DoNotOptimize(data.TotalRows());
  }
}

void BM_Cache_ScanOneColumn(benchmark::State& state) {
  RunScan(state, {3});  // score only: pruned decode
  state.SetLabel("decode 1 of 4 columns from the cache");
}
BENCHMARK(BM_Cache_ScanOneColumn)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_Cache_ScanAllColumns(benchmark::State& state) {
  RunScan(state, {0, 1, 2, 3});
  state.SetLabel("decode all 4 columns from the cache");
}
BENCHMARK(BM_Cache_ScanAllColumns)->Unit(benchmark::kMillisecond)->Iterations(3);

void RunRepeatedQuery(benchmark::State& state, bool cached) {
  // The cache competes against recomputation from the on-disk source
  // (Section 3.6: caching serves interactive/iterative reuse).
  SqlContext ctx(SparkSqlConfig());
  DataFrame df = ctx.ReadColf(F().colf_path);
  df.RegisterTempTable("t");
  if (cached) df.Cache();
  for (auto _ : state) {
    auto rows = ctx.Sql(
                       "SELECT category, avg(score) FROM t "
                       "WHERE flag = TRUE GROUP BY category")
                    .Collect();
    benchmark::DoNotOptimize(rows.size());
  }
}

void BM_Cache_RepeatedQuery_Cached(benchmark::State& state) {
  RunRepeatedQuery(state, true);
  state.SetLabel("aggregate over the columnar cache");
}
BENCHMARK(BM_Cache_RepeatedQuery_Cached)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_Cache_RepeatedQuery_Uncached(benchmark::State& state) {
  RunRepeatedQuery(state, false);
  state.SetLabel("aggregate re-reading the colf file every time");
}
BENCHMARK(BM_Cache_RepeatedQuery_Uncached)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// Vectorized vs row execution over the same cached columns: the batched
// pipeline (native columnar scan → vector filter via selection view →
// lane-loop partial aggregate, no row ever boxed) against the identical
// query forced down the row-at-a-time path.
void RunVectorizedAB(benchmark::State& state, bool vectorized) {
  EngineConfig config = SparkSqlConfig();
  config.vectorized_enabled = vectorized;
  SqlContext ctx(config);
  DataFrame df = ctx.ReadColf(F().colf_path);
  df.RegisterTempTable("t");
  df.Cache();
  for (auto _ : state) {
    auto rows =
        ctx.Sql("SELECT sum(score), count(*) FROM t WHERE flag = TRUE")
            .Collect();
    benchmark::DoNotOptimize(rows.size());
  }
}

void BM_Cache_Query_Vectorized(benchmark::State& state) {
  RunVectorizedAB(state, true);
  state.SetLabel("batched scan→filter→aggregate over the cache");
}
BENCHMARK(BM_Cache_Query_Vectorized)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

void BM_Cache_Query_Rows(benchmark::State& state) {
  RunVectorizedAB(state, false);
  state.SetLabel("same query, row-at-a-time execution");
}
BENCHMARK(BM_Cache_Query_Rows)->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace
}  // namespace bench
}  // namespace ssql

BENCHMARK_MAIN();
