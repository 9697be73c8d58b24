// Mini-Spark engine tests: partitioned datasets, shuffles, the thread
// pool, and the typed RDD facade (lazy narrow chains, reduceByKey, cache).

#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "engine/dataset.h"
#include "engine/exec_context.h"
#include "engine/query_context.h"
#include "engine/rdd.h"
#include "util/thread_pool.h"

namespace ssql {
namespace {

EngineConfig TestConfig() {
  EngineConfig config;
  config.num_threads = 3;
  config.default_parallelism = 4;
  return config;
}

TEST(ThreadPoolTest, RunAllExecutesEverythingOnce) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ExceptionsPropagate) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] {});
  tasks.push_back([] { throw std::runtime_error("boom"); });
  tasks.push_back([] {});
  EXPECT_THROW(pool.RunAll(std::move(tasks)), std::runtime_error);
}

TEST(RowDatasetTest, FromRowsBalancesPartitions) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(Row({Value(int32_t(i))}));
  RowDataset d = RowDataset::FromRows(rows, 3);
  EXPECT_EQ(d.num_partitions(), 3u);
  EXPECT_EQ(d.TotalRows(), 10u);
  // 10 = 4 + 3 + 3.
  EXPECT_EQ(d.partition(0)->rows.size(), 4u);
  EXPECT_EQ(d.partition(1)->rows.size(), 3u);
  // Order preserved across partitions.
  auto collected = d.Collect();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(collected[i].GetInt32(0), i);
}

TEST(RowDatasetTest, MapPartitionsRunsInParallel) {
  ExecContext ctx(TestConfig());
  QueryContextPtr query = ctx.BeginQuery();
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(Row({Value(int32_t(i))}));
  RowDataset d = RowDataset::FromRows(rows, 4);
  RowDataset doubled =
      d.MapPartitions(*query, [](size_t, const RowPartition& p) {
    auto out = std::make_shared<RowPartition>();
    for (const Row& r : p.rows) {
      out->rows.push_back(Row({Value(int32_t(r.GetInt32(0) * 2))}));
    }
    return out;
  });
  auto collected = doubled.Collect();
  ASSERT_EQ(collected.size(), 100u);
  EXPECT_EQ(collected[7].GetInt32(0), 14);
}

TEST(RowDatasetTest, ShuffleColocatesEqualKeys) {
  ExecContext ctx(TestConfig());
  QueryContextPtr query = ctx.BeginQuery();
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back(Row({Value(int32_t(i % 13)), Value(int32_t(i))}));
  }
  RowDataset d = RowDataset::FromRows(rows, 5);
  RowDataset shuffled = d.ShuffleByHash(
      *query, 4, [](const Row& r) { return r.Get(0).Hash(); });
  EXPECT_EQ(shuffled.num_partitions(), 4u);
  EXPECT_EQ(shuffled.TotalRows(), 1000u);
  // Each key appears in exactly one partition.
  std::map<int32_t, std::set<size_t>> locations;
  for (size_t p = 0; p < shuffled.num_partitions(); ++p) {
    for (const Row& r : shuffled.partition(p)->rows) {
      locations[r.GetInt32(0)].insert(p);
    }
  }
  EXPECT_EQ(locations.size(), 13u);
  for (const auto& [key, parts] : locations) {
    EXPECT_EQ(parts.size(), 1u) << "key " << key << " spread over partitions";
  }
  // Counters accumulate in the query's profile and fold into the engine
  // registry once, when the query finishes.
  CounterMetric& shuffled_total =
      ctx.registry().Counter("ssql_query_shuffle_rows_total");
  EXPECT_EQ(query->profile().Total(ProfileCounter::kShuffleRows), 1000);
  EXPECT_EQ(shuffled_total.value(), 0);
  query->Finish("ok");
  EXPECT_EQ(shuffled_total.value(), 1000);
}

TEST(RddTest, MapFilterPipelineIsLazy) {
  ExecContext ctx(TestConfig());
  std::atomic<int> evaluations{0};
  std::vector<int> data;
  for (int i = 0; i < 100; ++i) data.push_back(i);
  auto rdd = RDD<int>::Parallelize(ctx, data, 4);
  auto mapped = rdd->Map([&evaluations](const int& x) {
    evaluations.fetch_add(1);
    return x * 2;
  });
  // Nothing ran yet: transformations are lazy (Section 2.1).
  EXPECT_EQ(evaluations.load(), 0);
  auto filtered = mapped->Filter([](const int& x) { return x % 4 == 0; });
  EXPECT_EQ(evaluations.load(), 0);
  EXPECT_EQ(filtered->Count(), 50u);
  EXPECT_EQ(evaluations.load(), 100);  // one pass, pipelined
}

TEST(RddTest, CollectPreservesOrder) {
  ExecContext ctx(TestConfig());
  std::vector<int> data = {5, 4, 3, 2, 1};
  auto rdd = RDD<int>::Parallelize(ctx, data, 2);
  EXPECT_EQ(rdd->Collect(), data);
}

TEST(RddTest, FlatMapExpands) {
  ExecContext ctx(TestConfig());
  auto rdd = RDD<std::string>::Parallelize(ctx, {"a b", "c d e"}, 2);
  auto words = rdd->FlatMap([](const std::string& line) {
    return SplitWhitespace(line);
  });
  EXPECT_EQ(words->Count(), 5u);
}

TEST(RddTest, ReduceByKeyAggregates) {
  ExecContext ctx(TestConfig());
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 1000; ++i) pairs.emplace_back(i % 10, 1);
  auto rdd = RDD<std::pair<int, int>>::Parallelize(ctx, pairs, 4);
  auto reduced = ReduceByKey<int, int>(
      rdd, [](const int& a, const int& b) { return a + b; });
  auto result = reduced->Collect();
  ASSERT_EQ(result.size(), 10u);
  for (const auto& [k, v] : result) {
    EXPECT_EQ(v, 100) << "key " << k;
  }
}

TEST(RddTest, ReduceByKeyThenMapStaysLazyAcrossStages) {
  ExecContext ctx(TestConfig());
  std::vector<std::pair<int, int>> pairs = {{1, 2}, {1, 3}, {2, 10}};
  auto rdd = RDD<std::pair<int, int>>::Parallelize(ctx, pairs, 2);
  auto reduced = ReduceByKey<int, int>(
      rdd, [](const int& a, const int& b) { return a + b; });
  auto values = reduced->Map([](const std::pair<int, int>& kv) {
    return kv.second;
  });
  auto result = values->Collect();
  std::sort(result.begin(), result.end());
  EXPECT_EQ(result, (std::vector<int>{5, 10}));
}

TEST(RddTest, CacheComputesOnce) {
  ExecContext ctx(TestConfig());
  std::atomic<int> evaluations{0};
  std::vector<int> data(50, 1);
  auto rdd = RDD<int>::Parallelize(ctx, data, 2);
  auto expensive = rdd->Map([&evaluations](const int& x) {
    evaluations.fetch_add(1);
    return x + 1;
  });
  expensive->Cache();
  EXPECT_EQ(expensive->Count(), 50u);
  int after_first = evaluations.load();
  EXPECT_EQ(expensive->Count(), 50u);
  EXPECT_EQ(expensive->Collect().size(), 50u);
  EXPECT_EQ(evaluations.load(), after_first);  // no recomputation
}

}  // namespace
}  // namespace ssql
