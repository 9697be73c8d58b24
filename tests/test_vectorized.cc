// Vectorized execution tests: the planner's row/batch boundary stamp in
// EXPLAIN, batched-vs-row result equivalence on the targeted pipeline
// shapes (partial-aggregate fast path and its generic fallback, the
// batched join probe), batch-size edge cases including batch_size=1, and
// config knob validation.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <random>

#include "api/sql_context.h"
#include "datasources/colf_format.h"
#include "engine/exec_context.h"

namespace ssql {
namespace {

EngineConfig BaseConfig(bool vectorized, size_t batch_size = 1024) {
  EngineConfig config;
  config.num_threads = 2;
  config.default_parallelism = 3;
  config.vectorized_enabled = vectorized;
  config.batch_size = batch_size;
  return config;
}

std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(r.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

/// Registers a mixed-type table (with nulls in every nullable column) and
/// caches it, so queries plan over a natively-columnar Scan of the cached
/// table — the source shape that engages the batched pipeline.
void SetupCachedTable(SqlContext& ctx, const std::string& name, size_t rows,
                      uint64_t seed = 11) {
  auto schema = StructType::Make({
      Field("k", DataType::Int32(), true),
      Field("v", DataType::Int64(), true),
      Field("d", DataType::Double(), true),
      Field("s", DataType::String(), false),
  });
  std::mt19937_64 rng(seed);
  std::vector<Row> data;
  data.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    Value k = rng() % 7 == 0 ? Value::Null()
                             : Value(static_cast<int32_t>(rng() % 10));
    Value v = rng() % 11 == 0 ? Value::Null()
                              : Value(static_cast<int64_t>(rng() % 1000));
    Value d = rng() % 13 == 0
                  ? Value::Null()
                  : Value(static_cast<double>(rng() % 10000) / 16.0);
    data.push_back(Row({k, v, d, Value("s" + std::to_string(rng() % 5))}));
  }
  DataFrame df = ctx.CreateDataFrame(schema, data);
  df.RegisterTempTable(name);
  df.Cache();
}

/// Runs `sql` in a vectorized and a row-path context over the same cached
/// table and expects identical (bit-for-bit, order-insensitive) results.
void ExpectBatchedMatchesRows(const std::string& sql, size_t rows,
                              size_t batch_size) {
  SqlContext batched(BaseConfig(true, batch_size));
  SqlContext row_path(BaseConfig(false));
  SetupCachedTable(batched, "t", rows);
  SetupCachedTable(row_path, "t", rows);
  auto a = Canonical(batched.Sql(sql).Collect());
  auto b = Canonical(row_path.Sql(sql).Collect());
  EXPECT_EQ(a, b) << sql << " (rows=" << rows
                  << ", batch_size=" << batch_size << ")";
}

TEST(VectorizedPlanTest, ExplainStampsBatchedPipelineOverCache) {
  SqlContext ctx(BaseConfig(true));
  SetupCachedTable(ctx, "t", 100);
  std::string plan =
      ctx.Sql("SELECT sum(v), count(*) FROM t WHERE k > 2").Explain(true);
  // The whole map-side pipeline runs batched: columnar scan, filter, and
  // the partial aggregate; the final aggregate sits above the shuffle and
  // stays row-based.
  for (const char* op : {"Scan cache:", "HashAggregate(Partial)"}) {
    bool stamped = false;
    size_t pos = plan.find(op);
    while (pos != std::string::npos) {
      size_t eol = plan.find('\n', pos);
      if (plan.substr(pos, eol - pos).find("[batched]") !=
          std::string::npos) {
        stamped = true;
      }
      pos = plan.find(op, pos + 1);
    }
    EXPECT_TRUE(stamped) << op << " not stamped [batched] in:\n" << plan;
  }
  size_t fin = plan.find("HashAggregate(Final)");
  ASSERT_NE(fin, std::string::npos) << plan;
  size_t fin_eol = plan.find('\n', fin);
  EXPECT_EQ(plan.substr(fin, fin_eol - fin).find("[batched]"),
            std::string::npos)
      << plan;
}

TEST(VectorizedPlanTest, RowSourcesStayOnRowPath) {
  // Over a row-native source (uncached local relation) the pack at the
  // scan boundary costs more than the vector kernels save, so nothing in
  // the plan runs batched.
  SqlContext ctx(BaseConfig(true));
  auto schema = StructType::Make({Field("a", DataType::Int32(), false)});
  std::vector<Row> rows = {Row({Value(int32_t{1})}), Row({Value(int32_t{2})})};
  ctx.CreateDataFrame(schema, rows).RegisterTempTable("t");
  std::string plan = ctx.Sql("SELECT sum(a) FROM t WHERE a > 0").Explain(true);
  EXPECT_EQ(plan.find("[batched]"), std::string::npos) << plan;
}

TEST(VectorizedPlanTest, DisablingVectorizationClearsStamps) {
  SqlContext ctx(BaseConfig(false));
  SetupCachedTable(ctx, "t", 50);
  std::string plan =
      ctx.Sql("SELECT sum(v) FROM t WHERE k > 2").Explain(true);
  EXPECT_EQ(plan.find("[batched]"), std::string::npos) << plan;
}

TEST(VectorizedPlanTest, ColfScansProduceBatchesCountStarIncluded) {
  // colf is a BatchedScan source like the cache. A COUNT(*) scan needs no
  // column, and it reads column-less batches too.
  const std::string path = ::testing::TempDir() + "/vec-" +
                           std::to_string(::getpid()) + ".colf";
  auto schema = StructType::Make({Field("k", DataType::Int32(), true),
                                  Field("v", DataType::Int64(), true)});
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(Row({i % 7 == 0 ? Value::Null() : Value(int32_t(i % 10)),
                        Value(int64_t(i))}));
  }
  WriteColfFile(path, schema, rows, /*row_group_size=*/64);
  for (const char* sql : {"SELECT k, sum(v) FROM c WHERE k > 2 GROUP BY k",
                          "SELECT count(*) FROM c"}) {
    SqlContext batched(BaseConfig(true, 16));
    SqlContext row_path(BaseConfig(false));
    batched.ReadColf(path).RegisterTempTable("c");
    row_path.ReadColf(path).RegisterTempTable("c");
    const std::string plan = batched.Sql(sql).Explain(true);
    for (const char* op : {"Scan colf:", "HashAggregate(Partial)"}) {
      const size_t pos = plan.find(op);
      ASSERT_NE(pos, std::string::npos) << plan;
      EXPECT_NE(plan.substr(pos, plan.find('\n', pos) - pos).find("[batched]"),
                std::string::npos)
          << op << " not stamped [batched] in:\n" << plan;
    }
    EXPECT_EQ(row_path.Sql(sql).Explain(true).find("[batched]"),
              std::string::npos);
    EXPECT_EQ(Canonical(batched.Sql(sql).Collect()),
              Canonical(row_path.Sql(sql).Collect()))
        << sql;
  }
  std::remove(path.c_str());
}

TEST(VectorizedExecTest, FastPathGlobalAggregate) {
  // sum/count/avg/min/max over numeric lanes, no grouping: the batched
  // partial fast path (typed accumulators fed by lane loops).
  ExpectBatchedMatchesRows(
      "SELECT sum(v), count(*), count(d), avg(d), min(v), max(d) FROM t "
      "WHERE k >= 3",
      500, 64);
}

TEST(VectorizedExecTest, FastPathGroupedByIntKey) {
  ExpectBatchedMatchesRows(
      "SELECT k, sum(v), count(*), avg(d) FROM t GROUP BY k", 500, 64);
}

TEST(VectorizedExecTest, GenericFallbackGroupedByStringKey) {
  // String grouping key: the batched generic fallback (boxed fold over
  // live rows) must agree with the row path too.
  ExpectBatchedMatchesRows(
      "SELECT s, count(*), sum(v), avg(d) FROM t GROUP BY s", 500, 64);
}

TEST(VectorizedExecTest, CountDistinctSurvivesAccumulatorTransport) {
  // COUNT(DISTINCT) carries a set-valued accumulator between the stages;
  // the partial stage's output columns must transport it verbatim.
  ExpectBatchedMatchesRows("SELECT k, count(DISTINCT s) FROM t GROUP BY k",
                           300, 64);
}

TEST(VectorizedExecTest, ProjectionExpressionsOverBatches) {
  ExpectBatchedMatchesRows(
      "SELECT k + 1, v * 2, d / 4.0, s FROM t WHERE v % 3 = 0 AND d > 10.0",
      500, 64);
}

TEST(VectorizedExecTest, BatchedJoinProbe) {
  // Broadcast join with the cached (natively columnar) table streaming as
  // the probe side; keys evaluate as whole columns, matches box lazily.
  for (const char* sql :
       {"SELECT t.k, t.v, dim.label FROM t JOIN dim ON t.k = dim.id",
        "SELECT t.k FROM t LEFT JOIN dim ON t.k = dim.id",
        "SELECT t.k, t.s FROM t LEFT SEMI JOIN dim ON t.k = dim.id"}) {
    SqlContext batched(BaseConfig(true, 64));
    SqlContext row_path(BaseConfig(false));
    for (SqlContext* ctx : {&batched, &row_path}) {
      SetupCachedTable(*ctx, "t", 400);
      auto dim_schema = StructType::Make({
          Field("id", DataType::Int32(), false),
          Field("label", DataType::String(), false),
      });
      std::vector<Row> dim_rows;
      for (int i = 0; i < 6; ++i) {
        dim_rows.push_back(
            Row({Value(int32_t(i)), Value("L" + std::to_string(i))}));
      }
      ctx->CreateDataFrame(dim_schema, dim_rows).RegisterTempTable("dim");
    }
    auto a = Canonical(batched.Sql(sql).Collect());
    auto b = Canonical(row_path.Sql(sql).Collect());
    EXPECT_EQ(a, b) << sql;
  }
}

/// Runs `sql` with profiling and checks the row/batch boundary from the
/// stage spans: no stage packs rows into batches, and the operator named
/// `consumer` ran and read batches without having its own output unpacked
/// (a batch.unpack stage's nearest operator is the producer it unpacks).
void ExpectConsumerReadsBatchesInPlace(SqlContext& ctx, const std::string& sql,
                                       const std::string& consumer) {
  ctx.Sql(sql).Collect();
  const QueryProfile& profile = ctx.last_profile();
  bool consumer_ran = false;
  std::function<void(const ProfileSpan*)> walk = [&](const ProfileSpan* s) {
    if (s->kind == SpanKind::kOperator && s->name == consumer) {
      consumer_ran = true;
    }
    if (s->kind == SpanKind::kStage) {
      EXPECT_NE(s->name, "batch.pack") << sql;
      if (s->name == "batch.unpack") {
        const ProfileSpan* op = s->parent;
        while (op != nullptr && op->kind != SpanKind::kOperator) {
          op = op->parent;
        }
        ASSERT_NE(op, nullptr) << sql;
        EXPECT_NE(op->name, "HashAggregate(Partial)") << sql;
        EXPECT_NE(op->name, "BroadcastHashJoin") << sql;
      }
    }
    for (const ProfileSpan* child : s->children) walk(child);
  };
  walk(profile.root());
  EXPECT_TRUE(consumer_ran) << consumer << " did not run for " << sql;
}

TEST(BatchBoundaryTest, ConsumersOfCachedScansReturnRowsWithoutRepacking) {
  SqlContext ctx(BaseConfig(true, 64));
  SetupCachedTable(ctx, "t", 400);
  auto dim_schema = StructType::Make({Field("id", DataType::Int32(), false)});
  std::vector<Row> dim_rows;
  for (int i = 0; i < 6; ++i) dim_rows.push_back(Row({Value(int32_t(i))}));
  ctx.CreateDataFrame(dim_schema, dim_rows).RegisterTempTable("dim");

  ExpectConsumerReadsBatchesInPlace(
      ctx, "SELECT k, sum(v), count(*) FROM t WHERE d > 10.0 GROUP BY k",
      "HashAggregate(Partial)");
  const std::string join = "SELECT t.k, t.v FROM t JOIN dim ON t.k = dim.id";
  ASSERT_NE(ctx.Sql(join).Explain(true).find("BroadcastHashJoin"),
            std::string::npos);
  ExpectConsumerReadsBatchesInPlace(ctx, join, "BroadcastHashJoin");
}

TEST(VectorizedExecTest, BatchSizeOneDegeneratesCorrectly) {
  ExpectBatchedMatchesRows(
      "SELECT k, sum(v), count(*) FROM t WHERE d > 100.0 GROUP BY k", 200, 1);
}

TEST(VectorizedExecTest, MaximumBatchSizeAccepted) {
  ExpectBatchedMatchesRows("SELECT sum(v) FROM t", 100, 65536);
}

TEST(VectorizedConfigTest, KnobsAreValidated) {
  EngineConfig config;
  config.batch_size = 0;
  EXPECT_THROW(ValidateEngineConfig(config), ExecutionError);
  config = EngineConfig();
  config.batch_size = 65537;
  EXPECT_THROW(ValidateEngineConfig(config), ExecutionError);
  config = EngineConfig();
  config.batch_size = 1;
  EXPECT_NO_THROW(ValidateEngineConfig(config));
  config.batch_size = 65536;
  EXPECT_NO_THROW(ValidateEngineConfig(config));
}

}  // namespace
}  // namespace ssql
