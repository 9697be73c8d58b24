// Memory-bounded execution tests: MemoryManager reservation accounting,
// SpillFile round-trip + RAII cleanup, external hash aggregation / external
// sort / Grace hash join under a small query budget (verified against the
// unlimited paths), fail-fast when spilling is disabled, the planner's
// broadcast-threshold cap, spill x fault-injection interaction, and
// EngineConfig validation.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <random>

#include "api/sql_context.h"
#include "engine/exec_context.h"
#include "engine/memory_manager.h"
#include "exec/join_exec.h"
#include "exec/scan_exec.h"
#include "util/spill_file.h"

namespace ssql {
namespace {

size_t FilesIn(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::exists(dir)) return 0;
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

std::string UniqueScratchDir(const std::string& tag) {
  return ::testing::TempDir() + "/ssql-mem-" + tag + "-" +
         std::to_string(::getpid());
}

std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(r.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

// ---- MemoryManager units ---------------------------------------------------

TEST(MemoryManagerTest, ReservationAccounting) {
  QueryProfile profile;
  MemoryManager mgr;
  mgr.Configure(1000, /*spill_enabled=*/true, &profile);
  EXPECT_EQ(mgr.limit_bytes(), 1000);

  MemoryReservation a = mgr.CreateReservation();
  EXPECT_TRUE(a.TryGrow(600));
  EXPECT_EQ(mgr.reserved_bytes(), 600);
  // Over budget together with `a`.
  MemoryReservation b = mgr.CreateReservation();
  EXPECT_FALSE(b.TryGrow(500));
  EXPECT_TRUE(b.TryGrow(400));
  EXPECT_EQ(mgr.reserved_bytes(), 1000);

  // EnsureReserved grows to the target, not by the target.
  a.Release();
  EXPECT_EQ(mgr.reserved_bytes(), 400);
  EXPECT_TRUE(b.EnsureReserved(450));
  EXPECT_EQ(b.reserved(), 450);
  EXPECT_TRUE(b.EnsureReserved(100));  // already satisfied: no-op
  EXPECT_EQ(b.reserved(), 450);

  // ForceGrow may overshoot the budget (irreducible working sets).
  b.ForceGrow(5000);
  EXPECT_EQ(mgr.reserved_bytes(), 5450);
  b.Release();
  EXPECT_EQ(mgr.reserved_bytes(), 0);
  EXPECT_GE(profile.Total(ProfileCounter::kPeakReservedBytes), 5450);
}

TEST(MemoryManagerTest, ChunkedGrowthFallsBackToExactDeficit) {
  QueryProfile profile;
  MemoryManager mgr;
  // Budget below one chunk: EnsureReserved must fall back to the exact
  // deficit instead of denying everything.
  mgr.Configure(kMemoryReserveChunkBytes / 2, true, &profile);
  MemoryReservation r = mgr.CreateReservation();
  EXPECT_TRUE(r.EnsureReserved(100));
  EXPECT_EQ(r.reserved(), 100);
}

TEST(MemoryManagerTest, UnlimitedGrantsEverything) {
  QueryProfile profile;
  MemoryManager mgr;
  mgr.Configure(-1, true, &profile);
  MemoryReservation r = mgr.CreateReservation();
  EXPECT_TRUE(r.TryGrow(int64_t{1} << 50));
}

TEST(MemoryManagerTest, LimitedWhenAnyAncestorPoolIsLimited) {
  // A query without a budget of its own is still limited by the engine
  // pool: every grant is carved from the pool too.
  MemoryManager pool;
  pool.Configure(256 * 1024, true, nullptr);
  MemoryManager query;
  query.Configure(-1, true, nullptr, &pool);
  MemoryReservation r = query.CreateReservation();
  EXPECT_FALSE(r.TryGrow(512 * 1024));
  EXPECT_TRUE(r.TryGrow(256 * 1024));
  EXPECT_EQ(pool.reserved_bytes(), 256 * 1024);
  r.Release();
  pool.Configure(-1, true, nullptr);
  EXPECT_TRUE(r.TryGrow(512 * 1024));
}

TEST(MemoryManagerTest, ReservationReleasesOnDestruction) {
  QueryProfile profile;
  MemoryManager mgr;
  mgr.Configure(1000, true, &profile);
  {
    MemoryReservation r = mgr.CreateReservation();
    EXPECT_TRUE(r.TryGrow(800));
  }
  EXPECT_EQ(mgr.reserved_bytes(), 0);
}

// ---- SpillFile -------------------------------------------------------------

TEST(SpillFileTest, RoundTripsEveryValueKindAndDeletesOnDestruction) {
  std::string dir = UniqueScratchDir("roundtrip");
  std::string path;
  std::vector<Row> rows = {
      Row({Value::Null(), Value(true), Value(int32_t{-7})}),
      Row({Value(int64_t{1} << 40), Value(3.25), Value("hello world")}),
      Row({Value(Decimal(12345, 10, 2)), Value(DateValue{19000}),
           Value(TimestampValue{1234567890123456})}),
      Row({Value::Array({Value(int32_t{1}), Value("x"), Value::Null()}),
           Value::Struct({Value(2.5), Value(int64_t{9})}),
           Value::Map({{Value("k"), Value(int32_t{1})}})}),
      Row({Value("")}),  // rows may differ in width
  };
  {
    SpillFile file(dir, "test");
    path = file.path();
    for (const Row& r : rows) EXPECT_GT(file.Append(r), 0);
    file.FinishWrites();
    EXPECT_EQ(file.row_count(), rows.size());
    EXPECT_TRUE(std::filesystem::exists(path));

    SpillFile::Reader reader(file);
    Row row;
    for (const Row& expected : rows) {
      ASSERT_TRUE(reader.Next(&row));
      EXPECT_EQ(row.ToString(), expected.ToString());
    }
    EXPECT_FALSE(reader.Next(&row));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(SpillFileTest, MoveTransfersFileOwnership) {
  std::string dir = UniqueScratchDir("move");
  std::string path;
  {
    std::vector<SpillFile> files;
    {
      SpillFile f(dir, "mv");
      path = f.path();
      f.Append(Row({Value(int32_t{1})}));
      files.push_back(std::move(f));
    }  // moved-from original must NOT delete the file
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(SpillFileTest, EstimatesAreConservative) {
  // The charge for a row should never be below its serialized size class.
  Row r({Value(int32_t{1}), Value(std::string(100, 'x'))});
  EXPECT_GE(EstimateRowBytes(r), 100);
  EXPECT_GE(EstimateValueBytes(Value::Null()), 1);
}

TEST(MixHashTest, DecorrelatesShuffleResidues) {
  // All inputs share hash % 8 == 3 (one shuffle partition's keys); the
  // mixed hash must still scatter them across a fanout of 16.
  std::vector<int> bucket_hits(16, 0);
  for (uint64_t i = 0; i < 256; ++i) {
    uint64_t h = i * 8 + 3;
    bucket_hits[MixHash64(h) % 16]++;
  }
  int used = 0;
  for (int hits : bucket_hits) used += hits > 0 ? 1 : 0;
  EXPECT_GE(used, 12) << "mixed hash collapsed into too few buckets";
}

// ---- out-of-core operators (end to end) ------------------------------------

class SpillQueryTest : public ::testing::Test {
 protected:
  SpillQueryTest() {
    scratch_ = UniqueScratchDir("query");
    std::filesystem::remove_all(scratch_);
    ctx_.UpdateConfig([&](EngineConfig& c) { c.spill_dir = scratch_; });
    ctx_.UpdateConfig([&](EngineConfig& c) { c.num_threads = 4; });
    ctx_.UpdateConfig([&](EngineConfig& c) { c.default_parallelism = 4; });

    std::mt19937_64 rng(42);
    auto schema = StructType::Make({
        Field("k", DataType::String(), false),
        Field("v", DataType::Int32(), false),
    });
    std::vector<Row> rows;
    rows.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
      rows.push_back(Row({Value("key_" + std::to_string(rng() % 2000)),
                          Value(static_cast<int32_t>(rng() % 1000))}));
    }
    ctx_.CreateDataFrame(schema, std::move(rows)).RegisterTempTable("t");

    auto dim = StructType::Make({
        Field("k", DataType::String(), false),
        Field("w", DataType::Int32(), false),
    });
    std::vector<Row> dim_rows;
    dim_rows.reserve(6000);
    for (int i = 0; i < 6000; ++i) {
      dim_rows.push_back(Row({Value("key_" + std::to_string(rng() % 2500)),
                              Value(static_cast<int32_t>(i))}));
    }
    ctx_.CreateDataFrame(dim, std::move(dim_rows)).RegisterTempTable("dim");
  }

  ~SpillQueryTest() override { std::filesystem::remove_all(scratch_); }

  /// Runs `sql` unlimited, then under `limit_bytes`, and asserts identical
  /// results, nonzero spill metrics, and an empty scratch dir afterwards.
  void CheckSpillingAgrees(const std::string& sql, int64_t limit_bytes) {
    ctx_.UpdateConfig([&](EngineConfig& c) { c.query_memory_limit_bytes = -1; });
    auto expected = Canonical(ctx_.Sql(sql).Collect());

    ctx_.UpdateConfig([&](EngineConfig& c) { c.query_memory_limit_bytes = limit_bytes; });
    auto actual = Canonical(ctx_.Sql(sql).Collect());
    ctx_.UpdateConfig([&](EngineConfig& c) { c.query_memory_limit_bytes = -1; });

    EXPECT_EQ(actual, expected) << sql;
    EXPECT_GT(ctx_.last_profile().Total(ProfileCounter::kSpillBytes), 0) << sql;
    EXPECT_GT(ctx_.last_profile().Total(ProfileCounter::kSpillFiles), 0) << sql;
    EXPECT_GT(ctx_.last_profile().Total(ProfileCounter::kPeakReservedBytes), 0);
    EXPECT_EQ(FilesIn(scratch_), 0u) << "orphan spill files after " << sql;
  }

  /// Runs `sql` under `limit_bytes` with spilling disabled and asserts it
  /// fails with an error naming the stage and partition.
  void CheckFailsWithoutSpilling(const std::string& sql, int64_t limit_bytes,
                                 const std::string& stage) {
    ctx_.UpdateConfig([&](EngineConfig& c) { c.query_memory_limit_bytes = limit_bytes; });
    ctx_.UpdateConfig([&](EngineConfig& c) { c.spill_enabled = false; });
    try {
      ctx_.Sql(sql).Collect();
      FAIL() << "expected ExecutionError for: " << sql;
    } catch (const ExecutionError& e) {
      std::string what = e.what();
      EXPECT_NE(what.find("stage '" + stage + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("partition"), std::string::npos) << what;
      EXPECT_NE(what.find("query memory limit"), std::string::npos) << what;
    }
    ctx_.UpdateConfig([&](EngineConfig& c) { c.spill_enabled = true; });
    ctx_.UpdateConfig([&](EngineConfig& c) { c.query_memory_limit_bytes = -1; });
    EXPECT_EQ(FilesIn(scratch_), 0u);
  }

  std::string scratch_;
  SqlContext ctx_;
};

TEST_F(SpillQueryTest, GroupByAggregationSpillsAndAgrees) {
  CheckSpillingAgrees("SELECT k, sum(v), count(*) FROM t GROUP BY k",
                      64 * 1024);
}

TEST_F(SpillQueryTest, OrderBySpillsAndAgrees) {
  CheckSpillingAgrees("SELECT k, v FROM t ORDER BY v, k", 64 * 1024);
}

TEST_F(SpillQueryTest, InnerJoinSpillsAndAgrees) {
  CheckSpillingAgrees(
      "SELECT t.k, t.v, dim.w FROM t JOIN dim ON t.k = dim.k", 48 * 1024);
}

TEST_F(SpillQueryTest, SpillingDisabledFailsNamingTheStage) {
  CheckFailsWithoutSpilling("SELECT k, sum(v) FROM t GROUP BY k", 32 * 1024,
                            "aggregate.partial");
  CheckFailsWithoutSpilling("SELECT k, v FROM t ORDER BY v", 32 * 1024,
                            "sort");
  CheckFailsWithoutSpilling(
      "SELECT t.k, dim.w FROM t JOIN dim ON t.k = dim.k", 32 * 1024,
      "join.probe");
  // The engine stays fully usable afterwards.
  EXPECT_GT(ctx_.Sql("SELECT count(*) FROM t").Collect()[0].GetInt64(0), 0);
}

TEST_F(SpillQueryTest, TinyBudgetStillCompletes) {
  // Far below one chunk: every operator falls back to its irreducible
  // working set (ForceGrow) and the query must still finish correctly.
  CheckSpillingAgrees("SELECT k, count(*) FROM t GROUP BY k", 4 * 1024);
}

TEST_F(SpillQueryTest, BudgetCapsPlannerBroadcastThreshold) {
  // `dim` is small enough to broadcast by default...
  ctx_.Sql("SELECT t.k, dim.w FROM t JOIN dim ON t.k = dim.k").Collect();
  EXPECT_GT(ctx_.last_profile().Total(ProfileCounter::kBroadcastRows), 0);

  // ...but a broadcast build cannot spill, so a budget below the build size
  // must route the join to the (spillable) shuffle hash join.
  ctx_.UpdateConfig([&](EngineConfig& c) { c.query_memory_limit_bytes = 48 * 1024; });
  auto rows =
      ctx_.Sql("SELECT t.k, dim.w FROM t JOIN dim ON t.k = dim.k").Collect();
  ctx_.UpdateConfig([&](EngineConfig& c) { c.query_memory_limit_bytes = -1; });
  EXPECT_EQ(ctx_.last_profile().Total(ProfileCounter::kBroadcastRows), 0);
  EXPECT_GT(rows.size(), 0u);
  EXPECT_EQ(FilesIn(scratch_), 0u);
}

TEST(EnginePoolTest, OrderBySpillsAgainstThePoolAlone) {
  // Only the engine-wide pool is limited: the query's own budget is
  // unlimited, yet the sort's grants are carved from the pool, so it must
  // spill rather than hold ~1 MiB unaccounted. One partition makes the
  // spill independent of task overlap: its buffer must hold all 12,000
  // rows, and even their Row headers alone (24 bytes each, before any
  // value) exceed the 256 KiB pool.
  std::string scratch = UniqueScratchDir("pool");
  std::filesystem::remove_all(scratch);
  EngineConfig config;
  config.spill_dir = scratch;
  config.total_memory_limit_bytes = 256 * 1024;
  config.query_memory_limit_bytes = -1;
  config.default_parallelism = 1;
  SqlContext ctx(config);

  auto schema = StructType::Make({
      Field("k", DataType::Int32(), false),
      Field("s", DataType::String(), false),
  });
  std::mt19937_64 rng(5);
  std::vector<Row> rows;
  for (int i = 0; i < 12000; ++i) {
    rows.push_back(Row({Value(static_cast<int32_t>(rng() % 100000)),
                        Value("payload_" + std::to_string(i))}));
  }
  ctx.CreateDataFrame(schema, std::move(rows)).RegisterTempTable("t");

  std::vector<Row> sorted = ctx.Sql("SELECT k, s FROM t ORDER BY k").Collect();
  EXPECT_GT(ctx.last_profile().Total(ProfileCounter::kSpillBytes), 0);
  ASSERT_EQ(sorted.size(), 12000u);
  for (size_t i = 1; i < sorted.size(); ++i) {
    ASSERT_LE(sorted[i - 1].GetInt32(0), sorted[i].GetInt32(0)) << i;
  }
  EXPECT_EQ(FilesIn(scratch), 0u);
  std::filesystem::remove_all(scratch);
}

TEST(BroadcastOverBudgetTest, DirectBroadcastJoinFailsWithClearError) {
  EngineConfig config;
  config.num_threads = 2;
  config.default_parallelism = 2;
  config.query_memory_limit_bytes = 256;
  ExecContext engine(config);
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;

  AttributeVector la = {AttributeReference::Make("lk", DataType::Int32(), true),
                        AttributeReference::Make("lv", DataType::Int32(), false)};
  AttributeVector ra = {AttributeReference::Make("rk", DataType::Int32(), true),
                        AttributeReference::Make("rv", DataType::Int32(), false)};
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back(Row({Value(int32_t(i)), Value(int32_t(i))}));
  }
  auto scan = [&](const AttributeVector& attrs) {
    return std::make_shared<LocalTableScanExec>(
        attrs, std::make_shared<const LocalRows>(rows));
  };
  BroadcastHashJoinExec join(scan(la), scan(ra), {la[0]}, {ra[0]},
                             JoinType::kInner, nullptr);
  try {
    join.Execute(ctx);
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    EXPECT_NE(std::string(e.what()).find("broadcast joins cannot spill"),
              std::string::npos)
        << e.what();
  }
}

// Grace fallback must preserve the semantics of every join type the shuffle
// hash join supports; the unlimited in-memory path (covered by the seed's
// exec tests) is the reference.
TEST(GraceJoinTest, AllJoinTypesAgreeWithInMemoryPath) {
  std::mt19937_64 rng(1234);
  auto make_rows = [&](size_t n, int key_space, double null_fraction) {
    std::vector<Row> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      bool is_null =
          std::uniform_real_distribution<>(0, 1)(rng) < null_fraction;
      Value key = is_null ? Value::Null()
                          : Value(static_cast<int32_t>(rng() % key_space));
      rows.push_back(Row({key, Value(static_cast<int32_t>(i))}));
    }
    return rows;
  };
  auto left_rows = make_rows(600, 40, 0.1);
  auto right_rows = make_rows(600, 40, 0.1);

  AttributeVector la = {AttributeReference::Make("lk", DataType::Int32(), true),
                        AttributeReference::Make("lv", DataType::Int32(), false)};
  AttributeVector ra = {AttributeReference::Make("rk", DataType::Int32(), true),
                        AttributeReference::Make("rv", DataType::Int32(), false)};
  auto scan = [](const AttributeVector& attrs, const std::vector<Row>& rows) {
    return std::make_shared<LocalTableScanExec>(
        attrs, std::make_shared<const LocalRows>(rows));
  };

  std::string scratch = UniqueScratchDir("grace");
  for (JoinType type :
       {JoinType::kInner, JoinType::kLeftOuter, JoinType::kRightOuter,
        JoinType::kFullOuter, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    EngineConfig config;
    config.num_threads = 2;
    config.default_parallelism = 3;
    ExecContext unlimited(config);
    QueryContextPtr ref_query = unlimited.BeginQuery();
    ShuffleHashJoinExec ref_join(scan(la, left_rows), scan(ra, right_rows),
                                 {la[0]}, {ra[0]}, type, nullptr);
    auto expected = Canonical(ref_join.Execute(*ref_query).Collect());

    config.query_memory_limit_bytes = 1024;  // force the Grace fallback
    config.spill_dir = scratch;
    ExecContext limited(config);
    QueryContextPtr grace_query = limited.BeginQuery();
    ShuffleHashJoinExec grace_join(scan(la, left_rows), scan(ra, right_rows),
                                   {la[0]}, {ra[0]}, type, nullptr);
    EXPECT_EQ(Canonical(grace_join.Execute(*grace_query).Collect()), expected)
        << JoinTypeName(type);
    EXPECT_GT(grace_query->profile().Total(ProfileCounter::kSpillBytes), 0)
        << JoinTypeName(type);
    grace_query->Finish("ok");  // removes the query's spill subdirectory
    // Finishing folds the profile's totals into the engine-wide registry.
    EXPECT_EQ(
        limited.registry().Counter("ssql_query_spill_bytes_total").value(),
        grace_query->profile().Total(ProfileCounter::kSpillBytes))
        << JoinTypeName(type);
    EXPECT_EQ(FilesIn(scratch), 0u) << JoinTypeName(type);
  }
  std::filesystem::remove_all(scratch);
}

// ---- spill x fault tolerance -----------------------------------------------

TEST(SpillFaultTest, InjectedFaultRetriesWithoutOrphanSpillFiles) {
  // A partition of the spilling aggregation stage is killed on its first
  // attempt; the retry must succeed, results must match, and the aborted
  // attempt's spill files must have been cleaned up.
  std::string scratch = UniqueScratchDir("fault");
  std::filesystem::remove_all(scratch);
  SqlContext ctx;
  ctx.UpdateConfig([&](EngineConfig& c) { c.spill_dir = scratch; });
  ctx.UpdateConfig([&](EngineConfig& c) { c.num_threads = 2; });
  ctx.UpdateConfig([&](EngineConfig& c) { c.default_parallelism = 2; });

  auto schema = StructType::Make({
      Field("k", DataType::String(), false),
      Field("v", DataType::Int32(), false),
  });
  std::vector<Row> rows;
  for (int i = 0; i < 8000; ++i) {
    rows.push_back(
        Row({Value("key_" + std::to_string(i % 800)), Value(int32_t(1))}));
  }
  ctx.CreateDataFrame(schema, std::move(rows)).RegisterTempTable("t");
  const std::string sql = "SELECT k, sum(v) FROM t GROUP BY k";

  auto expected = Canonical(ctx.Sql(sql).Collect());

  ctx.UpdateConfig([&](EngineConfig& c) { c.query_memory_limit_bytes = 16 * 1024; });
  ctx.UpdateConfig([&](EngineConfig& c) { c.fault_injection_spec = "aggregate.partial:1:0"; });
  auto actual = Canonical(ctx.Sql(sql).Collect());

  EXPECT_EQ(actual, expected);
  EXPECT_GE(ctx.last_profile().Total(ProfileCounter::kRetries), 1);
  EXPECT_GT(ctx.last_profile().Total(ProfileCounter::kSpillBytes), 0);
  EXPECT_EQ(FilesIn(scratch), 0u) << "orphan spill files after retry";
  std::filesystem::remove_all(scratch);
}

TEST(SpillFaultTest, MidSpillRetryableErrorRetriesAndCleansUp) {
  // The failure fires from a UDF in the aggregated expression *while* the
  // stage is spilling (well past the first spill under a 8 KiB budget), so
  // the unwind path of a half-written spill state is exercised for real.
  std::string scratch = UniqueScratchDir("midspill");
  std::filesystem::remove_all(scratch);
  SqlContext ctx;
  ctx.UpdateConfig([&](EngineConfig& c) { c.spill_dir = scratch; });
  ctx.UpdateConfig([&](EngineConfig& c) { c.num_threads = 1; });  // deterministic call ordering
  ctx.UpdateConfig([&](EngineConfig& c) { c.default_parallelism = 1; });

  auto schema = StructType::Make({
      Field("k", DataType::String(), false),
      Field("v", DataType::Int32(), false),
  });
  std::vector<Row> rows;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back(
        Row({Value("key_" + std::to_string(i % 500)), Value(int32_t(2))}));
  }
  ctx.CreateDataFrame(schema, std::move(rows)).RegisterTempTable("t");

  auto calls = std::make_shared<std::atomic<int>>(0);
  ctx.RegisterUdf("tick", DataType::Int32(),
                  [calls](const std::vector<Value>& args) -> Value {
                    if (calls->fetch_add(1) + 1 == 3000) {
                      throw RetryableError("injected mid-spill failure");
                    }
                    return args[0];
                  });
  const std::string sql = "SELECT k, sum(tick(v)) FROM t GROUP BY k";

  auto expected = Canonical(ctx.Sql(sql).Collect());
  ASSERT_GT(calls->load(), 0);

  *calls = 0;
  ctx.UpdateConfig([&](EngineConfig& c) { c.query_memory_limit_bytes = 8 * 1024; });
  auto actual = Canonical(ctx.Sql(sql).Collect());

  EXPECT_EQ(actual, expected);
  EXPECT_GE(ctx.last_profile().Total(ProfileCounter::kRetries), 1);
  EXPECT_GT(ctx.last_profile().Total(ProfileCounter::kSpillBytes), 0);
  EXPECT_EQ(FilesIn(scratch), 0u);
  std::filesystem::remove_all(scratch);
}

TEST(SpillFaultTest, CancellationMidSpillLeavesNoScratchFiles) {
  // Cancelling the query token while the aggregation is actively spilling
  // must abort promptly AND delete every spill file on the unwind.
  std::string scratch = UniqueScratchDir("cancelspill");
  std::filesystem::remove_all(scratch);
  SqlContext ctx;
  ctx.UpdateConfig([&](EngineConfig& c) { c.spill_dir = scratch; });
  ctx.UpdateConfig([&](EngineConfig& c) { c.num_threads = 1; });
  ctx.UpdateConfig([&](EngineConfig& c) { c.default_parallelism = 1; });
  ctx.UpdateConfig([&](EngineConfig& c) { c.query_memory_limit_bytes = 8 * 1024; });

  auto schema = StructType::Make({
      Field("k", DataType::String(), false),
      Field("v", DataType::Int32(), false),
  });
  std::vector<Row> rows;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back(
        Row({Value("key_" + std::to_string(i % 500)), Value(int32_t(1))}));
  }
  ctx.CreateDataFrame(schema, std::move(rows)).RegisterTempTable("t");

  ExecContext* exec = &ctx.exec();
  auto calls = std::make_shared<std::atomic<int>>(0);
  ctx.RegisterUdf("cancel_at", DataType::Int32(),
                  [calls, exec](const std::vector<Value>& args) -> Value {
                    if (calls->fetch_add(1) + 1 == 3000) {
                      exec->CancelAllQueries("test abort");
                    }
                    return args[0];
                  });

  try {
    ctx.Sql("SELECT k, sum(cancel_at(v)) FROM t GROUP BY k").Collect();
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    EXPECT_NE(std::string(e.what()).find("cancelled"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(FilesIn(scratch), 0u) << "cancellation leaked spill files";
  std::filesystem::remove_all(scratch);
}

// ---- EngineConfig validation -----------------------------------------------

TEST(EngineConfigValidationTest, BadConfigsFailFastAtConstruction) {
  {
    EngineConfig c;
    c.num_threads = 0;
    EXPECT_THROW(SqlContext ctx(c), ExecutionError);
  }
  {
    EngineConfig c;
    c.default_parallelism = 0;
    EXPECT_THROW(SqlContext ctx(c), ExecutionError);
  }
  {
    EngineConfig c;
    c.task_max_retries = -1;
    EXPECT_THROW(SqlContext ctx(c), ExecutionError);
  }
  {
    EngineConfig c;
    c.task_retry_backoff_ms = -5;
    EXPECT_THROW(SqlContext ctx(c), ExecutionError);
  }
  {
    // A negative value cast into the unsigned threshold.
    EngineConfig c;
    c.broadcast_threshold_bytes = static_cast<uint64_t>(-10);
    EXPECT_THROW(SqlContext ctx(c), ExecutionError);
  }
}

TEST(EngineConfigValidationTest, MalformedFaultSpecNamedInError) {
  EngineConfig c;
  c.fault_injection_spec = "scan:3";  // missing attempt range
  try {
    SqlContext ctx(c);
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("invalid EngineConfig"), std::string::npos) << what;
  }
}

TEST(EngineConfigValidationTest, ErrorMessageDescribesTheProblem) {
  EngineConfig c;
  c.num_threads = 0;
  try {
    ExecContext ctx(c);
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("invalid EngineConfig"), std::string::npos) << what;
    EXPECT_NE(what.find("num_threads"), std::string::npos) << what;
  }
}

TEST(EngineConfigValidationTest, DefaultConfigIsValid) {
  EXPECT_NO_THROW(ValidateEngineConfig(EngineConfig()));
}

}  // namespace
}  // namespace ssql
