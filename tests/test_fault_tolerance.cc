// Fault-tolerant task execution tests: partition retry with deterministic
// fault injection, error aggregation + sibling cancellation, cooperative
// query cancellation/timeouts, the nested-RunAll regression, and the
// malformed-record parse modes (PERMISSIVE / DROPMALFORMED / FAILFAST) of
// the CSV and JSON readers.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <thread>

#include "api/sql_context.h"
#include "catalyst/expr/literal.h"
#include "catalyst/expr/udf_expr.h"
#include "engine/dataset.h"
#include "engine/exec_context.h"
#include "engine/task_runner.h"
#include "exec/interval_join_exec.h"
#include "exec/scan_exec.h"
#include "util/fault_points.h"
#include "util/spill_file.h"
#include "util/thread_pool.h"

namespace ssql {
namespace {

using functions::Lit;

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

// ---- ThreadPool regression -------------------------------------------------

TEST(ThreadPoolTest, NestedRunAllDoesNotDeadlock) {
  // A task that itself calls RunAll used to deadlock once every worker was
  // blocked waiting for the inner tasks; the calling thread now helps drain
  // the queue. One worker is the worst case.
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&pool, &counter] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 4; ++j) {
        inner.push_back([&counter] { counter.fetch_add(1); });
      }
      pool.RunAll(std::move(inner));
    });
  }
  pool.RunAll(std::move(outer));
  EXPECT_EQ(counter.load(), 16);
}

// ---- Task fault rules / CancellationToken units ----------------------------

TEST(FaultPointSetTest, TaskRulesParseAndMatch) {
  FaultPointSet set = FaultPointSet::Parse("scan:3:0-1, *:1:2");
  EXPECT_TRUE(set.enabled());
  EXPECT_THROW(set.MaybeFailTask("scan", 3, 0), RetryableError);
  EXPECT_THROW(set.MaybeFailTask("scan", 3, 1), RetryableError);
  EXPECT_NO_THROW(set.MaybeFailTask("scan", 3, 2));  // past the attempt range
  EXPECT_NO_THROW(set.MaybeFailTask("sort", 3, 0));  // different stage
  EXPECT_THROW(set.MaybeFailTask("sort", 1, 2), RetryableError);  // wildcard
  EXPECT_NO_THROW(set.MaybeFailTask("sort", 1, 0));
  // Fired task rules count like every other rule.
  EXPECT_EQ(set.fired(), 3u);
  // Task rules never fire at I/O sites, nor site rules at tasks.
  EXPECT_NO_THROW(set.MaybeFail("scan", "x"));
  EXPECT_NO_THROW(
      FaultPointSet::Parse("scan=*").MaybeFailTask("scan", 0, 0));

  EXPECT_FALSE(FaultPointSet::Parse("").enabled());
  EXPECT_THROW(FaultPointSet::Parse("scan:3"), ExecutionError);
  EXPECT_THROW(FaultPointSet::Parse("scan:x:0"), ExecutionError);
  EXPECT_THROW(FaultPointSet::Parse("scan:3:2-1"), ExecutionError);
}

TEST(CancellationTokenTest, CancelAndTimeout) {
  CancellationToken token;
  EXPECT_FALSE(token.IsCancelled());
  EXPECT_NO_THROW(token.ThrowIfCancelled());

  token.SetTimeout(-1);  // unlimited
  EXPECT_FALSE(token.IsCancelled());
  token.SetTimeout(0);  // instant expiry
  EXPECT_TRUE(token.IsCancelled());
  try {
    token.ThrowIfCancelled();
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }

  CancellationToken user;
  user.Cancel("user abort");
  try {
    user.ThrowIfCancelled();
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    EXPECT_EQ(std::string(e.what()), "query cancelled: user abort");
  }
}

// ---- retry machinery -------------------------------------------------------

DataFrame Numbers(SqlContext& ctx, int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) rows.push_back(Row({Value(int32_t(i))}));
  auto schema = StructType::Make({Field("x", DataType::Int32(), false)});
  return ctx.CreateDataFrame(schema, std::move(rows));
}

TEST(TaskRetryTest, InjectedFaultsAreRetriedTransparently) {
  // Partitions 1 and 3 of the single project stage fail on their first
  // attempt; the query must still produce the full result, with exactly two
  // retries on the books.
  SqlContext ctx;
  ctx.UpdateConfig([&](EngineConfig& c) { c.fault_injection_spec = "project:1:0,project:3:0"; });
  DataFrame df = Numbers(ctx, 100);
  auto rows = df.Where(df("x") < Lit(Value(int32_t{50}))).Collect();
  EXPECT_EQ(rows.size(), 50u);
  EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kRetries), 2);
  EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kFailures), 0);
}

TEST(TaskRetryTest, RetriesDisabledFailsNamingThePartition) {
  SqlContext ctx;
  ctx.UpdateConfig([&](EngineConfig& c) { c.fault_injection_spec = "project:1:0"; });
  ctx.UpdateConfig([&](EngineConfig& c) { c.task_max_retries = 0; });
  DataFrame df = Numbers(ctx, 100);
  try {
    df.Where(df("x") < Lit(Value(int32_t{50}))).Collect();
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("stage 'project'"), std::string::npos) << what;
    EXPECT_NE(what.find("partition 1"), std::string::npos) << what;
  }
  EXPECT_EQ(ctx.last_profile().Total(ProfileCounter::kRetries), 0);
}

TEST(TaskRetryTest, ExhaustedRetriesReportAttemptCount) {
  // Failing attempts 0..2 exhausts the default budget of 2 retries.
  SqlContext ctx;
  ctx.UpdateConfig([&](EngineConfig& c) { c.fault_injection_spec = "project:2:0-2"; });
  DataFrame df = Numbers(ctx, 100);
  try {
    df.Where(df("x") < Lit(Value(int32_t{50}))).Collect();
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("gave up after 3 attempts"), std::string::npos) << what;
  }
}

TEST(TaskRunnerTest, FatalErrorsAreAggregatedWithPartition) {
  ExecContext engine;
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  std::vector<Row> rows;
  for (int i = 0; i < 16; ++i) rows.push_back(Row({Value(int32_t(i))}));
  RowDataset d = RowDataset::FromRows(std::move(rows), 4);
  try {
    d.MapPartitions(
        ctx,
        [](size_t p, const RowPartition& part) {
          if (p == 2) throw std::runtime_error("disk on fire");
          return std::make_shared<RowPartition>(part);
        },
        "boom");
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("stage 'boom'"), std::string::npos) << what;
    EXPECT_NE(what.find("partition 2: disk on fire"), std::string::npos) << what;
  }
  // Fatal errors are not retried.
  EXPECT_EQ(ctx.profile().Total(ProfileCounter::kRetries), 0);
  EXPECT_EQ(ctx.profile().Total(ProfileCounter::kFailures), 1);
}

TEST(TaskRunnerTest, FatalFailureCancelsPendingSiblings) {
  EngineConfig config;
  config.num_threads = 1;
  ExecContext engine(config);
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  std::vector<Row> rows;
  for (int i = 0; i < 64; ++i) rows.push_back(Row({Value(int32_t(i))}));
  RowDataset d = RowDataset::FromRows(std::move(rows), 64);
  EXPECT_THROW(
      d.MapPartitions(
          ctx,
          [](size_t p, const RowPartition& part) -> RowPartitionPtr {
            if (p == 0) throw std::runtime_error("boom");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return std::make_shared<RowPartition>(part);
          },
          "wide"),
      ExecutionError);
  // The first fatal failure aborts partitions that had not started yet, so
  // nowhere near all 64 tasks should have attempted.
  EXPECT_LT(ctx.profile().Total(ProfileCounter::kAttempts), 64);
}

// ---- cancellation and timeouts ---------------------------------------------

TEST(CancellationTest, PreCancelledTokenAbortsStage) {
  ExecContext engine;
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  ctx.Cancel("user abort");
  std::vector<Row> rows;
  for (int i = 0; i < 8; ++i) rows.push_back(Row({Value(int32_t(i))}));
  RowDataset d = RowDataset::FromRows(std::move(rows), 4);
  std::atomic<int> bodies_run{0};
  try {
    d.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
      bodies_run.fetch_add(1);
      return std::make_shared<RowPartition>(part);
    });
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    EXPECT_EQ(std::string(e.what()), "query cancelled: user abort");
  }
  EXPECT_EQ(bodies_run.load(), 0);
}

TEST(CancellationTest, TimeoutFiresMidStage) {
  EngineConfig config;
  config.query_timeout_ms = 40;
  ExecContext engine(config);
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  std::vector<Row> rows;
  for (int i = 0; i < 4; ++i) rows.push_back(Row({Value(int32_t(i))}));
  RowDataset d = RowDataset::FromRows(std::move(rows), 2);
  try {
    d.MapPartitions(ctx, [&](size_t, const RowPartition& part) {
      for (int i = 0; i < 500; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ctx.CheckCancelled();  // operator loops poll cooperatively
      }
      return std::make_shared<RowPartition>(part);
    });
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out after 40 ms"),
              std::string::npos);
  }
}

TEST(CancellationTest, ZeroTimeoutAbortsEveryQueryShapeAndPoolStaysUsable) {
  SqlContext ctx;
  DataFrame t1 = Numbers(ctx, 200);
  std::vector<Row> rows2;
  for (int i = 0; i < 50; ++i) rows2.push_back(Row({Value(int32_t(i))}));
  DataFrame t2 = ctx.CreateDataFrame(
      StructType::Make({Field("k", DataType::Int32(), false)}),
      std::move(rows2));

  ctx.UpdateConfig([&](EngineConfig& c) { c.query_timeout_ms = 0; });
  // Filter, join, aggregation and sort plans must all abort promptly.
  EXPECT_THROW(t1.Where(t1("x") < Lit(Value(int32_t{10}))).Collect(),
               ExecutionError);
  EXPECT_THROW(t1.Join(t2, t1("x") == t2("k")).Collect(), ExecutionError);
  EXPECT_THROW(t1.GroupBy({"x"}).Count().Collect(), ExecutionError);
  EXPECT_THROW(t1.OrderBy({t1("x")}).Collect(), ExecutionError);

  // Disabling the timeout leaves the engine fully usable: the pool did not
  // deadlock or lose workers.
  ctx.UpdateConfig([&](EngineConfig& c) { c.query_timeout_ms = -1; });
  auto rows = t1.Join(t2, t1("x") == t2("k")).Collect();
  EXPECT_EQ(rows.size(), 50u);
}

TEST(CancellationTest, ShuffleMapSidePollsInsideTheRowLoop) {
  // A cancellation arriving mid-way through hashing a large partition must
  // abort within the polling interval, not after the whole partition (or
  // the whole shuffle) has been processed.
  EngineConfig config;
  config.num_threads = 1;
  ExecContext engine(config);
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  std::vector<Row> rows;
  for (int i = 0; i < 10000; ++i) rows.push_back(Row({Value(int32_t(i))}));
  RowDataset d = RowDataset::SinglePartition(std::move(rows));

  std::atomic<int> hashed{0};
  try {
    d.ShuffleByHash(ctx, 4, [&](const Row& row) -> uint64_t {
      if (hashed.fetch_add(1) == 0) {
        ctx.Cancel("mid-shuffle abort");
      }
      return static_cast<uint64_t>(row.GetInt32(0));
    });
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    EXPECT_NE(std::string(e.what()).find("mid-shuffle abort"),
              std::string::npos);
  }
  // Polls run every 64 rows, so only a sliver of the 10000-row partition
  // may have been hashed after the cancel.
  EXPECT_LT(hashed.load(), 200);
}

TEST(CancellationTest, IntervalJoinProbeLoopPollsPerRow) {
  // Same property for the range join's probe loop: the per-row poll must
  // notice a cancellation long before the 10000-row probe side is drained.
  EngineConfig config;
  config.num_threads = 1;
  config.default_parallelism = 1;
  ExecContext engine(config);
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;

  AttributeVector ia = {
      AttributeReference::Make("s", DataType::Double(), false),
      AttributeReference::Make("e", DataType::Double(), false)};
  AttributeVector pa = {
      AttributeReference::Make("p", DataType::Double(), false)};
  std::vector<Row> intervals;
  for (int i = 0; i < 4; ++i) {
    intervals.push_back(Row({Value(0.0), Value(1000.0)}));
  }
  std::vector<Row> points;
  for (int i = 0; i < 10000; ++i) {
    points.push_back(Row({Value(static_cast<double>(i % 100))}));
  }
  auto left = std::make_shared<LocalTableScanExec>(
      ia, std::make_shared<const std::vector<Row>>(std::move(intervals)));
  auto right = std::make_shared<LocalTableScanExec>(
      pa, std::make_shared<const std::vector<Row>>(std::move(points)));

  std::atomic<int> probed{0};
  ExprPtr point = ScalarUDF::Make(
      "cancel_then_count", {pa[0]}, DataType::Double(),
      [&](const std::vector<Value>& args) -> Value {
        if (probed.fetch_add(1) == 0) {
          ctx.Cancel("mid-probe abort");
        }
        return args[0];
      },
      /*deterministic=*/false);

  IntervalJoinExec join(left, right, /*interval_on_left=*/true,
                        ia[0], ia[1], point, nullptr);
  try {
    join.Execute(ctx);
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    EXPECT_NE(std::string(e.what()).find("mid-probe abort"),
              std::string::npos);
  }
  EXPECT_LT(probed.load(), 200);
}

// ---- CSV parse modes -------------------------------------------------------

class CsvParseModeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/corrupt-" + std::to_string(::getpid()) +
              ".csv";
    WriteFile(path_,
              "a,b\n"
              "1,2\n"
              "oops,3\n"   // line 3: 'oops' does not convert to int
              "4,5,6\n"    // line 4: extra cell
              "7,8\n");
  }
  std::string path_;
  SqlContext ctx_;
  DataSourceOptions schema_opt_{{"schema", "a int, b int"}};
};

TEST_F(CsvParseModeTest, DefaultStaysLenient) {
  // No explicit mode: legacy repair semantics, no corrupt-record column.
  DataFrame df = ctx_.ReadCsv(path_, schema_opt_);
  EXPECT_EQ(df.schema()->num_fields(), 2u);
  auto rows = df.Collect();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_TRUE(rows[1].IsNullAt(0));  // 'oops' silently became null
}

TEST_F(CsvParseModeTest, PermissiveKeepsCorruptRecords) {
  DataSourceOptions opts = schema_opt_;
  opts["mode"] = "PERMISSIVE";
  DataFrame df = ctx_.ReadCsv(path_, opts);
  ASSERT_EQ(df.schema()->num_fields(), 3u);
  EXPECT_EQ(df.schema()->field(2).name, "_corrupt_record");
  auto rows = df.Collect();
  ASSERT_EQ(rows.size(), 4u);
  // Good rows carry a null corrupt column.
  EXPECT_EQ(rows[0].GetInt32(0), 1);
  EXPECT_TRUE(rows[0].IsNullAt(2));
  // Malformed rows are null-filled with the raw text preserved.
  EXPECT_TRUE(rows[1].IsNullAt(0));
  EXPECT_TRUE(rows[1].IsNullAt(1));
  EXPECT_EQ(rows[1].GetString(2), "oops,3");
  EXPECT_EQ(rows[2].GetString(2), "4,5,6");
  EXPECT_EQ(ctx_.last_profile().Total(ProfileCounter::kMalformedRecords), 2);
  EXPECT_EQ(ctx_.last_profile().Total(ProfileCounter::kRowsDropped), 0);
}

TEST_F(CsvParseModeTest, DropMalformedSkipsCorruptRecords) {
  DataSourceOptions opts = schema_opt_;
  opts["mode"] = "DROPMALFORMED";
  DataFrame df = ctx_.ReadCsv(path_, opts);
  EXPECT_EQ(df.schema()->num_fields(), 2u);
  auto rows = df.Collect();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].GetInt32(0), 1);
  EXPECT_EQ(rows[1].GetInt32(0), 7);
  EXPECT_EQ(ctx_.last_profile().Total(ProfileCounter::kRowsDropped), 2);
  EXPECT_EQ(ctx_.last_profile().Total(ProfileCounter::kMalformedRecords), 2);
}

TEST_F(CsvParseModeTest, FailFastNamesFileAndLine) {
  DataSourceOptions opts = schema_opt_;
  opts["mode"] = "FAILFAST";
  DataFrame df = ctx_.ReadCsv(path_, opts);
  try {
    df.Collect();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find(path_ + ":3"), std::string::npos) << what;
    EXPECT_NE(what.find("'oops,3'"), std::string::npos) << what;
  }
}

TEST_F(CsvParseModeTest, CustomCorruptColumnName) {
  DataSourceOptions opts = schema_opt_;
  opts["mode"] = "PERMISSIVE";
  opts["columnNameOfCorruptRecord"] = "_bad";
  DataFrame df = ctx_.ReadCsv(path_, opts);
  ASSERT_EQ(df.schema()->num_fields(), 3u);
  EXPECT_EQ(df.schema()->field(2).name, "_bad");
}

TEST_F(CsvParseModeTest, FluentReaderApi) {
  DataFrame df = ctx_.Read()
                     .Format("csv")
                     .Schema("a int, b int")
                     .Mode("DROPMALFORMED")
                     .Load(path_);
  EXPECT_EQ(df.Collect().size(), 2u);
}

TEST(CsvParseModeErrorTest, UnknownModeRejected) {
  SqlContext ctx;
  std::string path = ::testing::TempDir() + "/tiny.csv";
  WriteFile(path, "a\n1\n");
  EXPECT_THROW(ctx.ReadCsv(path, {{"mode", "SIDEWAYS"}}), IoError);
}

// ---- JSON parse modes ------------------------------------------------------

class JsonParseModeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/corrupt-" + std::to_string(::getpid()) +
              ".json";
    WriteFile(path_,
              "{\"a\": 1, \"b\": \"x\"}\n"
              "{\"a\": 2, \"b\":\n"       // line 2: truncated object
              "{\"a\": 3, \"b\": \"z\"}\n");
  }
  std::string path_;
  SqlContext ctx_;
};

TEST_F(JsonParseModeTest, DefaultFailFastNamesFileAndLine) {
  try {
    ctx_.ReadJson(path_);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("malformed JSON record"), std::string::npos) << what;
    EXPECT_NE(what.find(path_ + ":2"), std::string::npos) << what;
  }
}

TEST_F(JsonParseModeTest, PermissiveKeepsCorruptRecords) {
  DataFrame df = ctx_.ReadJson(path_, {{"mode", "PERMISSIVE"}});
  // Schema is inferred from the well-formed records plus the corrupt column.
  ASSERT_EQ(df.schema()->num_fields(), 3u);
  EXPECT_EQ(df.schema()->field(2).name, "_corrupt_record");
  auto rows = df.Collect();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].GetInt32(0), 1);
  EXPECT_TRUE(rows[0].IsNullAt(2));
  // The corrupt record is emitted null-filled with its raw text.
  const Row& corrupt = rows[2];
  EXPECT_TRUE(corrupt.IsNullAt(0));
  EXPECT_TRUE(corrupt.IsNullAt(1));
  EXPECT_EQ(corrupt.GetString(2), "{\"a\": 2, \"b\":");
  EXPECT_EQ(ctx_.last_profile().Total(ProfileCounter::kMalformedRecords), 1);
}

TEST_F(JsonParseModeTest, DropMalformedSkipsCorruptRecords) {
  DataFrame df = ctx_.ReadJson(path_, {{"mode", "DROPMALFORMED"}});
  EXPECT_EQ(df.schema()->num_fields(), 2u);
  auto rows = df.Collect();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(ctx_.last_profile().Total(ProfileCounter::kRowsDropped), 1);
}

TEST_F(JsonParseModeTest, WellFormedFileSkipsSalvagePass) {
  std::string clean = ::testing::TempDir() + "/clean.json";
  WriteFile(clean, "{\"a\": 1}\n{\"a\": 2}\n");
  DataFrame df = ctx_.ReadJson(clean, {{"mode", "PERMISSIVE"}});
  auto rows = df.Collect();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(ctx_.last_profile().Total(ProfileCounter::kMalformedRecords), 0);
}

// ---- error formatting ------------------------------------------------------

TEST(RecordErrorTest, SnippetsAreTruncated) {
  std::string long_record(200, 'x');
  std::string msg = FormatRecordError("malformed CSV record", "/data/f.csv",
                                      17, long_record);
  EXPECT_NE(msg.find("/data/f.csv:17"), std::string::npos);
  EXPECT_NE(msg.find("..."), std::string::npos);
  EXPECT_LT(msg.size(), 200u);
}

TEST(RecordErrorTest, ParseModeFromStringIsCaseInsensitive) {
  EXPECT_EQ(ParseModeFromString("permissive"), ParseMode::kPermissive);
  EXPECT_EQ(ParseModeFromString("DropMalformed"), ParseMode::kDropMalformed);
  EXPECT_EQ(ParseModeFromString("FAILFAST"), ParseMode::kFailFast);
  EXPECT_THROW(ParseModeFromString("whatever"), IoError);
}

// ---- cancellation token chaining -------------------------------------------

TEST(CancellationTokenTest, ChildObservesParentCancelWithItsReason) {
  auto parent = std::make_shared<CancellationToken>();
  auto child = CancellationToken::MakeChild(parent);
  EXPECT_FALSE(child->IsCancelled());
  parent->Cancel("query killed");
  EXPECT_TRUE(child->IsCancelled());
  // The cancel was inherited, not local: the child can tell the difference
  // (how a task attempt distinguishes query death from a lost race).
  EXPECT_FALSE(child->LocalCancelRequested());
  EXPECT_EQ(child->StatusMessage(), "query cancelled: query killed");
  try {
    child->ThrowIfCancelled();
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    EXPECT_EQ(std::string(e.what()), "query cancelled: query killed");
  }
}

TEST(CancellationTokenTest, ChildCancelDoesNotPropagateUpAndOwnReasonWins) {
  auto parent = std::make_shared<CancellationToken>();
  auto child = CancellationToken::MakeChild(parent);
  child->Cancel("lost speculation race for stage 'scan' partition 3");
  EXPECT_TRUE(child->IsCancelled());
  EXPECT_TRUE(child->LocalCancelRequested());
  EXPECT_FALSE(parent->IsCancelled());  // siblings keep running
  EXPECT_EQ(child->StatusMessage(),
            "query cancelled: lost speculation race for stage 'scan' "
            "partition 3");
  // Even after the parent is cancelled too, the child's own (first) reason
  // still wins — it describes what actually stopped this attempt.
  parent->Cancel("user abort");
  EXPECT_EQ(child->StatusMessage(),
            "query cancelled: lost speculation race for stage 'scan' "
            "partition 3");
}

TEST(CancellationTokenTest, ChildDeadlineIsLocalToTheChild) {
  auto parent = std::make_shared<CancellationToken>();
  auto child = CancellationToken::MakeChild(parent);
  child->SetTimeout(0);  // instant expiry
  EXPECT_TRUE(child->IsCancelled());
  EXPECT_TRUE(child->LocalDeadlineExceeded());
  EXPECT_FALSE(parent->IsCancelled());
}

// ---- per-task deadlines ----------------------------------------------------

TEST(TaskDeadlineTest, RunawayAttemptIsRetriedWithAFreshDeadline) {
  // Partition 3's first attempt crawls past task_timeout_ms; the poll site
  // converts it into a RetryableError and the retry (fast) succeeds.
  EngineConfig config;
  config.num_threads = 2;
  config.task_timeout_ms = 50;
  ExecContext engine(config);
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  std::vector<Row> rows;
  for (int i = 0; i < 8; ++i) rows.push_back(Row({Value(int32_t(i))}));
  RowDataset d = RowDataset::FromRows(std::move(rows), 4);
  std::vector<std::atomic<int>> attempts(4);
  RowDataset out = d.MapPartitions(
      ctx,
      [&](size_t p, const RowPartition& part) {
        if (p == 3 && attempts[p].fetch_add(1) == 0) {
          for (int i = 0; i < 10000; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ctx.CheckCancelled();  // deadline converts to RetryableError here
          }
        }
        return std::make_shared<RowPartition>(part);
      },
      "slow");
  EXPECT_EQ(out.TotalRows(), 8u);
  EXPECT_EQ(ctx.profile().Total(ProfileCounter::kTaskTimeouts), 1);
  EXPECT_EQ(ctx.profile().Total(ProfileCounter::kRetries), 1);
  // The engine-wide total is folded from the profile when the query ends.
  query->Finish("ok");
  EXPECT_EQ(
      engine.registry().Counter("ssql_query_task_timeouts_total").value(), 1);
}

TEST(TaskDeadlineTest, PersistentlyRunawayTaskFailsNamingTheDeadline) {
  EngineConfig config;
  config.num_threads = 2;
  config.task_timeout_ms = 30;
  config.task_max_retries = 1;
  config.task_retry_backoff_ms = 0;
  ExecContext engine(config);
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  std::vector<Row> rows;
  for (int i = 0; i < 2; ++i) rows.push_back(Row({Value(int32_t(i))}));
  RowDataset d = RowDataset::FromRows(std::move(rows), 2);
  try {
    d.MapPartitions(
        ctx,
        [&](size_t p, const RowPartition& part) {
          if (p == 1) {
            for (int i = 0; i < 10000; ++i) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
              ctx.CheckCancelled();
            }
          }
          return std::make_shared<RowPartition>(part);
        },
        "runaway");
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("gave up after 2 attempts"), std::string::npos) << what;
    EXPECT_NE(what.find("exceeded its task_timeout_ms deadline (30 ms)"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(ctx.profile().Total(ProfileCounter::kTaskTimeouts), 2);
  query->Finish("error");
}

// ---- speculative execution -------------------------------------------------

TEST(SpeculationTest, DuplicateWinsCommitsOnceAndLoserLearnsWhy) {
  // Partition 7's first attempt crawls; every other task is quick, so once
  // speculation_quantile of the stage has committed the coordinator races a
  // duplicate against it. The duplicate (a fresh, fast attempt) must win,
  // commit exactly once, and the losing primary must see a lost-race abort
  // that names the stage and partition.
  EngineConfig config;
  config.num_threads = 4;
  config.speculation_multiplier = 0.0;  // maximally eager
  config.speculation_quantile = 0.25;
  ExecContext engine(config);
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  std::vector<std::atomic<int>> commits(8);
  std::vector<std::atomic<int>> attempts(8);
  std::mutex reason_mu;
  std::string loser_reason;
  TaskRunner(ctx).RunStageSpeculatable(
      "spec", 8, [&](size_t p) -> TaskRunner::TaskCommitFn {
        if (p == 7 && attempts[p].fetch_add(1) == 0) {
          try {
            for (int i = 0; i < 10000; ++i) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
              ctx.CheckCancelled();
            }
          } catch (const TaskAttemptAborted& e) {
            std::lock_guard<std::mutex> lock(reason_mu);
            loser_reason = e.what();
            throw;
          }
        }
        return [&commits, p] { commits[p].fetch_add(1); };
      });
  for (size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(commits[p].load(), 1) << "partition " << p;
  }
  EXPECT_GE(ctx.profile().Total(ProfileCounter::kSpeculated), 1);
  EXPECT_GE(ctx.profile().Total(ProfileCounter::kSpeculationWins), 1);
  {
    std::lock_guard<std::mutex> lock(reason_mu);
    EXPECT_NE(
        loser_reason.find("lost speculation race for stage 'spec' partition 7"),
        std::string::npos)
        << loser_reason;
  }
  query->Finish("ok");
  EXPECT_GE(engine.registry().Counter("ssql_query_speculated_total").value(),
            1);
  EXPECT_GE(
      engine.registry().Counter("ssql_query_speculation_wins_total").value(),
      1);
}

TEST(SpeculationTest, PrimaryWinCancelsTheDuplicateCooperatively) {
  // Here the duplicate is the slow copy: the primary finishes first and the
  // stage must not wait for the duplicate's multi-second sleep — the commit
  // cancels it through its attempt token.
  EngineConfig config;
  config.num_threads = 4;
  config.speculation_multiplier = 0.0;
  config.speculation_quantile = 0.25;
  ExecContext engine(config);
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  std::vector<std::atomic<int>> commits(8);
  std::vector<std::atomic<int>> attempts(8);
  auto started = std::chrono::steady_clock::now();
  TaskRunner(ctx).RunStageSpeculatable(
      "race", 8, [&](size_t p) -> TaskRunner::TaskCommitFn {
        int attempt = attempts[p].fetch_add(1);
        if (p == 7) {
          // First attempt: slow enough to get speculated, then finishes.
          // Speculative attempt: would take ~10 s if not cancelled.
          int spins = attempt == 0 ? 60 : 10000;
          for (int i = 0; i < spins; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ctx.CheckCancelled();
          }
        }
        return [&commits, p] { commits[p].fetch_add(1); };
      });
  auto elapsed = std::chrono::steady_clock::now() - started;
  for (size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(commits[p].load(), 1) << "partition " << p;
  }
  EXPECT_GE(ctx.profile().Total(ProfileCounter::kSpeculated), 1);
  EXPECT_EQ(ctx.profile().Total(ProfileCounter::kSpeculationWins), 0);
  // The losing duplicate was cancelled cooperatively, not waited out.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            8);
  query->Finish("ok");
}

TEST(SpeculationTest, EveryPartitionCommitsExactlyOnceUnderRacingDuplicates) {
  // Stress the commit CAS: with quantile 0 and multiplier 0 nearly every
  // task gets a duplicate, so primaries and duplicates race on most
  // partitions every round. Exactly one commit per partition must survive —
  // this is the double-commit / TSan test.
  EngineConfig config;
  config.num_threads = 4;
  config.speculation_multiplier = 0.0;
  config.speculation_quantile = 0.0;
  ExecContext engine(config);
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  constexpr int kRounds = 25;
  constexpr size_t kPartitions = 8;
  std::vector<std::atomic<int>> commits(kPartitions);
  for (int round = 0; round < kRounds; ++round) {
    TaskRunner(ctx).RunStageSpeculatable(
        "stress", kPartitions, [&](size_t p) -> TaskRunner::TaskCommitFn {
          // Stagger runtimes so which copy wins varies across partitions.
          std::this_thread::sleep_for(std::chrono::microseconds(300 * (p % 3)));
          ctx.CheckCancelled();
          return [&commits, p] { commits[p].fetch_add(1); };
        });
    for (size_t p = 0; p < kPartitions; ++p) {
      ASSERT_EQ(commits[p].load(), round + 1)
          << "double or lost commit on partition " << p << " in round "
          << round;
    }
  }
  query->Finish("ok");
}

TEST(SpeculationTest, DisabledSpeculationBehavesLikeRunStage) {
  // speculation_multiplier < 0 (the default) must not spawn a coordinator
  // or duplicates even for a straggler-shaped stage.
  ExecContext engine;  // defaults: speculation off
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  std::vector<std::atomic<int>> commits(4);
  TaskRunner(ctx).RunStageSpeculatable(
      "plain", 4, [&](size_t p) -> TaskRunner::TaskCommitFn {
        if (p == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return [&commits, p] { commits[p].fetch_add(1); };
      });
  for (size_t p = 0; p < 4; ++p) EXPECT_EQ(commits[p].load(), 1);
  EXPECT_EQ(ctx.profile().Total(ProfileCounter::kSpeculated), 0);
  query->Finish("ok");
}

// ---- engine watchdog -------------------------------------------------------

TEST(WatchdogTest, KillsQueryWhoseTaskStopsHeartbeating) {
  EngineConfig config;
  config.num_threads = 2;
  config.watchdog_interval_ms = 10;
  config.stuck_task_timeout_ms = 250;
  ExecContext engine(config);
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  const uint64_t id = ctx.query_id();
  std::vector<Row> rows;
  rows.push_back(Row({Value(int32_t(1))}));
  RowDataset d = RowDataset::SinglePartition(std::move(rows));
  try {
    d.MapPartitions(
        ctx,
        [&](size_t, const RowPartition& part) {
          // A wedged task: never calls CheckCancelled, so it publishes no
          // heartbeats — but it does notice the token eventually, which is
          // how a watchdog-killed query actually unwinds in practice.
          for (int i = 0; i < 10000; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            if (ctx.cancellation()->IsCancelled()) {
              ctx.cancellation()->ThrowIfCancelled();
            }
          }
          return std::make_shared<RowPartition>(part);
        },
        "stall");
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
    EXPECT_NE(what.find("stage 'stall'"), std::string::npos) << what;
    EXPECT_NE(what.find("partition 0"), std::string::npos) << what;
    EXPECT_NE(what.find("made no progress"), std::string::npos) << what;
  }
  query->Finish("killed");

  bool found = false;
  for (const QueryRecord& r : engine.QueryRecords()) {
    if (r.id != id) continue;
    found = true;
    EXPECT_EQ(r.status, "CANCELLED");
    EXPECT_EQ(r.error_code, "RESOURCE_EXHAUSTED");
    EXPECT_TRUE(r.stalled);
    EXPECT_NE(r.error.find("watchdog"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("stuck_task_timeout_ms=250"), std::string::npos)
        << r.error;
  }
  EXPECT_TRUE(found);
  EXPECT_GE(engine.registry().Counter("ssql_watchdog_kills_total").value(), 1);
}

TEST(WatchdogTest, HealthyPollingTaskIsNeverKilled) {
  // A task that runs far longer than stuck_task_timeout_ms but heartbeats
  // the whole way must not be touched: the watchdog measures progress, not
  // runtime (that is task_timeout_ms's job).
  EngineConfig config;
  config.num_threads = 2;
  config.watchdog_interval_ms = 10;
  config.stuck_task_timeout_ms = 100;
  ExecContext engine(config);
  QueryContextPtr query = engine.BeginQuery();
  QueryContext& ctx = *query;
  const uint64_t id = ctx.query_id();
  std::vector<Row> rows;
  rows.push_back(Row({Value(int32_t(1))}));
  RowDataset d = RowDataset::SinglePartition(std::move(rows));
  RowDataset out = d.MapPartitions(
      ctx,
      [&](size_t, const RowPartition& part) {
        for (int i = 0; i < 150; ++i) {  // ~300 ms, 3x the stuck budget
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          ctx.CheckCancelled();  // heartbeat
        }
        return std::make_shared<RowPartition>(part);
      },
      "healthy");
  EXPECT_EQ(out.TotalRows(), 1u);
  query->Finish("ok");
  for (const QueryRecord& r : engine.QueryRecords()) {
    if (r.id != id) continue;
    EXPECT_EQ(r.status, "FINISHED");
    EXPECT_FALSE(r.stalled);
  }
  EXPECT_EQ(engine.registry().Counter("ssql_watchdog_kills_total").value(), 0);
}

// ---- corrupt-kind fault rules ----------------------------------------------

TEST(FaultPointSetCorruptTest, GrammarAcceptsCorruptAndRejectsUnknownKinds) {
  EXPECT_NO_THROW(FaultPointSet::Parse("spill.read=n1:corrupt"));
  EXPECT_NO_THROW(FaultPointSet::Parse("source.read=p0.5:corrupt,seed=7"));
  try {
    FaultPointSet::Parse("spill.read=n1:banana");
    FAIL() << "expected ExecutionError";
  } catch (const ExecutionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("'spill.read=n1:banana'"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown error kind 'banana'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("corrupt"), std::string::npos) << what;  // listed
  }
}

TEST(FaultPointSetCorruptTest, MaybeFailIgnoresCorruptRules) {
  FaultPointSet set = FaultPointSet::Parse("spill.read=n1:corrupt");
  // Throw-style probes at the same site neither fire the corrupt rule nor
  // consume its hit window...
  for (int i = 0; i < 5; ++i) {
    EXPECT_NO_THROW(set.MaybeFail("spill.read", "probe"));
  }
  EXPECT_EQ(set.fired(), 0u);
  // ... so the first MaybeCorrupt call is still hit n1 and fires.
  std::string buffer = "the quick brown fox";
  const std::string original = buffer;
  EXPECT_TRUE(set.MaybeCorrupt("spill.read", &buffer));
  EXPECT_EQ(set.fired(), 1u);
  ASSERT_EQ(buffer.size(), original.size());
  int flipped_bits = 0;
  for (size_t i = 0; i < buffer.size(); ++i) {
    unsigned char diff =
        static_cast<unsigned char>(buffer[i] ^ original[i]);
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);  // exactly one bit of rot
  // The window is spent: later frames pass through untouched.
  std::string later = buffer;
  EXPECT_FALSE(set.MaybeCorrupt("spill.read", &buffer));
  EXPECT_EQ(buffer, later);
}

TEST(FaultPointSetCorruptTest, CorruptRulesIgnoreOtherSites) {
  FaultPointSet set = FaultPointSet::Parse("spill.read=*:corrupt");
  std::string buffer = "payload";
  EXPECT_FALSE(set.MaybeCorrupt("source.read", &buffer));
  EXPECT_EQ(buffer, "payload");
  EXPECT_TRUE(set.MaybeCorrupt("spill.read", &buffer));
}

// ---- checksummed spills ----------------------------------------------------

TEST(SpillCrcTest, RowsRoundTripThroughTheChecksummedFrames) {
  std::string dir = ::testing::TempDir() + "/spill_crc_roundtrip";
  SpillFile file(dir, "rt");
  std::vector<Row> rows;
  rows.push_back(Row({Value("hello spill"), Value(int32_t(7)), Value()}));
  rows.push_back(Row({Value(3.25), Value(true), Value(int64_t(1) << 40)}));
  rows.push_back(Row({Value(std::string(1000, 'x')), Value(int32_t(-1)),
                      Value("tail")}));
  for (const Row& r : rows) file.Append(r);
  file.FinishWrites();
  SpillFile::Reader reader(file);
  Row row;
  size_t n = 0;
  while (reader.Next(&row)) {
    ASSERT_LT(n, rows.size());
    EXPECT_EQ(row.ToString(), rows[n].ToString());
    ++n;
  }
  EXPECT_EQ(n, rows.size());
}

TEST(SpillCrcTest, OnDiskBitRotSurfacesAsIoError) {
  // Flip one payload byte of the finished file behind SpillFile's back: the
  // reader must refuse the frame, never hand back silently wrong rows.
  std::string dir = ::testing::TempDir() + "/spill_crc_rot";
  SpillFile file(dir, "rot");
  file.Append(Row({Value("a row long enough to have a payload to damage"),
                   Value(int32_t(42))}));
  file.FinishWrites();
  {
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(12);  // past the 8-byte frame header, inside the payload
    char byte = 0;
    f.seekg(12);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(12);
    f.write(&byte, 1);
  }
  SpillFile::Reader reader(file);
  Row row;
  try {
    reader.Next(&row);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find(file.path()), std::string::npos) << what;
  }
}

TEST(SpillCrcTest, InjectedCorruptionTripsTheChecksum) {
  // The corrupt fault kind flips a bit of the in-memory frame after the read
  // but before verification — exercising the same detection path without
  // touching the file.
  std::string dir = ::testing::TempDir() + "/spill_crc_inject";
  FaultPointSet faults = FaultPointSet::Parse("spill.read=n2:corrupt,seed=9");
  SpillFile::Hooks hooks;
  hooks.faults = &faults;
  SpillFile file(dir, "inject", hooks);
  for (int i = 0; i < 4; ++i) {
    file.Append(Row({Value("frame payload number " + std::to_string(i))}));
  }
  file.FinishWrites();
  SpillFile::Reader reader(file);
  Row row;
  EXPECT_TRUE(reader.Next(&row));  // frame 1 (hit n1) is clean
  EXPECT_THROW(reader.Next(&row), IoError);  // frame 2 is rotted
  EXPECT_EQ(faults.fired(), 1u);
}

// Spill-heavy queries with a corrupt rule armed at spill.read: each of the
// three out-of-core consumers (hash aggregate, external sort, hash join)
// must surface the rot as a loud checksum error, and run clean again once
// the rule is removed. Mirrors test_memory.cc's SpillQueryTest data shape.
class SpillCorruptionQueryTest : public ::testing::Test {
 protected:
  SpillCorruptionQueryTest() {
    ctx_.UpdateConfig([&](EngineConfig& c) {
      c.num_threads = 4;
      c.default_parallelism = 4;
    });
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

  void ExpectChecksumFailureThenCleanRun(const std::string& sql,
                                         int64_t limit_bytes) {
    ctx_.UpdateConfig([&](EngineConfig& c) {
      c.query_memory_limit_bytes = limit_bytes;
      c.fault_injection_spec = "spill.read=n1:corrupt,seed=3";
    });
    try {
      ctx_.Sql(sql).Collect();
      FAIL() << "expected a checksum failure for: " << sql;
    } catch (const SsqlError& e) {
      EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                std::string::npos)
          << e.what();
    }
    // Same query, same memory pressure, no rot: must succeed and spill.
    ctx_.UpdateConfig(
        [&](EngineConfig& c) { c.fault_injection_spec.clear(); });
    EXPECT_FALSE(ctx_.Sql(sql).Collect().empty()) << sql;
    EXPECT_GT(ctx_.last_profile().Total(ProfileCounter::kSpillBytes), 0) << sql;
    ctx_.UpdateConfig(
        [&](EngineConfig& c) { c.query_memory_limit_bytes = -1; });
  }

  SqlContext ctx_;
};

TEST_F(SpillCorruptionQueryTest, AggregateSpillDetectsRot) {
  ExpectChecksumFailureThenCleanRun(
      "SELECT k, sum(v), count(*) FROM t GROUP BY k", 64 * 1024);
}

TEST_F(SpillCorruptionQueryTest, SortSpillDetectsRot) {
  ExpectChecksumFailureThenCleanRun("SELECT k, v FROM t ORDER BY v, k",
                                    64 * 1024);
}

TEST_F(SpillCorruptionQueryTest, JoinSpillDetectsRot) {
  ExpectChecksumFailureThenCleanRun(
      "SELECT t.k, t.v, dim.w FROM t JOIN dim ON t.k = dim.k", 48 * 1024);
}

// ---- straggler-defense config validation -----------------------------------

TEST(StragglerConfigTest, KnobsAreValidated) {
  {
    EngineConfig c;
    c.speculation_quantile = 1.5;
    EXPECT_THROW(ExecContext e(c), ExecutionError);
  }
  {
    EngineConfig c;
    c.speculation_quantile = -0.1;
    EXPECT_THROW(ExecContext e(c), ExecutionError);
  }
  {
    EngineConfig c;
    c.watchdog_interval_ms = 0;
    try {
      ExecContext e(c);
      FAIL() << "expected ExecutionError";
    } catch (const ExecutionError& e) {
      EXPECT_NE(std::string(e.what()).find("watchdog_interval_ms"),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace ssql
