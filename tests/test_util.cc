// Utility-layer tests (string helpers, status/exception mapping) plus the
// CREATE TEMPORARY VIEW statement and error-propagation from data sources.

#include <gtest/gtest.h>

#include "api/sql_context.h"
#include "datasources/data_source.h"
#include "util/fault_points.h"
#include "util/spill_file.h"
#include "util/status.h"
#include "util/string_util.h"

namespace ssql {
namespace {

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("MiXeD123"), "mixed123");
  EXPECT_EQ(ToUpper("MiXeD123"), "MIXED123");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abcd"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(StringUtilTest, SplitVariants) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_EQ(JoinStrings({"x", "y", "z"}, "."), "x.y.z");
  EXPECT_EQ(JoinStrings({}, "."), "");
}

TEST(StringUtilTest, TrimAndParse) {
  EXPECT_EQ(Trim("  abc  "), "abc");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("\t\n"), "");
  int64_t i = 0;
  EXPECT_TRUE(ParseInt64("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseInt64("42x", &i));
  EXPECT_FALSE(ParseInt64("", &i));
  double d = 0;
  EXPECT_TRUE(ParseDouble("2.5e3", &d));
  EXPECT_DOUBLE_EQ(d, 2500.0);
  EXPECT_FALSE(ParseDouble("2.5.3", &d));
}

TEST(StringUtilTest, LikeMatchEdgeCases) {
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "a%%c"));  // consecutive % collapse
  EXPECT_TRUE(LikeMatch("a%c", "a\\%c"));  // escaped literal %
  EXPECT_FALSE(LikeMatch("abc", "a\\%c"));
  EXPECT_TRUE(LikeMatch("anything", "%%%"));
}

TEST(StatusTest, ThrowMapping) {
  EXPECT_NO_THROW(Status::OK().ThrowIfError());
  EXPECT_THROW(Status::AnalysisError("x").ThrowIfError(), AnalysisError);
  EXPECT_THROW(Status::ParseError("x").ThrowIfError(), ParseError);
  EXPECT_THROW(Status::IoError("x").ThrowIfError(), IoError);
  EXPECT_THROW(Status::ExecutionError("x").ThrowIfError(), ExecutionError);
  EXPECT_THROW(Status::InvalidArgument("x").ThrowIfError(),
               InvalidArgumentError);
  EXPECT_THROW(Status::NotImplemented("x").ThrowIfError(),
               NotImplementedError);
  EXPECT_THROW(Status::ResourceExhausted("x").ThrowIfError(),
               ResourceExhausted);
  EXPECT_EQ(Status::AnalysisError("msg").ToString(), "ANALYSIS_ERROR: msg");
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

TEST(StatusTest, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kOk), "OK");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kAnalysisError), "ANALYSIS_ERROR");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kParseError), "PARSE_ERROR");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kExecutionError), "EXECUTION_ERROR");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kIoError), "IO_ERROR");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kNotImplemented), "NOT_IMPLEMENTED");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
}

TEST(StatusTest, TaxonomyRoundTripsThroughExceptionAndBack) {
  // Status -> exception (ThrowIfError) -> Status (FromException) must
  // preserve the code for every member of the taxonomy.
  const ErrorCode codes[] = {
      ErrorCode::kAnalysisError,    ErrorCode::kParseError,
      ErrorCode::kExecutionError,   ErrorCode::kIoError,
      ErrorCode::kInvalidArgument,  ErrorCode::kNotImplemented,
      ErrorCode::kResourceExhausted};
  for (ErrorCode code : codes) {
    Status original(code, "boom");
    try {
      original.ThrowIfError();
      FAIL() << "expected a throw for " << ErrorCodeName(code);
    } catch (const SsqlError& e) {
      EXPECT_EQ(e.code(), code) << ErrorCodeName(code);
      Status back = Status::FromException(e);
      EXPECT_EQ(back.code(), code) << ErrorCodeName(code);
      EXPECT_EQ(back.message(), "boom");
    }
  }
  // Non-SsqlError exceptions collapse to kExecutionError.
  std::runtime_error plain("plain");
  EXPECT_EQ(Status::FromException(plain).code(), ErrorCode::kExecutionError);
}

TEST(StatusTest, ResourceExhaustedIsCatchableAsExecutionError) {
  // Pre-taxonomy handler sites catch ExecutionError; the refined subtype
  // must still land there — with its own code intact.
  try {
    throw ResourceExhausted("quota gone");
  } catch (const ExecutionError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
  }
  // But it is NOT retryable and NOT an IoError: neither retry loop may
  // spin on exhaustion.
  EXPECT_THROW(
      {
        try {
          throw ResourceExhausted("x");
        } catch (const RetryableError&) {
        } catch (const IoError&) {
        }
      },
      ResourceExhausted);
}

TEST(FaultPointTest, ParseRejectsMalformedSpecsQuotingTheEntry) {
  auto expect_bad = [](const std::string& spec, const std::string& token) {
    try {
      FaultPointSet::Parse(spec);
      FAIL() << "expected ExecutionError for spec: " << spec;
    } catch (const ExecutionError& e) {
      EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
          << "message '" << e.what() << "' should quote '" << token << "'";
    }
  };
  expect_bad("spill.write=", "spill.write=");
  expect_bad("=*", "=*");
  expect_bad("spill.write=q7", "q7");
  expect_bad("spill.write=n0", "n0");
  expect_bad("spill.write=n5-3", "n5-3");
  expect_bad("spill.write=p1.5", "p1.5");
  expect_bad("spill.write=*:fancy", "fancy");
  expect_bad("spill.write=*:io:extra", "extra");
  expect_bad("seed=-3", "seed=-3");
  // Empty entries are skipped; a task rule is a rule too.
  EXPECT_FALSE(FaultPointSet::Parse(" , ,").enabled());
  EXPECT_TRUE(FaultPointSet::Parse("stage:0:1, ,").enabled());
  EXPECT_TRUE(FaultPointSet::Parse("stage:0:1,spill.write=*").enabled());
}

TEST(FaultPointTest, TriggersAndKinds) {
  // Nth-hit window with default (io) kind.
  FaultPointSet set = FaultPointSet::Parse("spill.write=n2-3");
  EXPECT_NO_THROW(set.MaybeFail("spill.write", "f"));  // hit 1
  EXPECT_THROW(set.MaybeFail("spill.write", "f"), IoError);  // hit 2
  EXPECT_THROW(set.MaybeFail("spill.write", "f"), IoError);  // hit 3
  EXPECT_NO_THROW(set.MaybeFail("spill.write", "f"));  // hit 4
  EXPECT_EQ(set.fired(), 2u);

  // Every-hit with explicit kinds; non-matching sites are untouched.
  EXPECT_THROW(FaultPointSet::Parse("source.open=*:retryable")
                   .MaybeFail("source.open", "x"),
               RetryableError);
  EXPECT_THROW(
      FaultPointSet::Parse("spill.*=*:enospc").MaybeFail("spill.read", "x"),
      ResourceExhausted);
  EXPECT_NO_THROW(
      FaultPointSet::Parse("spill.*=*").MaybeFail("source.read", "x"));
  EXPECT_THROW(FaultPointSet::Parse("*=*").MaybeFail("anything.at.all", "x"),
               IoError);

  // Error text names the site and detail.
  try {
    FaultPointSet::Parse("source.read=*").MaybeFail("source.read", "/a/b.csv");
    FAIL();
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("source.read"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("/a/b.csv"), std::string::npos);
  }
}

TEST(FaultPointTest, SeededProbabilityModeIsDeterministic) {
  auto run = [](const std::string& spec) {
    FaultPointSet set = FaultPointSet::Parse(spec);
    std::vector<bool> decisions;
    for (int i = 0; i < 200; ++i) {
      try {
        set.MaybeFail("source.read", "f");
        decisions.push_back(false);
      } catch (const IoError&) {
        decisions.push_back(true);
      }
    }
    return decisions;
  };
  auto a = run("source.read=p0.25,seed=42");
  auto b = run("source.read=p0.25,seed=42");
  auto c = run("source.read=p0.25,seed=43");
  EXPECT_EQ(a, b);  // same seed replays the same per-hit decisions
  EXPECT_NE(a, c);  // a different seed decides differently
  int fires = 0;
  for (bool d : a) fires += d;
  EXPECT_GT(fires, 10);   // p=0.25 over 200 hits: wildly off means broken
  EXPECT_LT(fires, 100);
}

TEST(DiskQuotaTest, TwoLevelChargeAndRollback) {
  DiskQuota engine;
  engine.Configure(1000);
  DiskQuota q1, q2;
  q1.Configure(-1, &engine);
  q2.Configure(-1, &engine);

  EXPECT_TRUE(q1.TryCharge(600));
  EXPECT_EQ(engine.used_bytes(), 600);
  // Sibling denied by the shared pool: no partial charge may remain.
  EXPECT_FALSE(q2.TryCharge(500));
  EXPECT_EQ(q2.used_bytes(), 0);
  EXPECT_EQ(engine.used_bytes(), 600);
  // Smaller sibling charge still fits.
  EXPECT_TRUE(q2.TryCharge(400));
  EXPECT_EQ(engine.used_bytes(), 1000);
  // Releases propagate to the parent.
  q1.Release(600);
  EXPECT_EQ(engine.used_bytes(), 400);
  EXPECT_TRUE(q1.TryCharge(100));
  q1.Release(100);
  q2.Release(400);
  EXPECT_EQ(engine.used_bytes(), 0);
}

TEST(IoRetryTest, RetriesTransientErrorsThenSucceeds) {
  IoRetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_ms = 0;  // no sleeping in tests
  std::vector<int> observed;
  policy.on_retry = [&](int retry, const std::string&) {
    observed.push_back(retry);
  };
  int attempts = 0;
  RunWithIoRetry(policy, "flaky op", [&] {
    if (++attempts < 3) throw IoError("transient");
  });
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(observed, (std::vector<int>{1, 2}));
}

TEST(IoRetryTest, GivesUpAfterMaxRetriesAndSkipsNonRetryable) {
  IoRetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_ms = 0;
  int attempts = 0;
  EXPECT_THROW(RunWithIoRetry(policy, "doomed",
                              [&] {
                                ++attempts;
                                throw IoError("always");
                              }),
               IoError);
  EXPECT_EQ(attempts, 3);  // 1 try + 2 retries

  // RetryableError is also retried...
  attempts = 0;
  RunWithIoRetry(policy, "flaky", [&] {
    if (++attempts < 2) throw RetryableError("transient");
  });
  EXPECT_EQ(attempts, 2);

  // ...but exhaustion and parse errors propagate immediately: waiting will
  // not un-fill a disk or fix syntax.
  attempts = 0;
  EXPECT_THROW(RunWithIoRetry(policy, "exhausted",
                              [&] {
                                ++attempts;
                                throw ResourceExhausted("full");
                              }),
               ResourceExhausted);
  EXPECT_EQ(attempts, 1);
  attempts = 0;
  EXPECT_THROW(RunWithIoRetry(policy, "bad syntax",
                              [&] {
                                ++attempts;
                                throw ParseError("nope");
                              }),
               ParseError);
  EXPECT_EQ(attempts, 1);
}

TEST(CreateViewTest, CreateTempViewAsSelect) {
  SqlContext ctx;
  auto schema = StructType::Make({Field("x", DataType::Int32(), false)});
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(Row({Value(int32_t(i))}));
  ctx.CreateDataFrame(schema, rows).RegisterTempTable("base");

  ctx.Sql("CREATE TEMPORARY VIEW big AS SELECT x FROM base WHERE x >= 5");
  EXPECT_EQ(ctx.Sql("SELECT count(*) FROM big").Collect()[0].GetInt64(0), 5);

  // TABLE spelling works too, and views compose.
  ctx.Sql(
      "CREATE TEMPORARY TABLE bigger AS SELECT x + 1 AS y FROM big WHERE x > 7");
  auto rows2 = ctx.Sql("SELECT y FROM bigger ORDER BY y").Collect();
  ASSERT_EQ(rows2.size(), 2u);
  EXPECT_EQ(rows2[0].GetInt32(0), 9);
  EXPECT_EQ(rows2[1].GetInt32(0), 10);

  // Bad view bodies fail at CREATE time (eager analysis).
  EXPECT_THROW(ctx.Sql("CREATE TEMPORARY VIEW broken AS SELECT nope FROM base"),
               AnalysisError);
}

TEST(FailureInjectionTest, SourceErrorsPropagateCleanly) {
  /// A source that fails mid-scan; the worker-pool error must surface as
  /// the original exception on the driver.
  class FailingRelation : public BaseRelation, public TableScan {
   public:
    std::string name() const override { return "failing"; }
    SchemaPtr schema() const override {
      return StructType::Make({Field("x", DataType::Int32(), false)});
    }
    std::vector<Row> ScanAll(QueryContext&) const override {
      throw IoError("disk exploded");
    }
  };
  SqlContext ctx;
  DataFrame df(&ctx, LogicalRelation::Make(std::make_shared<FailingRelation>()));
  df.RegisterTempTable("failing");
  try {
    ctx.Sql("SELECT count(*) FROM failing").Collect();
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("disk exploded"), std::string::npos);
  }
  // The context stays usable after a failed query.
  EXPECT_EQ(ctx.Sql("SELECT 1").Collect().size(), 1u);
}

TEST(FailureInjectionTest, UdfErrorsPropagate) {
  SqlContext ctx;
  auto schema = StructType::Make({Field("x", DataType::Int32(), false)});
  ctx.CreateDataFrame(schema, {Row({Value(int32_t{1})})})
      .RegisterTempTable("t");
  ctx.RegisterUdf("boom", DataType::Int32(),
                  [](const std::vector<Value>&) -> Value {
                    throw ExecutionError("udf failure");
                  });
  EXPECT_THROW(ctx.Sql("SELECT boom(x) FROM t").Collect(), ExecutionError);
}

}  // namespace
}  // namespace ssql
