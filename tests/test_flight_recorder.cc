// The flight recorder and its consumers. Covers: EventJournal ring
// semantics (wraparound, drop counter, disable, reconfigure), the
// concurrent-emitter stress that is the ThreadSanitizer target (N writer
// threads + snapshot readers, then N query threads scanned through
// system.events), the system.events / system.metrics_history virtual
// tables with filter pushdown, the background metrics sampler, the
// enriched query.slow log line, Chrome-trace instant events, and
// dump-on-anomaly diagnostics bundles (automatic on failure, manual via
// SqlContext::WriteDiagnosticsBundle). Run under both sanitizers in CI
// (scripts/check.sh).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/sql_context.h"
#include "engine/diagnostics.h"
#include "util/event_journal.h"
#include "util/log.h"

namespace ssql {
namespace {

namespace fs = std::filesystem;

std::string UniqueScratchDir(const std::string& tag) {
  return ::testing::TempDir() + "/ssql-fr-" + tag + "-" +
         std::to_string(::getpid());
}

std::string ReadFileOrEmpty(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return "";
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return content;
}

EngineConfig SmallConfig() {
  EngineConfig config;
  config.num_threads = 2;
  config.default_parallelism = 3;
  return config;
}

void RegisterNumbers(SqlContext& ctx, int n = 64) {
  auto schema = StructType::Make({
      Field("k", DataType::Int64(), false),
      Field("v", DataType::Int64(), false),
  });
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row({Value(int64_t{i}), Value(int64_t{i * 7})}));
  }
  ctx.CreateDataFrame(schema, std::move(rows)).RegisterTempTable("numbers");
}

// ---- EventJournal units ----------------------------------------------------

TEST(EventJournalTest, DisabledJournalRecordsNothing) {
  EventJournal journal(0);
  EXPECT_FALSE(journal.enabled());
  EXPECT_EQ(journal.capacity(), 0u);
  journal.Emit(EngineEventKind::kTaskStart, EventSeverity::kDebug, 1, 0, "x");
  EXPECT_EQ(journal.appended(), 0u);
  EXPECT_EQ(journal.dropped(), 0u);
  EXPECT_TRUE(journal.Snapshot().empty());
}

TEST(EventJournalTest, EmitPopulatesEveryField) {
  EventJournal journal(64);
  EXPECT_TRUE(journal.enabled());
  journal.Emit(EngineEventKind::kSpillWrite, EventSeverity::kInfo, 42, 4096,
               "agg-partial");
  auto events = journal.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EngineEventKind::kSpillWrite);
  EXPECT_EQ(events[0].severity, EventSeverity::kInfo);
  EXPECT_EQ(events[0].query_id, 42u);
  EXPECT_EQ(events[0].value, 4096);
  EXPECT_STREQ(events[0].detail, "agg-partial");
  EXPECT_GT(events[0].unix_ms, 0);
}

TEST(EventJournalTest, LongDetailIsTruncatedNotRejected) {
  EventJournal journal(64);
  std::string detail(200, 'x');
  journal.Emit(EngineEventKind::kIoRetry, EventSeverity::kWarn, 1, 0, detail);
  auto events = journal.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  std::string stored(events[0].detail);
  EXPECT_EQ(stored.size(), sizeof(events[0].detail) - 1);
  EXPECT_EQ(stored, detail.substr(0, stored.size()));
}

TEST(EventJournalTest, WraparoundKeepsNewestAndCountsDrops) {
  // 16 total slots over 8 shards = 2 per shard; a single emitting thread
  // lands in exactly one shard, so its ring holds the 2 newest events.
  EventJournal journal(16);
  for (int i = 0; i < 10; ++i) {
    journal.Emit(EngineEventKind::kTaskStart, EventSeverity::kDebug, 1, i,
                 "stage");
  }
  EXPECT_EQ(journal.appended(), 10u);
  EXPECT_EQ(journal.dropped(), 8u);
  auto events = journal.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(journal.appended() - journal.dropped(), events.size());
  // The survivors are the newest, in seq order.
  EXPECT_EQ(events[0].value, 8);
  EXPECT_EQ(events[1].value, 9);
  EXPECT_LT(events[0].seq, events[1].seq);
}

TEST(EventJournalTest, ReconfigureDiscardsAndResets) {
  EventJournal journal(64);
  for (int i = 0; i < 5; ++i) {
    journal.Emit(EngineEventKind::kQueryBegin, EventSeverity::kInfo, 1, 0, "");
  }
  EXPECT_EQ(journal.appended(), 5u);
  journal.Configure(32);
  EXPECT_EQ(journal.appended(), 0u);
  EXPECT_EQ(journal.dropped(), 0u);
  EXPECT_TRUE(journal.Snapshot().empty());
  journal.Configure(0);
  EXPECT_FALSE(journal.enabled());
  journal.Emit(EngineEventKind::kQueryBegin, EventSeverity::kInfo, 1, 0, "");
  EXPECT_EQ(journal.appended(), 0u);
}

// The ThreadSanitizer stress: writers on every shard racing snapshot
// readers and a mid-flight Configure. The post-join accounting invariant
// (appended - dropped == snapshot size) must hold exactly once the
// emitters are quiesced.
TEST(EventJournalTest, ConcurrentEmittersAndReaders) {
  constexpr int kWriters = 8;
  constexpr int kEmitsPerWriter = 5000;
  EventJournal journal(1024);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&journal, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        auto events = journal.Snapshot();
        // Seq order must survive the per-shard merge.
        for (size_t i = 1; i < events.size(); ++i) {
          ASSERT_LT(events[i - 1].seq, events[i].seq);
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&journal, w] {
      for (int i = 0; i < kEmitsPerWriter; ++i) {
        journal.Emit(EngineEventKind::kTaskStart, EventSeverity::kDebug,
                     static_cast<uint64_t>(w + 1), i, "stress");
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(journal.appended(),
            static_cast<uint64_t>(kWriters) * kEmitsPerWriter);
  auto events = journal.Snapshot();
  EXPECT_EQ(journal.appended() - journal.dropped(), events.size());
  EXPECT_LE(events.size(), journal.capacity());
}

// ---- config validation -----------------------------------------------------

TEST(FlightRecorderConfigTest, AbsurdJournalCapacityIsRejected) {
  EngineConfig config = SmallConfig();
  config.event_journal_capacity = (size_t{1} << 24) + 1;
  EXPECT_THROW(ValidateEngineConfig(config), ExecutionError);
  config.event_journal_capacity = 0;  // 0 = disabled, valid
  ValidateEngineConfig(config);
}

// ---- system.events ---------------------------------------------------------

TEST(SystemEventsTest, QueryLifecycleShowsUpInTheJournal) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx);
  ctx.Sql("SELECT sum(v) FROM numbers").Collect();

  auto rows = ctx.Sql("SELECT kind, query_id, severity FROM system.events "
                      "WHERE kind = 'query.finish'")
                  .Collect();
  ASSERT_GE(rows.size(), 1u);
  for (const Row& r : rows) {
    EXPECT_EQ(r.GetString(0), "query.finish");
    EXPECT_GT(r.GetInt64(1), 0);
    EXPECT_EQ(r.GetString(2), "INFO");
  }

  // Task lifecycle events from the same run, filtered by pushdown.
  auto tasks = ctx.Sql("SELECT kind FROM system.events "
                       "WHERE kind = 'task.start'")
                   .Collect();
  EXPECT_GE(tasks.size(), 1u);
}

TEST(SystemEventsTest, SeqColumnIsStrictlyIncreasing) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx);
  ctx.Sql("SELECT count(*) FROM numbers").Collect();
  auto rows = ctx.Sql("SELECT seq FROM system.events ORDER BY seq").Collect();
  ASSERT_GE(rows.size(), 2u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].GetInt64(0), rows[i].GetInt64(0));
  }
}

TEST(SystemEventsTest, DisabledJournalServesAnEmptyTable) {
  EngineConfig config = SmallConfig();
  config.event_journal_capacity = 0;
  SqlContext ctx(config);
  RegisterNumbers(ctx);
  ctx.Sql("SELECT sum(v) FROM numbers").Collect();
  auto rows = ctx.Sql("SELECT * FROM system.events").Collect();
  EXPECT_TRUE(rows.empty());
}

// The tentpole's concurrency claim: system.events answers queries while
// N threads churn the journal. TSan target.
TEST(SystemEventsTest, ScanWhileEmittersChurn) {
  SqlContext ctx(SmallConfig());
  RegisterNumbers(ctx);

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 5;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ctx] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        ctx.Sql("SELECT k, sum(v) FROM numbers GROUP BY k").Collect();
      }
    });
  }
  for (int i = 0; i < 10; ++i) {
    auto rows = ctx.Sql("SELECT kind, count(*) FROM system.events "
                        "GROUP BY kind")
                    .Collect();
    EXPECT_LE(rows.size(), 32u);  // bounded by the number of kinds
  }
  for (auto& t : workers) t.join();

  // Quiesced: the accounting invariant holds exactly.
  const EventJournal& journal = ctx.exec().journal();
  EXPECT_EQ(journal.appended() - journal.dropped(),
            journal.Snapshot().size());
}

// ---- system.metrics_history / sampler --------------------------------------

TEST(MetricsHistoryTest, SamplerFillsTheRing) {
  EngineConfig config = SmallConfig();
  config.metrics_sample_interval_ms = 10;
  SqlContext ctx(config);
  RegisterNumbers(ctx);
  ctx.Sql("SELECT sum(v) FROM numbers").Collect();
  // Wait for a sample taken after that query started — the sampler's
  // first tick can predate it (especially under sanitizer slowdown).
  bool sampled = false;
  for (int i = 0; i < 500 && !sampled; ++i) {
    for (const auto& sample : ctx.exec().MetricsHistory()) {
      for (const auto& metric : sample.metrics) {
        if (metric.name == "ssql_queries_started_total" &&
            metric.value >= 1) {
          sampled = true;
        }
      }
    }
    if (!sampled) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(sampled);
  auto history = ctx.exec().MetricsHistory();
  ASSERT_GE(history.size(), 1u);
  EXPECT_LE(history.size(), ExecContext::kMetricsHistoryCapacity);
  EXPECT_GT(history.front().unix_ms, 0);
  EXPECT_FALSE(history.front().metrics.empty());

  auto rows = ctx.Sql("SELECT sample_unix_ms, name, value FROM "
                      "system.metrics_history "
                      "WHERE name = 'ssql_queries_started_total'")
                  .Collect();
  ASSERT_GE(rows.size(), 1u);
  int64_t max_value = 0;
  for (const Row& r : rows) max_value = std::max(max_value, r.GetInt64(2));
  EXPECT_GE(max_value, 1);
}

TEST(MetricsHistoryTest, DisabledSamplerStaysEmptyUntilForced) {
  EngineConfig config = SmallConfig();
  config.metrics_sample_interval_ms = -1;
  SqlContext ctx(config);
  EXPECT_TRUE(ctx.exec().MetricsHistory().empty());
  // Manual sampling still works with the background thread idle.
  ctx.exec().SampleMetricsNow();
  EXPECT_EQ(ctx.exec().MetricsHistory().size(), 1u);
}

TEST(MetricsHistoryTest, RingIsBounded) {
  EngineConfig config = SmallConfig();
  config.metrics_sample_interval_ms = -1;
  SqlContext ctx(config);
  for (size_t i = 0; i < ExecContext::kMetricsHistoryCapacity + 16; ++i) {
    ctx.exec().SampleMetricsNow();
  }
  EXPECT_EQ(ctx.exec().MetricsHistory().size(),
            ExecContext::kMetricsHistoryCapacity);
}

// ---- enriched slow-query log -----------------------------------------------

TEST(SlowQueryLogTest, LineCarriesErrorCodeSpillAndMisestimate) {
  LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  std::vector<std::string> lines;
  SetLogSink([&lines](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  {
    EngineConfig config = SmallConfig();
    config.slow_query_threshold_ms = 0;  // every query is "slow"
    SqlContext ctx(config);
    RegisterNumbers(ctx, 8);
    ctx.Sql("SELECT k, sum(v) FROM numbers GROUP BY k").Collect();
  }
  SetLogSink(nullptr);
  SetLogLevel(saved);
  std::string slow_line;
  for (const auto& line : lines) {
    if (line.find("query.slow") != std::string::npos) slow_line = line;
  }
  ASSERT_FALSE(slow_line.empty());
  EXPECT_NE(slow_line.find("error_code=OK"), std::string::npos) << slow_line;
  EXPECT_NE(slow_line.find("spill_bytes="), std::string::npos) << slow_line;
  EXPECT_NE(slow_line.find("worst_misestimate="), std::string::npos)
      << slow_line;
}

// ---- Chrome trace instants -------------------------------------------------

TEST(TraceInstantTest, InstantEventsRenderWithoutDuration) {
  std::vector<TraceEvent> events;
  TraceEvent span;
  span.name = "op";
  span.ts_us = 10;
  span.dur_us = 5;
  events.push_back(span);
  TraceEvent instant;
  instant.name = "task.retry";
  instant.phase = 'i';
  instant.ts_us = 12;
  events.push_back(instant);
  std::string json = ChromeTraceJson(events);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  // The instant must not carry a duration.
  size_t at = json.find("task.retry");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(json.find("\"dur\"", at), std::string::npos);
}

TEST(TraceInstantTest, ProfileInstantsReachTheTraceExport) {
  QueryProfile profile;
  ProfileSpan* span = profile.BeginSpan(SpanKind::kOperator, "Scan");
  profile.AddInstant("task.retry", "task",
                     {{"stage", "scan"}, {"attempt", "1"}});
  profile.EndSpan(span);
  profile.Finish("ok");
  std::string json = profile.ToChromeTraceJson();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("task.retry"), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"scan\""), std::string::npos);
}

// ---- diagnostics bundles ---------------------------------------------------

TEST(DiagBundleTest, FailedQueryWritesACompleteBundle) {
  std::string scratch = UniqueScratchDir("fail");
  fs::remove_all(scratch);
  {
    EngineConfig config = SmallConfig();
    config.diag_dir = scratch;
    SqlContext ctx(config);
    RegisterNumbers(ctx, 8);
    ctx.RegisterUdf("boom", DataType::Int64(),
                    [](const std::vector<Value>&) -> Value {
                      throw ExecutionError("boom udf");
                    });
    EXPECT_THROW(ctx.Sql("SELECT boom(k) FROM numbers").Collect(),
                 ExecutionError);
  }
  ASSERT_TRUE(fs::exists(scratch));
  std::vector<fs::path> bundles;
  for (const auto& entry : fs::directory_iterator(scratch)) {
    bundles.push_back(entry.path());
  }
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_NE(bundles[0].filename().string().find("query_failure"),
            std::string::npos);

  std::string manifest = ReadFileOrEmpty(bundles[0] / "MANIFEST.txt");
  EXPECT_NE(manifest.find("reason=query_failure"), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("status=ERROR"), std::string::npos);

  std::string error = ReadFileOrEmpty(bundles[0] / "error.txt");
  EXPECT_NE(error.find("boom udf"), std::string::npos);

  std::string events = ReadFileOrEmpty(bundles[0] / "events.jsonl");
  EXPECT_NE(events.find("query.finish"), std::string::npos);

  std::string plan = ReadFileOrEmpty(bundles[0] / "plan.txt");
  EXPECT_NE(plan.find("Scan"), std::string::npos) << plan;

  std::string config_txt = ReadFileOrEmpty(bundles[0] / "config.txt");
  EXPECT_NE(config_txt.find("event_journal_capacity="), std::string::npos);

  EXPECT_FALSE(ReadFileOrEmpty(bundles[0] / "profile.json").empty());
  EXPECT_FALSE(ReadFileOrEmpty(bundles[0] / "metrics.prom").empty());
  fs::remove_all(scratch);
}

TEST(DiagBundleTest, NoBundleWhenDirUnsetOrOptedOut) {
  std::string scratch = UniqueScratchDir("optout");
  fs::remove_all(scratch);
  {
    EngineConfig config = SmallConfig();
    config.diag_dir = scratch;
    config.diag_on_failure = false;
    SqlContext ctx(config);
    RegisterNumbers(ctx, 8);
    ctx.RegisterUdf("boom", DataType::Int64(),
                    [](const std::vector<Value>&) -> Value {
                      throw ExecutionError("boom udf");
                    });
    EXPECT_THROW(ctx.Sql("SELECT boom(k) FROM numbers").Collect(),
                 ExecutionError);
  }
  EXPECT_FALSE(fs::exists(scratch));
  fs::remove_all(scratch);
}

TEST(DiagBundleTest, SlowQueryTriggersABundle) {
  std::string scratch = UniqueScratchDir("slow");
  fs::remove_all(scratch);
  {
    EngineConfig config = SmallConfig();
    config.diag_dir = scratch;
    config.slow_query_threshold_ms = 0;  // every query is "slow"
    SqlContext ctx(config);
    RegisterNumbers(ctx, 8);
    ctx.Sql("SELECT count(*) FROM numbers").Collect();
  }
  ASSERT_TRUE(fs::exists(scratch));
  bool saw_slow_bundle = false;
  for (const auto& entry : fs::directory_iterator(scratch)) {
    if (entry.path().filename().string().find("slow_query") !=
        std::string::npos) {
      saw_slow_bundle = true;
      std::string manifest = ReadFileOrEmpty(entry.path() / "MANIFEST.txt");
      EXPECT_NE(manifest.find("reason=slow_query"), std::string::npos);
      EXPECT_NE(manifest.find("status=FINISHED"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_slow_bundle);
  fs::remove_all(scratch);
}

TEST(DiagBundleTest, ManualBundleViaTheApi) {
  std::string scratch = UniqueScratchDir("manual");
  fs::remove_all(scratch);
  EngineConfig config = SmallConfig();
  config.diag_dir = scratch;
  SqlContext ctx(config);
  RegisterNumbers(ctx, 8);
  ctx.Sql("SELECT sum(v) FROM numbers").Collect();

  std::string dir = ctx.WriteDiagnosticsBundle("on_demand");
  ASSERT_FALSE(dir.empty());
  ASSERT_TRUE(fs::exists(dir));
  EXPECT_NE(dir.find("on_demand"), std::string::npos);
  std::string manifest = ReadFileOrEmpty(fs::path(dir) / "MANIFEST.txt");
  EXPECT_NE(manifest.find("reason=on_demand"), std::string::npos);
  EXPECT_NE(manifest.find("status=ENGINE"), std::string::npos);
  EXPECT_FALSE(ReadFileOrEmpty(fs::path(dir) / "metrics.prom").empty());
  EXPECT_FALSE(ReadFileOrEmpty(fs::path(dir) / "events.jsonl").empty());
  fs::remove_all(scratch);
}

TEST(DiagBundleTest, RenderEventsJsonlEscapesAndOrders) {
  std::vector<EngineEvent> events;
  EngineEvent e;
  e.seq = 7;
  e.unix_ms = 1000;
  e.query_id = 3;
  e.kind = EngineEventKind::kIoRetry;
  e.severity = EventSeverity::kWarn;
  e.value = 2;
  std::snprintf(e.detail, sizeof(e.detail), "say \"hi\"");
  events.push_back(e);
  std::string jsonl = RenderEventsJsonl(events);
  EXPECT_NE(jsonl.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"io.retry\""), std::string::npos);
  EXPECT_NE(jsonl.find("\\\"hi\\\""), std::string::npos) << jsonl;
}

}  // namespace
}  // namespace ssql
