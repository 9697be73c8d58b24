#include "engine/query_context.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "engine/diagnostics.h"
#include "util/log.h"
#include "util/trace.h"

namespace ssql {

namespace {

int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

QueryContext::QueryContext(ExecContext& engine, uint64_t query_id,
                           EngineConfig config)
    : engine_(engine),
      query_id_(query_id),
      config_(std::move(config)),
      start_unix_ms_(NowUnixMs()),
      start_steady_ns_(TraceNowNs()),
      cancellation_(std::make_shared<CancellationToken>()) {
  profile_ = std::make_unique<QueryProfile>(config_.profiling_enabled);
  memory_.Configure(config_.query_memory_limit_bytes, config_.spill_enabled,
                    profile_.get(), &engine_.engine_memory());
  // Memory grants/denies for this query land in the engine flight recorder
  // tagged with its id (only this per-query level emits; the engine pool
  // has no query to attribute to).
  memory_.AttachJournal(&engine_.journal(), query_id_);
  // Per-query disk level (unlimited; attribution only) over the engine-wide
  // spill_disk_limit_bytes pool — the disk mirror of the memory setup above.
  disk_.Configure(/*limit_bytes=*/-1, &engine_.disk_quota());
  // The timeout clock starts at admission: time spent queued behind the
  // admission gate does not count against the query's wall-clock budget.
  cancellation_->SetTimeout(config_.query_timeout_ms);
  // The heartbeat clock also starts at admission, so a query that stalls
  // before its first poll (e.g. wedged in a source open) still ages out.
  last_beat_ns_.store(start_steady_ns_, std::memory_order_relaxed);
}

QueryContext::~QueryContext() {
  // Backstop for callers that never reached Finish (exceptions escaping
  // before SqlContext::Execute's handlers, abandoned unit-test queries):
  // the admission slot must be returned and the profile closed.
  Finish("abandoned");
}

int64_t QueryContext::ElapsedMs() const {
  return (TraceNowNs() - start_steady_ns_) / 1'000'000;
}

void QueryContext::CheckCancelled() const {
  // Order matters: publish the heartbeat first so a query that unwinds on
  // the very poll that observed the cancel still reads as having made
  // progress; then the query token (cancel/timeout outranks task state);
  // then the per-attempt poll (attempt heartbeat, lost speculation race,
  // per-task deadline).
  last_beat_ns_.store(TraceNowNs(), std::memory_order_relaxed);
  cancellation_->ThrowIfCancelled();
  PollCurrentTaskAttempt();
}

void QueryContext::RegisterTaskAttempt(TaskAttemptState* attempt) {
  attempt->last_beat_ns.store(TraceNowNs(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(attempts_mu_);
  attempts_.push_back(attempt);
}

void QueryContext::UnregisterTaskAttempt(TaskAttemptState* attempt) {
  // An attempt retiring is itself progress (a stage of serial quick tasks
  // may never hit a poll site between them).
  last_beat_ns_.store(TraceNowNs(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(attempts_mu_);
  attempts_.erase(std::find(attempts_.begin(), attempts_.end(), attempt));
}

QueryContext::TaskStallInfo QueryContext::OldestTaskBeat() const {
  TaskStallInfo info;
  std::lock_guard<std::mutex> lock(attempts_mu_);
  for (const TaskAttemptState* attempt : attempts_) {
    const int64_t beat = attempt->last_beat_ns.load(std::memory_order_relaxed);
    if (!info.has_attempt || beat < info.oldest_beat_ns) {
      info.has_attempt = true;
      info.stage = attempt->stage;
      info.partition = attempt->partition;
      info.oldest_beat_ns = beat;
    }
  }
  return info;
}

int64_t QueryContext::LastHeartbeatAgeMs() const {
  return (TraceNowNs() - last_beat_ns_.load(std::memory_order_relaxed)) /
         1'000'000;
}

std::string QueryContext::spill_dir() const {
  // The pid keeps two processes sharing one tmp root apart; the query id
  // keeps this engine's queries apart.
  return (std::filesystem::path(engine_.spill_root()) /
          ("q" + std::to_string(::getpid()) + "-" +
           std::to_string(query_id_)))
      .string();
}

SpillFile QueryContext::MakeSpillFile(const std::string& prefix) {
  SpillFile::Hooks hooks;
  hooks.faults = &engine_.fault_points();
  hooks.quota = &disk_;
  hooks.consumer = prefix;
  hooks.journal = &engine_.journal();
  hooks.query_id = query_id_;
  return SpillFile(spill_dir(), prefix, std::move(hooks));
}

void QueryContext::set_plan_text(std::string text) {
  std::lock_guard<std::mutex> lock(plan_text_mu_);
  plan_text_ = std::move(text);
}

std::string QueryContext::plan_text() const {
  std::lock_guard<std::mutex> lock(plan_text_mu_);
  return plan_text_;
}

IoRetryPolicy QueryContext::io_retry_policy() {
  IoRetryPolicy policy;
  policy.max_retries = config_.io_max_retries;
  policy.backoff_ms = config_.io_retry_backoff_ms;
  policy.jitter_seed = query_id_;
  // Safe captures: partition tasks (the only users) always finish before
  // this QueryContext or its engine are torn down.
  const uint64_t id = query_id_;
  MetricsRegistry* registry = &engine_.registry();
  EventJournal* journal = &engine_.journal();
  policy.on_retry = [id, registry, journal](int retry,
                                            const std::string& error) {
    registry
        ->Counter("ssql_io_retries_total",
                  "Transient I/O failures retried with backoff")
        .Increment();
    journal->Emit(EngineEventKind::kIoRetry, EventSeverity::kWarn, id, retry,
                  error);
    LogEvent(LogLevel::kWarn, "io.retry",
             {{"query", id},
              {"attempt", static_cast<int64_t>(retry)},
              {"error", error}});
  };
  return policy;
}

std::string ResolveTracePath(const std::string& base, uint64_t query_id) {
  const std::string suffix = "-q" + std::to_string(query_id);
  const size_t slash = base.find_last_of('/');
  const size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return base + suffix;
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

void QueryContext::Finish(const std::string& status, ErrorCode code) {
  bool expected = false;
  if (!finished_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  profile_->Finish(status);
  if (!config_.trace_path.empty()) {
    // Surface flight-recorder loss on the timeline: a query whose events
    // were overwritten before anyone read them gets an instant marker.
    const uint64_t journal_dropped = engine_.journal().dropped();
    if (journal_dropped > 0) {
      profile_->AddInstant("journal.dropped", "journal",
                           {{"dropped_total", std::to_string(journal_dropped)}});
    }
    const std::string path = ResolveTracePath(config_.trace_path, query_id_);
    try {
      engine_.fault_points().MaybeFail("trace.write", path);
      WriteTextFile(path, profile_->ToChromeTraceJson());
      LogEvent(LogLevel::kInfo, "trace.written",
               {{"query", query_id_}, {"path", path}});
    } catch (const std::exception& e) {
      // Observability must not fail the query; injected faults included.
      LogEvent(LogLevel::kWarn, "trace.write_failed",
               {{"query", query_id_}, {"path", path}, {"error", e.what()}});
    }
  }
  const bool slow = config_.slow_query_threshold_ms >= 0 &&
                    profile_->WallNs() / 1'000'000 >=
                        config_.slow_query_threshold_ms;
  // Remove this query's private spill namespace. Operators have unwound by
  // the time Finish runs (their SpillFiles already deleted the run files),
  // so only the empty directory remains — and because the directory is
  // namespaced by query id, this can never delete another query's files.
  std::error_code ec;
  std::filesystem::remove_all(spill_dir(), ec);

  QueryRecord record;
  record.id = query_id_;
  if (status == "ok") {
    record.status = "FINISHED";
  } else if (cancellation_->IsCancelled()) {
    // Covers explicit Cancel(), CancelAllQueries() and timeouts, whatever
    // exception text the unwind produced.
    record.status = "CANCELLED";
    record.error = cancellation_->StatusMessage();
    if (watchdog_killed()) {
      // A watchdog kill is a resource-exhaustion event (a wedged task held
      // its slot past stuck_task_timeout_ms), not a user cancel: give the
      // record the structured code so operators can tell them apart.
      record.error_code = ErrorCodeName(ErrorCode::kResourceExhausted);
    }
  } else if (status == "abandoned") {
    record.status = "ABANDONED";
  } else {
    record.status = "ERROR";
    record.error = status;
    // Structured taxonomy alongside the free-text message. Callers that
    // caught an SsqlError pass its code; anything else reads as a plain
    // execution error.
    record.error_code =
        ErrorCodeName(code == ErrorCode::kOk ? ErrorCode::kExecutionError
                                             : code);
  }
  record.start_unix_ms = start_unix_ms_;
  record.duration_ms = ElapsedMs();
  record.last_heartbeat_ms = LastHeartbeatAgeMs();
  record.stalled = stalled();
  const QueryProfile::Stats stats = profile_->AggregateStats();
  record.rows_out = stats.rows_out;
  record.spill_bytes = stats.spill_bytes;
  record.peak_memory_bytes = stats.peak_reserved_bytes;
  record.operators = profile_->OperatorActuals();

  if (slow) {
    // Enriched so a slow entry is actionable without re-running the query:
    // what failed (error_code), whether it spilled, and how badly the
    // planner's worst cardinality estimate missed.
    LogEvent(LogLevel::kWarn, "query.slow",
             {{"query", query_id_},
              {"summary", profile_->SummaryLine()},
              {"error_code",
               record.error_code.empty() ? std::string("OK")
                                         : record.error_code},
              {"spill_bytes", record.spill_bytes},
              {"worst_misestimate", profile_->WorstMisestimate()}});
  }

  EmitEvent(EngineEventKind::kQueryFinish,
            record.status == "ERROR"       ? EventSeverity::kError
            : record.status == "FINISHED"  ? EventSeverity::kInfo
                                           : EventSeverity::kWarn,
            record.duration_ms,
            record.status +
                (record.error_code.empty() ? "" : ":" + record.error_code));

  // Dump-on-anomaly: a failed, watchdog-killed or slow query leaves a
  // diagnostics bundle behind (journal tail, profile, plan, metrics,
  // config). Gated on an explicit diag_dir so unit tests that fail
  // queries on purpose don't litter the temp dir. Never throws.
  if (config_.diag_on_failure && !config_.diag_dir.empty() &&
      (record.status == "ERROR" || watchdog_killed() || slow)) {
    DiagBundleInput input;
    input.reason = watchdog_killed()              ? "watchdog_kill"
                   : record.status == "ERROR"     ? "query_failure"
                                                  : "slow_query";
    input.dir = (std::filesystem::path(engine_.diag_root()) /
                 ("q" + std::to_string(::getpid()) + "-" +
                  std::to_string(query_id_) + "-" + input.reason))
                    .string();
    input.status = record.status;
    input.error = record.error;
    input.error_code = record.error_code;
    input.query_id = query_id_;
    input.duration_ms = record.duration_ms;
    input.plan_text = plan_text();
    input.profile_json = profile_->ToJson();
    input.metrics_text = engine_.ExportMetricsText();
    input.config_text = RenderEngineConfig(config_);
    input.events = engine_.journal().Snapshot();
    WriteDiagnosticsBundle(input);
  }

  LogEvent(LogLevel::kDebug, "query.finish",
           {{"query", query_id_},
            {"status", record.status},
            {"wall_ms", record.duration_ms},
            {"rows", record.rows_out},
            {"spill_bytes", record.spill_bytes}});

  engine_.EndQuery(this, std::move(record));
}

}  // namespace ssql
