#include "engine/exec_context.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "engine/diagnostics.h"
#include "engine/query_context.h"
#include "util/log.h"
#include "util/trace.h"

namespace ssql {

void ValidateEngineConfig(const EngineConfig& config) {
  auto fail = [](const std::string& what) {
    throw ExecutionError("invalid EngineConfig: " + what);
  };
  if (config.num_threads == 0) {
    fail("num_threads must be at least 1 (a zero-thread pool would deadlock "
         "every stage)");
  }
  if (config.default_parallelism == 0) {
    fail("default_parallelism must be at least 1");
  }
  // A "negative" threshold assigned to the unsigned field wraps to an
  // astronomical value that would broadcast every table.
  if (config.broadcast_threshold_bytes > (1ull << 62)) {
    fail("broadcast_threshold_bytes is implausibly large (" +
         std::to_string(config.broadcast_threshold_bytes) +
         "); was a negative value cast to unsigned?");
  }
  if (config.batch_size < 1 || config.batch_size > 65536) {
    fail("batch_size must be in [1, 65536], got " +
         std::to_string(config.batch_size) +
         " (0 would make no progress; larger batches defeat the "
         "cache-resident working set vectorization relies on)");
  }
  if (config.task_max_retries < 0) {
    fail("task_max_retries must be >= 0 (use 0 to disable retries)");
  }
  if (config.task_retry_backoff_ms < 0) {
    fail("task_retry_backoff_ms must be >= 0");
  }
  if (config.speculation_quantile < 0.0 || config.speculation_quantile > 1.0) {
    fail("speculation_quantile must be in [0, 1], got " +
         std::to_string(config.speculation_quantile));
  }
  if (config.watchdog_interval_ms < 1) {
    fail("watchdog_interval_ms must be >= 1 (the watchdog cannot spin)");
  }
  if (config.io_max_retries < 0) {
    fail("io_max_retries must be >= 0 (use 0 to disable I/O retries)");
  }
  if (config.io_retry_backoff_ms < 0) {
    fail("io_retry_backoff_ms must be >= 0");
  }
  if (config.max_concurrent_queries < 0) {
    fail("max_concurrent_queries must be >= 0 (use 0 for no admission gate)");
  }
  if (config.max_queued_queries < 0) {
    fail("max_queued_queries must be >= 0 (use 0 for an unbounded queue)");
  }
  if (config.max_queued_queries > 0 && config.max_concurrent_queries == 0) {
    fail("max_queued_queries without max_concurrent_queries is meaningless "
         "(nothing ever queues when the gate is unlimited)");
  }
  if (config.total_memory_limit_bytes >= 0 &&
      config.query_memory_limit_bytes > config.total_memory_limit_bytes) {
    fail("query_memory_limit_bytes (" +
         std::to_string(config.query_memory_limit_bytes) +
         ") exceeds total_memory_limit_bytes (" +
         std::to_string(config.total_memory_limit_bytes) +
         "); a single query could never use its budget");
  }
  if (!config.trace_path.empty() && !config.profiling_enabled) {
    fail("trace_path requires profiling_enabled (a trace needs spans)");
  }
  // Same unsigned-wrap guard as broadcast_threshold_bytes: a "negative"
  // capacity would try to allocate petabytes of journal slots.
  if (config.event_journal_capacity > (1ull << 24)) {
    fail("event_journal_capacity is implausibly large (" +
         std::to_string(config.event_journal_capacity) +
         "); was a negative value cast to unsigned? (use 0 to disable "
         "the flight recorder)");
  }
  if (!config.log_level.empty()) {
    try {
      ParseLogLevel(config.log_level);
    } catch (const ExecutionError& e) {
      fail(e.what());
    }
  }
  // Surface malformed specs now instead of when the first stage runs. The
  // one spec carries both rule families; each parser validates its own.
  try {
    FaultInjector::Parse(config.fault_injection_spec);
    FaultPointSet::Parse(config.fault_injection_spec);
  } catch (const ExecutionError& e) {
    fail(e.what());
  }
}

ExecContext::ExecContext(EngineConfig config)
    : config_((ValidateEngineConfig(config), config)),
      pool_(std::make_unique<ThreadPool>(config.num_threads)) {
  admission_wait_hist_ = &registry_.Histogram(
      "ssql_admission_wait_us",
      "Time queries waited behind the admission gate, microseconds");
  query_latency_hist_ = &registry_.Histogram(
      "ssql_query_latency_us", "End-to-end query wall time, microseconds");
  queries_started_ =
      &registry_.Counter("ssql_queries_started_total", "Queries admitted");
  queries_finished_ = &registry_.Counter("ssql_queries_finished_total",
                                         "Queries that completed ok");
  queries_failed_ =
      &registry_.Counter("ssql_queries_failed_total", "Queries that errored");
  queries_cancelled_ = &registry_.Counter(
      "ssql_queries_cancelled_total", "Queries cancelled or timed out");
  admission_rejected_ = &registry_.Counter(
      "ssql_admission_rejected_total",
      "Queries shed because the admission queue was full");
  admission_timeouts_ = &registry_.Counter(
      "ssql_admission_timeouts_total",
      "Queries shed after waiting admission_timeout_ms behind the gate");
  io_retries_ = &registry_.Counter(
      "ssql_io_retries_total", "Transient I/O failures retried with backoff");
  faults_injected_ = &registry_.Counter(
      "ssql_faults_injected_total",
      "Errors thrown by configured fault-injection points");
  watchdog_kills_ = &registry_.Counter(
      "ssql_watchdog_kills_total",
      "Queries cancelled by the watchdog for stalled tasks");
  active_queries_gauge_ =
      &registry_.Gauge("ssql_active_queries", "Queries currently executing");
  spill_disk_used_gauge_ = &registry_.Gauge(
      "ssql_spill_disk_used_bytes",
      "Live spill bytes charged against spill_disk_limit_bytes");
  for (int i = 0; i < kNumProfileCounters; ++i) {
    const auto c = static_cast<ProfileCounter>(i);
    if (c == ProfileCounter::kPeakReservedBytes ||
        c == ProfileCounter::kCpuNs) {
      continue;
    }
    const std::string name = ProfileCounterName(c);
    query_totals_[i] = &registry_.Counter(
        "ssql_query_" + name + "_total",
        "Sum over finished queries of the profile counter " + name);
  }
  ApplyConfigLocked();
  ticker_thread_ = std::thread([this] { TickerLoop(); });
}

ExecContext::~ExecContext() {
  // Stop the ticker before anything else is torn down: its sampler touches
  // the registry and history ring, its watchdog scan touches mu_, active_
  // and the registry.
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    ticker_stop_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_thread_.joinable()) ticker_thread_.join();
  // Queries hold a raw back-pointer; finishing them after the engine is
  // gone would be use-after-free. By contract every QueryContext must be
  // finished (or destroyed) before its engine — assert-by-cancel here so a
  // leaked query at least stops scheduling new work.
  CancelAllQueries("engine shutdown");
  // Final scrape-file refresh so short-lived processes leave a dump behind.
  WriteMetricsFile();
  // The fault-point set may outlive this engine through the process-global
  // I/O hooks; its counter handle must not.
  fault_points_->set_fired_counter(nullptr);
}

void ExecContext::ApplyConfigLocked() {
  if (!config_.log_level.empty()) {
    SetLogLevel(ParseLogLevel(config_.log_level));
  }
  journal_.Configure(config_.event_journal_capacity);
  engine_memory_.Configure(config_.total_memory_limit_bytes,
                           config_.spill_enabled, /*profile=*/nullptr);
  disk_quota_.Configure(config_.spill_disk_limit_bytes);
  if (fault_points_) fault_points_->set_fired_counter(nullptr);
  fault_points_ = std::make_shared<FaultPointSet>(
      FaultPointSet::Parse(config_.fault_injection_spec));
  fault_points_->set_fired_counter(faults_injected_);
  // Open()-time I/O (schema inference before any query exists) uses these
  // process-global hooks; like the logger, the last engine configured wins.
  // The global on_retry only logs — it must not capture engine state, since
  // the hooks can outlive this engine.
  IoRetryPolicy global_policy;
  global_policy.max_retries = config_.io_max_retries;
  global_policy.backoff_ms = config_.io_retry_backoff_ms;
  global_policy.on_retry = [](int retry, const std::string& error) {
    LogEvent(LogLevel::kWarn, "io.retry",
             {{"attempt", static_cast<int64_t>(retry)}, {"error", error}});
  };
  SetGlobalIoHooks(fault_points_, std::move(global_policy));
}

void ExecContext::SetConfig(const EngineConfig& config) {
  ValidateEngineConfig(config);
  std::unique_lock<std::mutex> lock(mu_);
  if (!active_.empty() || !waiting_.empty()) {
    throw ExecutionError(
        "cannot change EngineConfig while " +
        std::to_string(active_.size() + waiting_.size()) +
        " query(ies) are running or queued; wait for the engine to go idle");
  }
  bool pool_changed = config.num_threads != config_.num_threads;
  config_ = config;
  if (pool_changed) {
    // Safe: no queries are running or queued, so the pool is idle.
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
  ApplyConfigLocked();
  // A shrunken retention applies immediately (oldest evicted first).
  while (finished_.size() > config_.finished_query_retention) {
    finished_.pop_front();
  }
  admission_cv_.notify_all();
  lock.unlock();
  // The ticker re-reads both intervals each pass; wake it so a shorter
  // interval takes effect now rather than after the old sleep.
  {
    std::lock_guard<std::mutex> tick_lock(ticker_mu_);
    ticker_wake_ = true;
  }
  ticker_cv_.notify_all();
}

void ExecContext::TickerLoop() {
  // Steady-clock time of each job's last run; -1 = never, so both run on
  // the first pass (and sampling resumes at once after a re-enable).
  int64_t last_scan_ns = -1;
  int64_t last_sample_ns = -1;
  std::unique_lock<std::mutex> tick_lock(ticker_mu_);
  while (!ticker_stop_) {
    ticker_wake_ = false;
    tick_lock.unlock();
    const int64_t now_ns = TraceNowNs();
    // Milliseconds until a job with this period and last run is due.
    auto due_in_ms = [now_ns](int64_t last_ns, int64_t interval_ms) {
      return last_ns < 0 ? 0 : interval_ms - (now_ns - last_ns) / 1'000'000;
    };
    int64_t scan_ms = 0;
    int64_t sample_ms = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      scan_ms = config_.watchdog_interval_ms;
      sample_ms = config_.metrics_sample_interval_ms;
      if (due_in_ms(last_scan_ns, scan_ms) <= 0) {
        if (config_.stuck_task_timeout_ms >= 0 && !active_.empty()) {
          ScanForStalledQueriesLocked(config_.stuck_task_timeout_ms);
        }
        last_scan_ns = now_ns;
      }
    }
    if (sample_ms > 0 && due_in_ms(last_sample_ns, sample_ms) <= 0) {
      SampleMetricsNow();
      last_sample_ns = now_ns;
    }
    int64_t sleep_ms = due_in_ms(last_scan_ns, scan_ms);
    if (sample_ms > 0) {
      sleep_ms = std::min(sleep_ms, due_in_ms(last_sample_ns, sample_ms));
    }
    sleep_ms = std::max<int64_t>(sleep_ms, 0);
    tick_lock.lock();
    ticker_cv_.wait_for(tick_lock, std::chrono::milliseconds(sleep_ms),
                        [this] { return ticker_stop_ || ticker_wake_; });
  }
}

void ExecContext::ScanForStalledQueriesLocked(int64_t stuck_ms) {
  const int64_t now_ns = TraceNowNs();
  for (QueryContext* query : active_) {
    const QueryContext::TaskStallInfo info = query->OldestTaskBeat();
    if (!info.has_attempt) {
      // No task in flight (between stages, or driver-side work): the query
      // is not wedged in a task, so clear any earlier stall mark — unless
      // the watchdog already killed it (sticky by design).
      if (!query->watchdog_killed()) query->set_stalled(false);
      continue;
    }
    const int64_t age_ms = (now_ns - info.oldest_beat_ns) / 1'000'000;
    if (age_ms >= stuck_ms) {
      // Kill once: after our Cancel the token reads cancelled and we skip
      // (re-cancelling is harmless but would double-count the kill).
      if (!query->cancellation()->IsCancelled()) {
        query->MarkWatchdogKilled();
        watchdog_kills_->Increment();
        LogEvent(LogLevel::kWarn, "watchdog.kill",
                 {{"query", query->query_id()},
                  {"stage", info.stage},
                  {"partition", static_cast<int64_t>(info.partition)},
                  {"stalled_ms", age_ms}});
        journal_.Emit(EngineEventKind::kWatchdogKill, EventSeverity::kError,
                      query->query_id(), age_ms,
                      info.stage + ":" + std::to_string(info.partition));
        query->profile().AddInstant(
            "watchdog.kill", "watchdog",
            {{"stage", info.stage},
             {"partition", std::to_string(info.partition)},
             {"stalled_ms", std::to_string(age_ms)}});
        query->Cancel("watchdog: task for stage '" + info.stage +
                      "' partition " + std::to_string(info.partition) +
                      " made no progress for " + std::to_string(age_ms) +
                      " ms (stuck_task_timeout_ms=" +
                      std::to_string(stuck_ms) +
                      "); cancelling the query to reclaim its resources");
      }
      query->set_stalled(true);
    } else {
      const bool now_stalled = age_ms * 2 >= stuck_ms;
      if (now_stalled && !query->stalled()) {
        journal_.Emit(EngineEventKind::kWatchdogStall, EventSeverity::kWarn,
                      query->query_id(), age_ms,
                      info.stage + ":" + std::to_string(info.partition));
      }
      query->set_stalled(now_stalled);
    }
  }
}

void ExecContext::SampleMetricsNow() {
  MetricsSample sample;
  sample.unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
  sample.metrics = registry_.Snapshot();
  std::lock_guard<std::mutex> lock(history_mu_);
  metrics_history_.push_back(std::move(sample));
  while (metrics_history_.size() > kMetricsHistoryCapacity) {
    metrics_history_.pop_front();
  }
}

std::vector<ExecContext::MetricsSample> ExecContext::MetricsHistory() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return {metrics_history_.begin(), metrics_history_.end()};
}

std::string ExecContext::spill_root() const {
  if (!config_.spill_dir.empty()) return config_.spill_dir;
  return (std::filesystem::temp_directory_path() / "ssql-spill").string();
}

std::string ExecContext::diag_root() const {
  if (!config_.diag_dir.empty()) return config_.diag_dir;
  return (std::filesystem::temp_directory_path() / "ssql-diag").string();
}

std::string ExecContext::WriteDiagnosticsBundle(const std::string& reason) {
  static std::atomic<uint64_t> g_bundle_ids{0};
  const uint64_t n = g_bundle_ids.fetch_add(1, std::memory_order_relaxed) + 1;
  DiagBundleInput input;
  input.dir = (std::filesystem::path(diag_root()) /
               ("engine-" + std::to_string(::getpid()) + "-" +
                std::to_string(n) + "-" + reason))
                  .string();
  input.reason = reason;
  input.status = "ENGINE";
  input.config_text = RenderEngineConfig(config_);
  input.metrics_text = ExportMetricsText();
  input.events = journal_.Snapshot();
  return ssql::WriteDiagnosticsBundle(input);
}

QueryContextPtr ExecContext::BeginQuery(const QueryOptions& options) {
  const int64_t wait_start_ns = TraceNowNs();
  std::unique_lock<std::mutex> lock(mu_);
  fault_points_->MaybeFail("admission.enqueue", "BeginQuery");
  const size_t max = static_cast<size_t>(config_.max_concurrent_queries);
  auto slot_free = [&] { return max == 0 || active_.size() < max; };
  // FIFO: even with a free slot, arrivals behind parked waiters must queue.
  if (!waiting_.empty() || !slot_free()) {
    if (config_.max_queued_queries > 0 &&
        waiting_.size() >= static_cast<size_t>(config_.max_queued_queries)) {
      admission_rejected_->Increment();
      journal_.Emit(EngineEventKind::kAdmissionShed, EventSeverity::kWarn, 0,
                    static_cast<int64_t>(waiting_.size()),
                    "admission queue full");
      throw ResourceExhausted(
          "admission queue full: " + std::to_string(waiting_.size()) +
          " query(ies) already waiting (max_queued_queries=" +
          std::to_string(config_.max_queued_queries) + "); shedding load");
    }
    const uint64_t ticket = next_ticket_++;
    waiting_.push_back(ticket);
    journal_.Emit(EngineEventKind::kAdmissionEnqueue, EventSeverity::kDebug, 0,
                  static_cast<int64_t>(waiting_.size()), "");
    auto ready = [&] { return waiting_.front() == ticket && slot_free(); };
    if (config_.admission_timeout_ms < 0) {
      admission_cv_.wait(lock, ready);
    } else {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(config_.admission_timeout_ms);
      if (!admission_cv_.wait_until(lock, deadline, ready)) {
        // Remove our ticket (the deque exists so an abandoning waiter CAN
        // leave the line) and wake whoever is now at the front.
        waiting_.erase(std::find(waiting_.begin(), waiting_.end(), ticket));
        admission_timeouts_->Increment();
        journal_.Emit(EngineEventKind::kAdmissionTimeout, EventSeverity::kWarn,
                      0, config_.admission_timeout_ms, "");
        admission_cv_.notify_all();
        throw ResourceExhausted(
            "query admission timed out after " +
            std::to_string(config_.admission_timeout_ms) +
            " ms behind the admission gate (max_concurrent_queries=" +
            std::to_string(config_.max_concurrent_queries) + ")");
      }
    }
    waiting_.pop_front();
  }
  const int64_t wait_us = (TraceNowNs() - wait_start_ns) / 1000;
  admission_wait_hist_->Record(wait_us);
  queries_started_->Increment();
  // Process-unique (not merely engine-unique): two SqlContexts in one
  // process share the spill root, so ids must not collide across engines.
  static std::atomic<uint64_t> g_query_ids{0};
  const uint64_t id = g_query_ids.fetch_add(1, std::memory_order_relaxed) + 1;
  journal_.Emit(EngineEventKind::kQueryBegin, EventSeverity::kInfo, id,
                wait_us, "");

  EngineConfig snapshot = config_;
  if (options.timeout_ms.has_value()) {
    snapshot.query_timeout_ms = *options.timeout_ms;
  }
  // The constructor is private; can't use make_shared.
  QueryContextPtr query(new QueryContext(*this, id, std::move(snapshot)));
  active_.push_back(query.get());
  active_queries_gauge_->Set(static_cast<int64_t>(active_.size()));
  // Wake the next ticket holder: its predicate also checks the slot count,
  // so this is correct even when the gate is full.
  admission_cv_.notify_all();
  return query;
}

void ExecContext::EndQuery(QueryContext* query, QueryRecord record) {
  for (int i = 0; i < kNumProfileCounters; ++i) {
    if (query_totals_[i] == nullptr) continue;
    query_totals_[i]->Increment(
        query->profile().Total(static_cast<ProfileCounter>(i)));
  }
  query_latency_hist_->Record(record.duration_ms * 1000);
  if (record.status == "FINISHED") {
    queries_finished_->Increment();
  } else if (record.status == "CANCELLED") {
    queries_cancelled_->Increment();
  } else {
    queries_failed_->Increment();
  }
  if (!record.error_code.empty()) {
    // Per-taxonomy-code failure counters, e.g. ssql_errors_IO_ERROR_total.
    registry_
        .Counter("ssql_errors_" + record.error_code + "_total",
                 "Queries failed with this error code")
        .Increment();
  }
  spill_disk_used_gauge_->Set(disk_quota_.used_bytes());
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Removal and retirement under one lock: a concurrent QueryRecords()
    // snapshot sees this query exactly once, as RUNNING or as finished.
    active_.erase(std::remove(active_.begin(), active_.end(), query),
                  active_.end());
    active_queries_gauge_->Set(static_cast<int64_t>(active_.size()));
    if (config_.finished_query_retention > 0) {
      finished_.push_back(std::move(record));
      while (finished_.size() > config_.finished_query_retention) {
        finished_.pop_front();
      }
    }
  }
  admission_cv_.notify_all();
  WriteMetricsFile();
}

QueryRecord ExecContext::LiveRecordLocked(const QueryContext& query) {
  QueryRecord record;
  record.id = query.query_id();
  const CancellationToken& token = *query.cancellation();
  record.status = token.IsCancelled() ? "CANCELLED" : "RUNNING";
  record.error = token.StatusMessage();
  record.start_unix_ms = query.start_unix_ms();
  record.duration_ms = query.ElapsedMs();
  record.last_heartbeat_ms = query.LastHeartbeatAgeMs();
  record.stalled = query.stalled();
  if (query.watchdog_killed()) {
    record.error_code = ErrorCodeName(ErrorCode::kResourceExhausted);
  }
  const QueryProfile::Stats stats = query.profile().AggregateStats();
  record.rows_out = stats.rows_out;
  record.spill_bytes = stats.spill_bytes;
  record.peak_memory_bytes = stats.peak_reserved_bytes;
  return record;
}

std::vector<QueryRecord> ExecContext::QueryRecords() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryRecord> out;
  out.reserve(active_.size() + finished_.size());
  for (const QueryContext* query : active_) {
    out.push_back(LiveRecordLocked(*query));
  }
  for (const QueryRecord& record : finished_) out.push_back(record);
  return out;
}

std::vector<ExecContext::MemoryRecord> ExecContext::QueryMemoryRecords() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MemoryRecord> out;
  out.reserve(active_.size());
  for (const QueryContext* query : active_) {
    MemoryRecord record;
    record.query_id = query->query_id();
    record.limit_bytes = query->memory().limit_bytes();
    record.reserved_bytes = query->memory().reserved_bytes();
    out.push_back(record);
  }
  return out;
}

std::string ExecContext::ExportMetricsText() const {
  return registry_.ExportPrometheusText();
}

void ExecContext::WriteMetricsFile() {
  if (config_.metrics_path.empty()) return;
  std::lock_guard<std::mutex> lock(metrics_file_mu_);
  try {
    fault_points_->MaybeFail("metrics.snapshot", config_.metrics_path);
    WriteTextFile(config_.metrics_path, ExportMetricsText());
  } catch (const std::exception& e) {
    // Telemetry must never fail a query — even an injected enospc here is
    // absorbed into a warning.
    LogEvent(LogLevel::kWarn, "metrics.write_failed",
             {{"path", config_.metrics_path}, {"error", e.what()}});
  }
}

size_t ExecContext::active_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

void ExecContext::CancelAllQueries(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!active_.empty()) {
    LogEvent(LogLevel::kInfo, "engine.cancel_all",
             {{"reason", reason},
              {"queries", static_cast<int64_t>(active_.size())}});
  }
  for (QueryContext* query : active_) {
    query->cancellation()->Cancel(reason);
  }
}

}  // namespace ssql
