#ifndef SSQL_ENGINE_QUERY_CONTEXT_H_
#define SSQL_ENGINE_QUERY_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/exec_context.h"
#include "engine/memory_manager.h"
#include "engine/query_profile.h"
#include "engine/task_runner.h"

namespace ssql {

/// Everything that belongs to ONE running query, created by
/// ExecContext::BeginQuery() and threaded through SqlContext::Execute,
/// TaskRunner and every physical operator / data source scan:
///
///   * its QueryProfile (span tree + counters),
///   * its CancellationToken (user abort + wall-clock timeout),
///   * its MemoryManager budget, carved from the engine-wide pool so
///     query_memory_limit_bytes stays a per-query cap while
///     total_memory_limit_bytes bounds the sum over concurrent queries,
///   * a query-id-namespaced spill subdirectory, and
///   * an immutable snapshot of the EngineConfig taken at admission.
///
/// Engine-wide state (worker pool, catalog, columnar cache, metrics
/// registry) stays on the ExecContext, reachable via engine(). N QueryContexts
/// may execute concurrently over one engine without sharing any of the
/// above — the cross-query races this separation fixes were: profile spans
/// interleaving, cancellation cross-talk, and spill-file collisions.
///
/// Lifecycle: BeginQuery() → operators run → Finish(status) exactly once
/// (idempotent; also run by the destructor as a backstop). Finish closes
/// the profile, writes the query-id-suffixed trace file, emits the
/// slow-query log line, removes the spill subdirectory, folds the profile's
/// counters into the engine registry, and releases the admission slot.
class QueryContext {
 public:
  ~QueryContext();

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Process-unique id (1-based) naming the spill namespace and trace file.
  uint64_t query_id() const { return query_id_; }

  /// Wall-clock admission time (milliseconds since the Unix epoch) — the
  /// start_unix_ms column of system.queries.
  int64_t start_unix_ms() const { return start_unix_ms_; }

  /// Milliseconds elapsed since admission, on the monotonic clock. Safe to
  /// call from any thread at any point in the query's life.
  int64_t ElapsedMs() const;

  /// The engine this query runs on (pool, catalog-side state, aggregates).
  ExecContext& engine() const { return engine_; }

  /// The EngineConfig snapshot taken when this query was admitted (with any
  /// QueryOptions overrides applied). Stable for the query's lifetime even
  /// if the engine config changes between queries.
  const EngineConfig& config() const { return config_; }

  /// The shared worker pool — tasks of concurrent queries interleave here.
  ThreadPool& pool() const { return engine_.pool(); }

  /// This query's memory budget (never shared with other queries).
  MemoryManager& memory() { return memory_; }
  const MemoryManager& memory() const { return memory_; }

  /// This query's profile — the home of every per-query counter. Always
  /// non-null; stays readable after Finish.
  QueryProfile& profile() { return *profile_; }
  const QueryProfile& profile() const { return *profile_; }

  /// This query's token. Shared with partition tasks, so another thread may
  /// Cancel() it to abort this query — and only this query.
  const CancellationTokenPtr& cancellation() const { return cancellation_; }

  /// Cancels this query (cooperative; idempotent).
  void Cancel(const std::string& reason) { cancellation_->Cancel(reason); }

  /// Throws ExecutionError if this query was cancelled or timed out. Also
  /// the progress-heartbeat site: each call bumps the query-level beat and
  /// polls the calling thread's task attempt (heartbeat + lost-race +
  /// per-task deadline), so any loop that polls cancellation is automatically
  /// visible to the engine watchdog.
  void CheckCancelled() const;

  /// Cheap form for tight row loops: polls the token every
  /// kCancellationCheckInterval increments of `*counter`.
  void CheckCancelledEvery(size_t* counter) const {
    if ((++*counter & (kCancellationCheckInterval - 1)) == 0) {
      CheckCancelled();
    }
  }

  /// Batch-granularity form for vectorized loops: advances the counter by
  /// `rows` processed (so the poll cadence still tracks rows, not batches)
  /// and polls once kCancellationCheckInterval rows have accumulated.
  void CheckCancelledEveryRows(size_t* counter, size_t rows) const {
    *counter += rows;
    if (*counter >= kCancellationCheckInterval) {
      *counter = 0;
      CheckCancelled();
    }
  }

  /// This query's private spill directory: "<spill root>/q<pid>-<id>".
  /// Created on first use by SpillFile; removed wholesale by Finish, which
  /// is safe precisely because no other query ever writes here.
  std::string spill_dir() const;

  /// This query's disk-quota level, parented to the engine-wide pool: what
  /// every spill file created via MakeSpillFile charges.
  DiskQuota& disk_quota() { return disk_; }
  const DiskQuota& disk_quota() const { return disk_; }

  /// Creates a spill file in this query's spill namespace with the engine's
  /// fault points and this query's disk quota attached; `prefix` doubles as
  /// the stage/consumer name a quota-exhaustion error reports. All operator
  /// spill paths go through here so every spill write is charged and
  /// injectable.
  SpillFile MakeSpillFile(const std::string& prefix);

  /// Counts one spill event — `files` files created, `bytes` written —
  /// against the running operator and in the engine's spill-size histogram.
  void RecordSpill(int64_t files, int64_t bytes);

  /// The engine's fault-point set (site-based injection), shared by every
  /// query so hit windows span concurrent queries.
  const FaultPointSet& fault_points() const { return engine_.fault_points(); }

  /// Records one flight-recorder event attributed to this query — sugar
  /// over engine().journal().Emit with the query id filled in.
  void EmitEvent(EngineEventKind kind, EventSeverity severity, int64_t value,
                 std::string_view detail = {}) const {
    engine_.journal().Emit(kind, severity, query_id_, value, detail);
  }

  /// Stashes the EXPLAIN text of this query's physical plan (set by
  /// SqlContext right after planning) so a diagnostics bundle written at
  /// Finish can include the plan without re-planning.
  void set_plan_text(std::string text);
  std::string plan_text() const;

  /// I/O retry policy for this query's source reads: the config's
  /// io_max_retries / io_retry_backoff_ms with jitter seeded by the query id
  /// and an on_retry observer that bumps the engine counter, journals the
  /// retry and logs.
  IoRetryPolicy io_retry_policy();

  /// Closes the profile (stamping unfinished spans with `status`), writes
  /// the trace file if config.trace_path is set (suffixed with the query
  /// id), logs a "query.slow" event when the query exceeded
  /// slow_query_threshold_ms, removes the spill subdirectory, adds the
  /// profile's counter totals into the engine's ssql_query_*_total
  /// registry counters, and retires the query into the engine's finished
  /// ring (releasing the admission slot). Idempotent; IO failures writing
  /// the trace are logged, never thrown (observability must not fail the
  /// query).
  void Finish(const std::string& status) { Finish(status, ErrorCode::kOk); }

  /// As above, additionally recording the structured taxonomy code of the
  /// failure (system.queries' error_code column, per-code engine counters).
  /// Pass kOk for non-failures; generic non-SsqlError failures record
  /// EXECUTION_ERROR via kExecutionError.
  void Finish(const std::string& status, ErrorCode code);

  bool finished() const { return finished_.load(std::memory_order_acquire); }

  // ---- task heartbeats (engine watchdog) --------------------------------

  /// Registers/unregisters one in-flight task attempt so the watchdog can
  /// scan its heartbeat. Called by TaskAttemptScope, never directly.
  void RegisterTaskAttempt(TaskAttemptState* attempt);
  void UnregisterTaskAttempt(TaskAttemptState* attempt);

  /// The oldest progress heartbeat among this query's in-flight task
  /// attempts — what the watchdog compares against stuck_task_timeout_ms.
  struct TaskStallInfo {
    bool has_attempt = false;
    std::string stage;
    size_t partition = 0;
    int64_t oldest_beat_ns = 0;
  };
  TaskStallInfo OldestTaskBeat() const;

  /// Milliseconds since any of this query's threads last made observable
  /// progress (a CheckCancelled poll or a task attempt starting); admission
  /// age until the first poll. The last_heartbeat_ms column of
  /// system.queries.
  int64_t LastHeartbeatAgeMs() const;

  /// Stall flag maintained by the watchdog (set once a task's heartbeat age
  /// crosses half of stuck_task_timeout_ms). The stalled column of
  /// system.queries.
  bool stalled() const { return stalled_.load(std::memory_order_acquire); }
  void set_stalled(bool stalled) {
    stalled_.store(stalled, std::memory_order_release);
  }

  /// Marks this query as killed by the watchdog, so its finished record
  /// carries error_code RESOURCE_EXHAUSTED (and stalled=true) instead of a
  /// plain cancellation. Called just before the watchdog cancels the token.
  void MarkWatchdogKilled() {
    watchdog_killed_.store(true, std::memory_order_release);
    stalled_.store(true, std::memory_order_release);
  }
  bool watchdog_killed() const {
    return watchdog_killed_.load(std::memory_order_acquire);
  }

 private:
  friend class ExecContext;
  QueryContext(ExecContext& engine, uint64_t query_id, EngineConfig config);

  ExecContext& engine_;
  const uint64_t query_id_;
  const EngineConfig config_;
  const int64_t start_unix_ms_;
  const int64_t start_steady_ns_;
  std::unique_ptr<QueryProfile> profile_;
  CancellationTokenPtr cancellation_;
  MemoryManager memory_;
  DiskQuota disk_;  // per-query level over the engine pool
  std::atomic<bool> finished_{false};

  mutable std::mutex plan_text_mu_;
  std::string plan_text_;  // EXPLAIN of the physical plan; may stay empty

  // Watchdog state. attempts_ holds the in-flight TaskAttemptStates (stack
  // storage in TaskRunner, valid while registered). Lock order: an engine
  // watchdog scan takes ExecContext::mu_ then attempts_mu_; nothing takes
  // them in the other order.
  mutable std::mutex attempts_mu_;
  std::vector<TaskAttemptState*> attempts_;
  mutable std::atomic<int64_t> last_beat_ns_{0};
  std::atomic<bool> stalled_{false};
  std::atomic<bool> watchdog_killed_{false};
};

/// Resolves the per-query trace file path: inserts "-q<id>" before the
/// final extension ("trace.json" → "trace-q3.json"; extensionless paths
/// get the suffix appended). Exposed for tests.
std::string ResolveTracePath(const std::string& base, uint64_t query_id);

}  // namespace ssql

#endif  // SSQL_ENGINE_QUERY_CONTEXT_H_
