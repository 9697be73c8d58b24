#ifndef SSQL_ENGINE_EXEC_CONTEXT_H_
#define SSQL_ENGINE_EXEC_CONTEXT_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "engine/memory_manager.h"
#include "engine/query_profile.h"
#include "engine/task_runner.h"
#include "util/event_journal.h"
#include "util/metrics_registry.h"
#include "util/spill_file.h"
#include "util/thread_pool.h"

namespace ssql {

class QueryContext;
using QueryContextPtr = std::shared_ptr<QueryContext>;

/// Engine configuration. Flags mirror the features whose presence/absence
/// the paper's evaluation toggles (codegen, pushdown, join selection),
/// letting benchmarks run the same plan in "Shark mode" vs full Spark SQL.
struct EngineConfig {
  /// Parallel workers — the stand-in cluster size.
  size_t num_threads = 4;
  /// Default partition count for scans and shuffles.
  size_t default_parallelism = 8;
  /// Tables estimated below this size are broadcast in joins (Section 4.3.3).
  uint64_t broadcast_threshold_bytes = 10ull * 1024 * 1024;
  /// Use the compiled expression backend where possible (Section 4.3.4).
  bool codegen_enabled = true;
  /// Run converted operators (scan, filter/project, hash aggregate, hash
  /// join) over RowBatches of ColumnVectors instead of one boxed Row at a
  /// time; unconverted operators keep working through the batch↔row
  /// adapters. Off = the row-at-a-time engine everywhere (the comparison
  /// baseline for the batched-vs-row property tests and benches).
  bool vectorized_enabled = true;
  /// Rows per RowBatch in vectorized execution. Validated to [1, 65536];
  /// 1 is the degenerate lane the chaos/property suites keep covered, the
  /// default keeps a batch's working set cache-resident.
  size_t batch_size = 1024;
  /// Push filters/column pruning into data sources (Section 4.4.1).
  bool pushdown_enabled = true;
  /// Allow cost-based selection of join algorithms; when false every equi-
  /// join becomes a shuffle hash join (Shark-era behaviour).
  bool join_selection_enabled = true;
  /// Fuse adjacent project/filter operators into one pass (Section 4.3.3
  /// "pipelining projections or filters into one Spark map operation").
  bool operator_fusion_enabled = true;
  /// Enable the interval-tree range join rule (Section 7.2).
  bool range_join_enabled = true;
  /// Use sort-merge join instead of shuffle hash join for large inner
  /// equi-joins (exercised by the join-selection ablation bench).
  bool prefer_sort_merge_join = false;
  /// The paper's future-work item ("we thus intend to implement richer
  /// cost-based optimization"): when true, size estimates account for
  /// filter selectivity — pushed-down filters and Filter operators shrink
  /// the estimate, so selective queries (the paper's 3a) qualify their
  /// filtered side for broadcast. Off by default, matching Spark 1.3.
  bool cbo_filter_selectivity = false;
  /// Extra attempts per partition task for failures thrown as
  /// RetryableError (the paper's "automatic fault tolerance of failed
  /// tasks", Section 1). 0 disables retries entirely.
  int task_max_retries = 2;
  /// Base backoff between task attempts; doubles per attempt (capped).
  int task_retry_backoff_ms = 1;
  /// Straggler speculation for two-phase stages (RunStageSpeculatable):
  /// once speculation_quantile of a stage's tasks have committed, any task
  /// still running after median × speculation_multiplier gets ONE duplicate
  /// attempt; the first copy to finish commits exactly once and the loser
  /// is cancelled cooperatively through its attempt token. Negative =
  /// speculation off (the default); 0 duplicates every running task as soon
  /// as the quantile is reached (aggressive, useful in tests). The analogue
  /// of spark.speculation.multiplier.
  double speculation_multiplier = -1.0;
  /// Fraction of a stage's tasks that must finish before stragglers are
  /// considered (the runtime median needs a sample). The analogue of
  /// spark.speculation.quantile.
  double speculation_quantile = 0.75;
  /// Per-attempt wall-clock deadline: an attempt running past it is
  /// abandoned as runaway via RetryableError at its next cancellation poll
  /// (a fresh attempt gets a fresh deadline; exhausted retries fail the
  /// stage as usual). Negative = no per-task deadline (the default).
  int64_t task_timeout_ms = -1;
  /// How often the engine ticker thread scans running queries' task
  /// heartbeats for the watchdog (the scan is a few atomic loads per
  /// in-flight attempt).
  int64_t watchdog_interval_ms = 100;
  /// A query whose oldest in-flight task attempt published no progress
  /// heartbeat for this long is cancelled by the watchdog with an error
  /// naming the stuck stage/partition (recorded RESOURCE_EXHAUSTED in
  /// system.queries); at half this age the query is marked stalled.
  /// Negative = watchdog kills off (the default).
  int64_t stuck_task_timeout_ms = -1;
  /// Per-query wall-clock budget enforced cooperatively between partitions
  /// and inside operator loops. Negative = unlimited; 0 expires instantly.
  /// The clock starts when the query is admitted, not while it queues
  /// behind the admission gate.
  int64_t query_timeout_ms = -1;
  /// Extra attempts per data-source open/read and other I/O boundaries that
  /// fail with a transient IoError/RetryableError, before the failure
  /// becomes fatal (and, on a task boundary, possibly task-retried too).
  /// 0 disables I/O retries.
  int io_max_retries = 2;
  /// Base backoff between I/O retry attempts; doubles per attempt (capped)
  /// plus deterministic jitter in [0, io_retry_backoff_ms].
  int io_retry_backoff_ms = 1;
  /// Deterministic fault injection for testing/benching the failure paths.
  /// Two comma-separated rule families share this one spec:
  ///   * task rules "<stage>:<partition>:<attempt>[-<last>]" fail whole
  ///     partition attempts with RetryableError (see FaultInjector);
  ///   * site rules "<site>=<trigger>[:<kind>]" fire at named I/O fault
  ///     points — spill.write, spill.read, source.open, source.read,
  ///     metrics.snapshot, admission.enqueue, trace.write — with trigger
  ///     "*" | "n<first>[-<last>]" | "p<probability>" and kind
  ///     retryable|io|enospc|corrupt (corrupt flips a bit in the bytes the
  ///     site just read — spill.read and source.read honor it — instead of
  ///     throwing); "seed=<N>" makes the probability mode deterministic
  ///     (see FaultPointSet).
  /// Empty = disabled.
  std::string fault_injection_spec;
  /// Per-query memory budget shared by all blocking operators (hash
  /// aggregation maps, sort run buffers, hash-join build sides) across all
  /// of the query's partition tasks. Negative = unlimited (the default,
  /// preserving pre-budget behaviour). When a grant would exceed the budget
  /// the operator spills to disk (spill_enabled) or the query fails with an
  /// ExecutionError naming the stage and partition.
  int64_t query_memory_limit_bytes = -1;
  /// Engine-wide cap on operator memory summed over every concurrently
  /// running query. Each query's reservations are carved out of this pool
  /// in addition to its own query_memory_limit_bytes cap, so N concurrent
  /// queries cannot multiply the per-query budget past what the host has.
  /// Negative = unlimited (the default).
  int64_t total_memory_limit_bytes = -1;
  /// Admission gate: at most this many queries execute concurrently on the
  /// engine; excess BeginQuery callers block in FIFO order until a slot
  /// frees up, so a burst degrades to waiting rather than to memory
  /// exhaustion. 0 = unlimited (no gate).
  int max_concurrent_queries = 0;
  /// Longest a BeginQuery caller waits behind the admission gate before the
  /// engine sheds it with ResourceExhausted instead of blocking forever.
  /// Negative = wait indefinitely (the pre-overload-shedding behaviour).
  int64_t admission_timeout_ms = -1;
  /// At most this many queries may be queued behind the admission gate;
  /// arrivals past the cap are refused immediately with ResourceExhausted
  /// (bounding both caller threads parked in BeginQuery and the burst the
  /// engine will eventually have to serve). 0 = unbounded queue.
  int max_queued_queries = 0;
  /// Engine-wide cap on bytes of live spill files summed over every
  /// concurrently running query, the disk analogue of
  /// total_memory_limit_bytes: exhaustion fails only the query that needed
  /// more disk (with ResourceExhausted naming its stage) while siblings
  /// keep their spill and keep running. Negative = unlimited (the default).
  int64_t spill_disk_limit_bytes = -1;
  /// Allow blocking operators to fall back to disk when over budget:
  /// external hash aggregation, external sort runs, Grace hash join.
  bool spill_enabled = true;
  /// Scratch directory root for spill files; empty = "<system temp>/
  /// ssql-spill". Each query spills into its own "q<pid>-<id>" subdirectory
  /// so one query's cleanup can never touch another's live run files.
  std::string spill_dir;
  /// Record the per-query span tree (operators, stages, tasks, phases).
  /// When false the profile keeps only its root span and every counter
  /// lands there (task, spill, peak and data-source totals still reach
  /// system.queries and the registry fold), but no operator spans exist:
  /// operator rows_out/batches go unrecorded and EXPLAIN ANALYZE shows no
  /// operators — the baseline mode bench_observe compares against to
  /// bound instrumentation overhead.
  bool profiling_enabled = true;
  /// When non-empty, each query writes its profile as Chrome trace-event
  /// JSON to this path suffixed with the query id ("trace.json" becomes
  /// "trace-q3.json"), so concurrent or sequential queries never clobber
  /// each other's file. The resolved path is logged to stderr.
  std::string trace_path;
  /// Queries whose wall time exceeds this threshold log a one-line summary
  /// through the structured logger (level WARN, event "query.slow").
  /// Negative = disabled (default); 0 logs every query.
  int64_t slow_query_threshold_ms = -1;
  /// Minimum severity for the structured logger ("trace", "debug", "info",
  /// "warn", "error", "off"). Empty (default) leaves the process-wide
  /// level alone (initially from the SSQL_LOG environment variable, else
  /// info). The logger is process-global, so the last engine configured
  /// wins — see util/log.h.
  std::string log_level;
  /// When non-empty, the Prometheus text exposition of the metrics
  /// registry (what SqlContext::ExportMetricsText returns) is rewritten
  /// to this path after every query finishes and at engine shutdown — a
  /// file scrape target for node_exporter-style collection. Write failures
  /// are logged, never thrown.
  std::string metrics_path;
  /// How many finished queries system.queries / system.query_operators
  /// retain (a ring buffer: oldest evicted first). 0 disables retention —
  /// only running queries are visible.
  size_t finished_query_retention = 128;
  /// Total capacity (events) of the engine flight recorder — the bounded
  /// journal of structured engine events (admission, tasks, spills,
  /// memory, watchdog, query lifecycle) served by system.events and
  /// dumped into diagnostics bundles. Split evenly over the journal's
  /// shards; oldest events are overwritten (the drop counter advances).
  /// 0 disables emission entirely.
  size_t event_journal_capacity = 4096;
  /// Period at which the engine ticker thread snapshots the metrics
  /// registry into the bounded ring served by system.metrics_history, so
  /// rate/derivative queries become plain SQL. <= 0 disables sampling
  /// (the ticker then wakes only for the watchdog).
  int64_t metrics_sample_interval_ms = 1000;
  /// Directory for dump-on-anomaly diagnostics bundles. A query that
  /// fails, is watchdog-killed, or crosses slow_query_threshold_ms writes
  /// a bundle subdirectory here (journal tail, profile JSON, metrics
  /// snapshot, config, EXPLAIN) when diag_on_failure is set; the shell's
  /// `.diag` command writes one on demand. Empty disables the automatic
  /// dumps (on-demand bundles then land under "<system temp>/ssql-diag").
  std::string diag_dir;
  /// Write a diagnostics bundle automatically when a query finishes in
  /// ERROR, is killed by the watchdog, or exceeds the slow-query
  /// threshold. Requires a non-empty diag_dir to take effect.
  bool diag_on_failure = true;
};

/// Validates an EngineConfig, throwing ExecutionError with a descriptive
/// message for values that would otherwise deadlock (a zero-thread pool),
/// crash, or silently misbehave mid-query (a malformed fault-injection spec
/// is only parsed when the first stage runs). Called eagerly when an
/// ExecContext — and therefore a SqlContext — is constructed, and again on
/// every SetConfig.
void ValidateEngineConfig(const EngineConfig& config);

/// Per-query execution knobs passed to BeginQuery, overriding the engine
/// defaults for one query only (the engine-wide EngineConfig is immutable
/// while queries are in flight; these are the sanctioned per-query escape
/// hatches).
struct QueryOptions {
  /// Overrides EngineConfig::query_timeout_ms for this query when set.
  std::optional<int64_t> timeout_ms;
  /// Invoked by SqlContext::Execute right after the query is admitted and
  /// its QueryContext exists, before any plan work runs. Lets callers grab
  /// the query's cancellation token (e.g. to cancel it from another thread)
  /// without racing the execution itself.
  std::function<void(QueryContext&)> on_start;
};

/// Snapshot row of one (running or finished) query, the backing record of
/// the system.queries table. Running queries synthesize one from live
/// state; finished queries leave one in the engine's bounded ring buffer,
/// with the per-operator actuals flattened out of the QueryProfile for
/// system.query_operators.
struct QueryRecord {
  uint64_t id = 0;
  /// RUNNING | FINISHED | ERROR | CANCELLED | ABANDONED. A running query
  /// whose cancellation token has fired already reads CANCELLED (the
  /// cancel is cooperative — tasks are still unwinding).
  std::string status;
  int64_t start_unix_ms = 0;
  int64_t duration_ms = 0;
  int64_t rows_out = 0;
  int64_t spill_bytes = 0;
  int64_t peak_memory_bytes = 0;
  std::string error;  // empty unless ERROR/CANCELLED/ABANDONED
  /// Structured taxonomy of the failure (ErrorCodeName: "IO_ERROR",
  /// "RESOURCE_EXHAUSTED", ...); empty unless status is ERROR — or
  /// CANCELLED by the engine watchdog, which records RESOURCE_EXHAUSTED.
  std::string error_code;
  /// Milliseconds since the query's threads last made observable progress
  /// (a cancellation poll, a task attempt starting or retiring); for
  /// finished queries, the age at finish time.
  int64_t last_heartbeat_ms = 0;
  /// True once the watchdog saw a task heartbeat older than half of
  /// stuck_task_timeout_ms; sticky for watchdog-killed queries.
  bool stalled = false;
  std::vector<QueryProfile::OperatorActual> operators;  // finished only
};

/// Engine-wide runtime state shared by every query of a SqlContext: the
/// worker pool (the "cluster"), the metrics registry, the total memory
/// pool, and the admission gate. Holds NO per-query state — that
/// lives in the QueryContext handed out by BeginQuery(), so any number of
/// queries can run concurrently over one ExecContext without sharing
/// profiles, cancellation tokens, budgets or spill directories.
///
/// Thread-safety: every member function may be called from any thread.
/// SetConfig is rejected while queries are running or queued.
class ExecContext {
 public:
  explicit ExecContext(EngineConfig config = EngineConfig());
  ~ExecContext();

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  const EngineConfig& config() const { return config_; }

  /// Validates `config` and installs it. Throws ExecutionError if the
  /// config is invalid or if any query is running or queued (a mid-query
  /// mutation would race with its tasks); callers must retry once the
  /// engine is idle. A num_threads change rebuilds the worker pool.
  void SetConfig(const EngineConfig& config);

  /// Copy-mutate-swap convenience over SetConfig:
  ///   ctx.UpdateConfig([](EngineConfig& c) { c.codegen_enabled = false; });
  template <typename Fn>
  void UpdateConfig(Fn&& fn) {
    EngineConfig copy = config_;
    fn(copy);
    SetConfig(copy);
  }

  ThreadPool& pool() { return *pool_; }

  /// The typed engine-wide metrics registry (counters / gauges / latency
  /// histograms), exported in Prometheus text format by
  /// ExportMetricsText() and served by the system.metrics table. The home
  /// of engine-wide totals: besides the engine's own instruments it holds
  /// one "ssql_query_<counter>_total" per additive ProfileCounter, into
  /// which every finished query's profile totals are folded once.
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  /// Prometheus text exposition of the registry. Also what
  /// EngineConfig::metrics_path receives after each query.
  std::string ExportMetricsText() const;

  /// The engine-wide memory pool (EngineConfig::total_memory_limit_bytes)
  /// that per-query budgets draw from.
  MemoryManager& engine_memory() { return engine_memory_; }

  /// The engine-wide spill-disk pool (EngineConfig::spill_disk_limit_bytes)
  /// that per-query DiskQuotas are parented to.
  DiskQuota& disk_quota() { return disk_quota_; }
  const DiskQuota& disk_quota() const { return disk_quota_; }

  /// The engine's site-based fault injector, parsed once from
  /// EngineConfig::fault_injection_spec (shared by every query: hit
  /// counters are engine-wide). Never null.
  const FaultPointSet& fault_points() const { return *fault_points_; }

  /// The engine flight recorder (see util/event_journal.h): every
  /// subsystem emits structured events here; system.events and the
  /// diagnostics bundles read it.
  EventJournal& journal() { return journal_; }
  const EventJournal& journal() const { return journal_; }

  /// One background observation of the metrics registry.
  struct MetricsSample {
    int64_t unix_ms = 0;
    std::vector<MetricSnapshot> metrics;
  };
  /// How many samples the metrics-history ring retains (~12 minutes at
  /// the default 1s cadence); oldest evicted first.
  static constexpr size_t kMetricsHistoryCapacity = 720;

  /// Copy of the sampled ring, oldest first (system.metrics_history).
  std::vector<MetricsSample> MetricsHistory() const;

  /// Takes one metrics sample immediately (what the ticker thread does
  /// every metrics_sample_interval_ms). Exposed for tests and bundles.
  void SampleMetricsNow();

  /// Writes an on-demand diagnostics bundle (journal tail, metrics
  /// snapshot, config) under diag_dir — or "<system temp>/ssql-diag"
  /// when unset — and returns the bundle directory, or "" on failure.
  /// Never throws; backs the sql_shell `.diag` command.
  std::string WriteDiagnosticsBundle(const std::string& reason);

  /// Root directory for diagnostics bundles (config.diag_dir, or the
  /// default under the system temp directory).
  std::string diag_root() const;

  /// Root scratch directory for spill files (config.spill_dir, or a default
  /// under the system temp directory). Queries spill into per-query
  /// subdirectories beneath it — see QueryContext::spill_dir().
  std::string spill_root() const;

  /// Admits one query (blocking FIFO behind max_concurrent_queries) and
  /// returns its freshly created QueryContext: a new profile, cancellation
  /// token armed with the query timeout, a memory budget carved from the
  /// engine pool, and a private spill namespace. Thread-safe; any number of
  /// queries may be begun concurrently.
  QueryContextPtr BeginQuery() { return BeginQuery(QueryOptions()); }
  QueryContextPtr BeginQuery(const QueryOptions& options);

  /// Number of admitted queries that have not finished yet.
  size_t active_queries() const;

  /// Cancels every admitted, unfinished query (their tokens; cooperative).
  /// Affected rows in system.queries read CANCELLED immediately (live
  /// view) and permanently once each query unwinds into the ring buffer.
  void CancelAllQueries(const std::string& reason);

  /// One QueryRecord per query the engine knows about: every running query
  /// (status RUNNING, or CANCELLED when its token has fired) followed by
  /// the retained finished queries, oldest first. One lock acquisition, so
  /// a query is never seen twice (mid-finish it atomically moves from the
  /// active set to the ring buffer) — the contract system.queries relies
  /// on while other queries execute concurrently.
  std::vector<QueryRecord> QueryRecords() const;

  /// Per-query memory reservations of the running queries, for
  /// system.memory: (query id, limit or -1, reserved bytes).
  struct MemoryRecord {
    uint64_t query_id = 0;
    int64_t limit_bytes = -1;
    int64_t reserved_bytes = 0;
  };
  std::vector<MemoryRecord> QueryMemoryRecords() const;

 private:
  friend class QueryContext;

  /// Called by QueryContext::Finish: folds the query's profile totals into
  /// the ssql_query_*_total counters, atomically unregisters the query,
  /// retires `record` into the finished-query ring buffer, and frees the
  /// admission slot; then (outside the lock) refreshes metrics_path.
  void EndQuery(QueryContext* query, QueryRecord record);

  /// Builds the live record for a running query. Caller holds mu_.
  static QueryRecord LiveRecordLocked(const QueryContext& query);

  void WriteMetricsFile();

  /// Installs the fault-point set, disk pool, gauges and process-global I/O
  /// hooks for the current config_. Shared by the constructor and SetConfig.
  void ApplyConfigLocked();

  /// Body of the engine's one background thread, started by the
  /// constructor and joined first by the destructor. Two periodic jobs
  /// share it, and it sleeps until the sooner one is due:
  ///   * watchdog, every watchdog_interval_ms: scan the running queries'
  ///     task heartbeats, mark stalled ones, and cancel any whose oldest
  ///     heartbeat aged past stuck_task_timeout_ms (skipped while that is
  ///     negative);
  ///   * sampler, every metrics_sample_interval_ms (> 0): snapshot the
  ///     registry into the bounded history ring.
  /// SetConfig wakes it so changed intervals apply at once.
  void TickerLoop();
  /// One watchdog scan pass. Caller holds mu_; takes each query's
  /// attempts_mu_ inside (the documented mu_ → attempts_mu_ lock order).
  void ScanForStalledQueriesLocked(int64_t stuck_ms);

  EngineConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  MetricsRegistry registry_;
  MemoryManager engine_memory_;
  DiskQuota disk_quota_;
  // shared_ptr so the process-global Open-time I/O hooks (see
  // SetGlobalIoHooks) can outlive this engine safely.
  std::shared_ptr<FaultPointSet> fault_points_;
  EventJournal journal_;

  // Hot-path instrument handles, resolved once at construction.
  HistogramMetric* admission_wait_hist_ = nullptr;
  HistogramMetric* query_latency_hist_ = nullptr;
  CounterMetric* queries_started_ = nullptr;
  CounterMetric* queries_finished_ = nullptr;
  CounterMetric* queries_failed_ = nullptr;
  CounterMetric* queries_cancelled_ = nullptr;
  CounterMetric* admission_rejected_ = nullptr;
  CounterMetric* admission_timeouts_ = nullptr;
  CounterMetric* io_retries_ = nullptr;
  CounterMetric* faults_injected_ = nullptr;
  CounterMetric* watchdog_kills_ = nullptr;
  // ssql_query_<ProfileCounterName>_total per ProfileCounter; null for the
  // two that do not sum across spans (the peak is a high-water mark, and
  // phase/operator/task spans nest, so their CPU times overlap).
  std::array<CounterMetric*, kNumProfileCounters> query_totals_{};
  GaugeMetric* active_queries_gauge_ = nullptr;
  GaugeMetric* spill_disk_used_gauge_ = nullptr;

  std::mutex metrics_file_mu_;  // serializes metrics_path rewrites

  // Admission gate + active-query registry. `waiting_` holds the tickets of
  // parked BeginQuery callers in arrival order: a caller is admitted only
  // when its ticket is at the front AND a slot is free, so later arrivals
  // cannot jump the queue — and a timed-out caller removes its ticket,
  // which is why this is a deque rather than the old served/next counters.
  mutable std::mutex mu_;
  std::condition_variable admission_cv_;
  uint64_t next_ticket_ = 0;
  std::deque<uint64_t> waiting_;
  std::vector<QueryContext*> active_;
  std::deque<QueryRecord> finished_;  // ring buffer, oldest first

  // Sampled history ring; its own mutex so readers never touch mu_.
  mutable std::mutex history_mu_;
  std::deque<MetricsSample> metrics_history_;

  // Ticker thread. Its stop/wake flags live on their own mutex so stopping
  // or waking it never has to touch mu_ (a watchdog pass takes mu_ briefly).
  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;
  bool ticker_wake_ = false;
  std::thread ticker_thread_;
};

}  // namespace ssql

#endif  // SSQL_ENGINE_EXEC_CONTEXT_H_
