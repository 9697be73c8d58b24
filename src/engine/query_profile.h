#ifndef SSQL_ENGINE_QUERY_PROFILE_H_
#define SSQL_ENGINE_QUERY_PROFILE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/trace.h"

namespace ssql {

/// Level of a profiling span in the query's execution tree. The engine runs
/// one materializing operator at a time, so the natural containment order is
///
///   query → catalyst phase → operator → stage → partition task
///
/// (operators *contain* the stages they launch; in Spark proper the stage
/// contains the operator's per-partition work — same five levels, inverted
/// in the middle because this engine pulls operator-at-a-time).
enum class SpanKind { kQuery, kPhase, kOperator, kStage, kTask };

const char* SpanKindName(SpanKind kind);

/// How far a cardinality estimate missed: (max+1)/(min+1) of estimated vs
/// actual rows, >= 1.0, symmetric in direction (10x over and 10x under both
/// read ~10). The +1 keeps zero-row operators meaningful.
inline double MisestimateRatio(int64_t est_rows, int64_t actual_rows) {
  const double hi = static_cast<double>(std::max(est_rows, actual_rows)) + 1.0;
  const double lo = static_cast<double>(std::min(est_rows, actual_rows)) + 1.0;
  return hi / lo;
}

/// Typed counters a span can carry — the only home of per-query numbers.
/// Adding is lock-free (one relaxed atomic add). Engine-wide totals are
/// the MetricsRegistry counters "ssql_query_<name>_total", into which
/// ExecContext folds each finished query's Total() once; the peak and the
/// CPU time have none, because they do not sum across spans.
enum class ProfileCounter : int {
  kRowsIn = 0,          // rows entering the operator (sum of children out)
  kRowsOut,             // rows the operator produced
  kBatches,             // output partitions ("batches" between operators)
  kBuildRows,           // hash/interval build-side rows
  kProbeRows,           // streamed probe-side rows
  kSpillBytes,          // bytes written to spill files
  kSpillFiles,          // spill files created
  kPeakReservedBytes,   // high-water mark of the query memory budget
  kAttempts,            // task attempts (first try + retries)
  kRetries,             // task re-attempts after RetryableError
  kFailures,            // task attempts that failed fatally
  kSpeculated,          // speculative duplicate attempts launched
  kSpeculationWins,     // duplicates that finished first and committed
  kTaskTimeouts,        // attempts abandoned past task_timeout_ms
  kRowsScanned,         // data source: rows read from the raw input
  kRowsReturned,        // data source: rows shipped after pushdown
  kRowsDropped,         // data source: malformed rows dropped
  kMalformedRecords,    // data source: malformed rows seen
  kShuffleRows,         // rows moved through ShuffleByHash
  kBroadcastRows,       // rows collected for a broadcast/nested-loop build
  kCpuNs,               // thread CPU time consumed inside the span
  kNumCounters
};

inline constexpr int kNumProfileCounters =
    static_cast<int>(ProfileCounter::kNumCounters);

/// Short stable name used in JSON dumps and EXPLAIN ANALYZE annotations.
const char* ProfileCounterName(ProfileCounter c);

/// One node of the span tree. Created/closed through QueryProfile; counters
/// are atomics so concurrent partition tasks can add without locking.
struct ProfileSpan {
  uint32_t id = 0;
  SpanKind kind = SpanKind::kQuery;
  std::string name;    // "Project", "aggregate.partial", "p3", ...
  std::string detail;  // operator Describe() — shown by EXPLAIN ANALYZE
  int64_t start_ns = 0;
  std::atomic<int64_t> end_ns{0};  // 0 while open
  int64_t start_cpu_ns = 0;
  int tid = 0;  // synthetic lane, one per OS thread, for trace export
  ProfileSpan* parent = nullptr;
  std::vector<ProfileSpan*> children;  // guarded by the profile mutex
  std::string status;                  // "" while open; "ok"/"error: ..."/...
  int64_t est_rows = -1;    // planner cardinality estimate; -1 = none
  std::string est_source;   // estimate provenance (EstimateSourceName)
  std::array<std::atomic<int64_t>, kNumProfileCounters> counters{};

  bool closed() const { return end_ns.load(std::memory_order_acquire) != 0; }
  int64_t Counter(ProfileCounter c) const {
    return counters[static_cast<int>(c)].load(std::memory_order_relaxed);
  }
  int64_t WallNs() const;
};

/// Per-query observability root: owns the span tree (query → phase →
/// operator → stage → task), the typed counters, and the per-rule Catalyst
/// statistics, and renders them as EXPLAIN ANALYZE text, a JSON dump, and a
/// Chrome trace-event file loadable in Perfetto.
///
/// Thread-safety: span creation/closing takes one mutex (spans are created
/// per operator/stage/task, never per row); counter adds are a single
/// relaxed atomic add. The root span always exists. When constructed with
/// `detailed == false` (EngineConfig::profiling_enabled off) no child spans
/// are recorded, so every counter lands on the root and Total() works in
/// both modes (only the per-operator numbers need operator spans) — the
/// undetailed mode is what the overhead benchmark compares against.
class QueryProfile {
 public:
  explicit QueryProfile(bool detailed = true);

  bool detailed() const { return detailed_; }
  ProfileSpan* root() { return root_; }
  const ProfileSpan* root() const { return root_; }

  // ---- span lifecycle ---------------------------------------------------

  /// Opens a span under `parent`; a null parent attaches to the innermost
  /// open operator span, else the current phase, else the root. Returns
  /// null when detail recording is disabled (all span APIs accept null).
  ProfileSpan* BeginSpan(SpanKind kind, const std::string& name,
                         ProfileSpan* parent = nullptr,
                         const std::string& detail = "");

  /// Closes `span`. Idempotent; null-safe.
  void EndSpan(ProfileSpan* span, const std::string& status = "ok");

  /// Opens an operator span and pushes it on the driver-side operator
  /// stack, so stages/tasks/spills launched while it runs attribute here.
  /// `est_rows`/`est_source` carry the planner's cardinality estimate so
  /// EXPLAIN ANALYZE and system.query_operators can show plan-vs-actual
  /// (est_rows < 0 = no estimate).
  ProfileSpan* BeginOperator(const std::string& name,
                             const std::string& detail,
                             int64_t est_rows = -1,
                             const std::string& est_source = "");
  /// Pops the operator stack, fills kRowsIn from the children's kRowsOut,
  /// and closes the span.
  void EndOperator(ProfileSpan* span, const std::string& status = "ok");

  /// The innermost open operator span (null outside operator execution or
  /// when detail recording is off). Safe to call from worker threads while
  /// a stage is in flight — the stack only changes between stages.
  ProfileSpan* current_operator() const {
    return current_operator_.load(std::memory_order_acquire);
  }

  // ---- counters ---------------------------------------------------------

  /// Adds `delta` to `span`'s counter (null span → current operator, else
  /// root). One relaxed atomic add.
  void Add(ProfileSpan* span, ProfileCounter c, int64_t delta);

  /// Sum of `c` over every span (the per-query aggregate).
  int64_t Total(ProfileCounter c) const;

  // ---- instant events ---------------------------------------------------

  /// Records a zero-width marker (task retry, speculation win/loss,
  /// watchdog kill, journal drops) exported as a Chrome-trace instant
  /// event ("ph":"i") so Perfetto timelines show *why* a span stalled.
  /// Timestamped now, attributed to the calling thread's lane. No-op when
  /// detail recording is off; safe from any thread (one mutex, and these
  /// fire on rare paths — never per row).
  void AddInstant(const std::string& name, const std::string& category,
                  std::vector<std::pair<std::string, std::string>> args = {});

  // ---- Catalyst rule statistics ----------------------------------------

  struct RuleStat {
    int64_t invocations = 0;
    int64_t effective = 0;  // invocations that rewrote the plan
    int64_t wall_ns = 0;
  };
  void AddRuleStat(const std::string& batch, const std::string& rule,
                   bool effective, int64_t wall_ns);
  /// "batch/rule" → stat, in lexicographic order.
  std::map<std::string, RuleStat> rule_stats() const;

  // ---- snapshots for system tables -------------------------------------

  /// Query-level aggregates, computable at any point in the query's life
  /// (including from another thread while tasks run — everything read is
  /// either mutex-guarded or atomic). Feeds the live system.queries view
  /// and the finished-query ring buffer.
  struct Stats {
    int64_t wall_ns = 0;
    int64_t rows_out = 0;  // top-level operators only (the result rows)
    int64_t spill_bytes = 0;
    int64_t peak_reserved_bytes = 0;
    int64_t operators = 0;
  };
  Stats AggregateStats() const;

  /// One operator span flattened to a relational row — what
  /// system.query_operators serves for each retained query.
  struct OperatorActual {
    uint32_t id = 0;
    uint32_t parent_id = 0;  // enclosing operator span; 0 = top level
    int depth = 0;
    std::string name;
    std::string detail;
    std::string status;
    int64_t wall_ns = 0;
    int64_t rows_in = 0;
    int64_t rows_out = 0;
    int64_t batches = 0;
    int64_t spill_bytes = 0;   // incl. this operator's stage/task subtree
    int64_t est_rows = -1;     // planner estimate; -1 = none recorded
    std::string est_source;    // estimate provenance; "" = none
    double misestimate = 0.0;  // (max+1)/(min+1) of est vs actual; 0 = n/a
  };
  /// Pre-order (parents before children). Empty when detail recording is
  /// off.
  std::vector<OperatorActual> OperatorActuals() const;

  /// The worst (largest) per-operator cardinality misestimate ratio of any
  /// operator that carried a planner estimate; 0 when none did (or detail
  /// recording is off). What the slow-query log reports so a slow entry
  /// points straight at the operator the planner got wrong.
  double WorstMisestimate() const;

  // ---- finish + rendering ----------------------------------------------

  /// Closes the root span and force-closes any span left open (error and
  /// cancellation unwinds), stamping them with `status`. Idempotent.
  void Finish(const std::string& status);
  bool finished() const { return root_->closed(); }
  int64_t WallNs() const { return root_->WallNs(); }

  /// Full span tree + rule stats as one JSON document.
  std::string ToJson() const;

  /// Chrome trace-event JSON (load in Perfetto / chrome://tracing).
  std::string ToChromeTraceJson() const;

  /// The physical operator tree annotated with actuals, plus phase times,
  /// rule statistics and a query summary — the body of EXPLAIN ANALYZE.
  std::string RenderAnalyzed() const;

  /// One-line summary for the slow-query log.
  std::string SummaryLine() const;

 private:
  ProfileSpan* AllocateSpanLocked(SpanKind kind, const std::string& name,
                                  ProfileSpan* parent,
                                  const std::string& detail);
  int TidForThisThreadLocked();

  bool detailed_ = true;

  mutable std::mutex mu_;
  std::deque<ProfileSpan> spans_;  // stable addresses
  ProfileSpan* root_ = nullptr;
  std::vector<ProfileSpan*> operator_stack_;  // driver thread only
  std::atomic<ProfileSpan*> current_operator_{nullptr};
  std::atomic<ProfileSpan*> current_phase_{nullptr};
  std::map<std::thread::id, int> tids_;
  std::map<std::string, RuleStat> rule_stats_;

  struct InstantEvent {
    int64_t ts_ns = 0;
    int tid = 0;
    std::string name;
    std::string category;
    std::vector<std::pair<std::string, std::string>> args;
  };
  std::vector<InstantEvent> instants_;  // guarded by mu_
};

}  // namespace ssql

#endif  // SSQL_ENGINE_QUERY_PROFILE_H_
