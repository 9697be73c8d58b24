#ifndef SSQL_UTIL_FAULT_POINTS_H_
#define SSQL_UTIL_FAULT_POINTS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace ssql {

class CounterMetric;

/// What an activated fault point throws. The three kinds cover the failure
/// classes the chaos harness must prove the engine survives:
///
///   * retryable — RetryableError, eaten by task-level retry (TaskRunner)
///     and by the source I/O retry loop; models lost executors / transient
///     fetch failures;
///   * io — IoError, retried at source open/read boundaries (bounded, with
///     backoff) and fatal elsewhere; models flaky disks and NFS hiccups;
///   * enospc — ResourceExhausted, never retried; models a full disk /
///     exhausted quota, which waiting will not fix;
///   * corrupt — throws nothing: flips one deterministic bit in the buffer
///     a read boundary just produced (MaybeCorrupt), so the *detection*
///     path is what gets exercised — a CRC-framed spill read must surface
///     it as IoError, never as silently wrong rows; models bit rot and
///     torn writes.
enum class FaultKind { kRetryable, kIo, kEnospc, kCorrupt };

/// The engine's one fault injector. Site rules fire at I/O boundaries:
/// sites are named strings checked at the boundary ("spill.write",
/// "spill.read", "source.open", "source.read", "metrics.snapshot",
/// "admission.enqueue", "trace.write"); rules select sites and decide, per
/// hit, whether to throw. Task rules fail whole partition attempts.
///
/// Configured from EngineConfig::fault_injection_spec, comma-separated
/// entries. Site entries are
///
///   <site>=<trigger>[:<kind>]
///
/// where <site> is a site name, a "prefix.*" wildcard, or "*"; <trigger> is
///
///   *            every hit
///   n<F>[-<L>]   hits F..L of this rule (1-based; "n3" = the 3rd hit only)
///   p<P>         each hit independently with probability P in [0,1]
///
/// and <kind> is retryable | io | enospc | corrupt (default io). A
/// "seed=<N>" entry
/// seeds the probability mode: decisions are a pure hash of (rule, hit
/// number, seed), so a given seed produces the same per-hit decisions on
/// every run — the deterministic mode the chaos harness replays rounds
/// with. Entries without '=' are task rules
///
///   <stage>:<partition>:<attempt>[-<last_attempt>]
///
/// e.g. "scan:3:0-1" fails partition 3 of the stage named "scan" on
/// attempts 0 and 1 with a RetryableError, and "*:1:0" fails partition 1 of
/// every stage on its first attempt (see MaybeFailTask).
///
/// Thread-safe: MaybeFail is lock-free (per-rule atomic hit counters), and
/// hit counts are engine-wide, so concurrent queries race for the nth hit
/// exactly like concurrent tasks race for a failing disk.
class FaultPointSet {
 public:
  /// Parses the site and task rules of `spec`; throws ExecutionError
  /// quoting the offending entry on malformed input. Empty spec = no rules.
  static FaultPointSet Parse(const std::string& spec);

  bool enabled() const { return !rules_.empty() || !task_rules_.empty(); }

  /// Throws the configured error if a rule matching `site` fires on this
  /// hit. `detail` (a path, a stage name) is woven into the message so the
  /// failure names what was being touched. No-op when no rule matches.
  /// kind=corrupt rules are invisible here — they neither throw nor consume
  /// hits (their windows count MaybeCorrupt calls only).
  void MaybeFail(const std::string& site, const std::string& detail) const;

  /// The corrupt-kind twin of MaybeFail: if a corrupt rule matching `site`
  /// fires on this hit, flips one deterministically chosen bit of `*buffer`
  /// (no-op on an empty buffer) and returns true. Call it on freshly read
  /// bytes BEFORE integrity checks, so injected rot exercises the detection
  /// path rather than producing wrong results. Non-corrupt rules neither
  /// fire nor consume hits here.
  bool MaybeCorrupt(const std::string& site, std::string* buffer) const;

  /// Throws RetryableError if a task rule matches this attempt of
  /// `partition` of stage `stage`. TaskRunner calls it before each attempt's
  /// body runs, so the body never sees a half-done attempt.
  void MaybeFailTask(const std::string& stage, size_t partition,
                     int attempt) const;

  /// Total faults this set has fired (thrown, corrupted, or failed a task),
  /// for tests and chaos-round logging.
  uint64_t fired() const;

  /// When set, every thrown fault also bumps this engine counter
  /// (ssql_faults_injected_total). Pass nullptr to detach — the owning
  /// engine does so in its destructor, since the set itself may outlive it
  /// through the process-global I/O hooks.
  void set_fired_counter(CounterMetric* counter) {
    fired_counter_->store(counter, std::memory_order_release);
  }

 private:
  struct Rule {
    std::string site;  // exact, "prefix.*", or "*"
    bool always = false;
    uint64_t first_hit = 0, last_hit = 0;  // 1-based window; 0 = unused
    double probability = -1.0;             // < 0 = not probability-based
    FaultKind kind = FaultKind::kIo;
    // Shared so the set stays copyable while counters keep identity.
    std::shared_ptr<std::atomic<uint64_t>> hits =
        std::make_shared<std::atomic<uint64_t>>(0);
  };

  struct TaskRule {
    std::string stage;  // "*" matches any stage
    size_t partition = 0;
    int first_attempt = 0, last_attempt = 0;
  };

  /// Counts one fired fault in fired() and the attached engine counter.
  void CountFired() const;

  [[noreturn]] void Throw(const Rule& rule, const std::string& site,
                          const std::string& detail) const;

  /// Consumes one hit of `rule` (rules_[rule_index]) and decides whether it
  /// fires — the shared trigger logic of MaybeFail and MaybeCorrupt. The
  /// consumed 1-based hit number is written to `*hit_out` when non-null.
  bool ConsumeHitAndDecide(const Rule& rule, size_t rule_index,
                           uint64_t* hit_out = nullptr) const;

  std::vector<Rule> rules_;
  std::vector<TaskRule> task_rules_;
  uint64_t seed_ = 0;
  std::shared_ptr<std::atomic<uint64_t>> fired_ =
      std::make_shared<std::atomic<uint64_t>>(0);
  // Shared + atomic for the same reason as the hit counters: copies of the
  // set (and the global-hooks alias) observe one counter, race-free.
  std::shared_ptr<std::atomic<CounterMetric*>> fired_counter_ =
      std::make_shared<std::atomic<CounterMetric*>>(nullptr);
};

/// Retry policy for one I/O boundary (EngineConfig::io_max_retries /
/// io_retry_backoff_ms snapshot). Sleep before attempt k (1-based retry) is
/// backoff_ms << min(k-1, 6) plus deterministic jitter in [0, backoff_ms],
/// derived from jitter_seed — so tests replay the exact schedule and
/// concurrent retries against a shared resource still decorrelate.
struct IoRetryPolicy {
  int max_retries = 2;
  int backoff_ms = 1;
  uint64_t jitter_seed = 0;
  /// Observer invoked before each sleep with the 1-based retry number and
  /// the error text; wire metrics/logging here. May be empty.
  std::function<void(int retry, const std::string& error)> on_retry;
};

/// Runs `body`, retrying it up to policy.max_retries extra times when it
/// throws IoError or RetryableError (with backoff + jitter between
/// attempts), then rethrows the last error. Anything else — ParseError,
/// ResourceExhausted, cancellation — propagates immediately: only failures
/// that plausibly heal with time are worth waiting on. `what` names the
/// operation in log/retry messages. Bodies are re-run from scratch and must
/// be idempotent.
void RunWithIoRetry(const IoRetryPolicy& policy, const std::string& what,
                    const std::function<void()>& body);

/// Process-global hooks for I/O that runs before any query exists (data
/// source Open() at DataFrame-creation time does schema-inference reads
/// with no QueryContext in scope). Installed by ExecContext construction /
/// SetConfig; like the logger, process-global, last engine configured wins.
/// GlobalFaultPoints() never returns null (defaults to an empty set), and
/// the shared_ptr keeps the set alive past its engine's destruction.
void SetGlobalIoHooks(std::shared_ptr<const FaultPointSet> faults,
                      IoRetryPolicy policy);
std::shared_ptr<const FaultPointSet> GlobalFaultPoints();
IoRetryPolicy GlobalIoRetryPolicy();

}  // namespace ssql

#endif  // SSQL_UTIL_FAULT_POINTS_H_
