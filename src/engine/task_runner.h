#ifndef SSQL_ENGINE_TASK_RUNNER_H_
#define SSQL_ENGINE_TASK_RUNNER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace ssql {

class QueryContext;

class CancellationToken;
using CancellationTokenPtr = std::shared_ptr<CancellationToken>;

/// Cooperative cancellation shared by the driver and every partition task
/// of a query. Cancellation has three sources: an explicit Cancel() (user
/// abort), a wall-clock deadline (EngineConfig::query_timeout_ms /
/// task_timeout_ms), and — for child tokens — the parent chain: a task
/// attempt's token is a child of the query token, so cancelling the query
/// cancels every attempt while cancelling one attempt (a lost speculation
/// race) leaves its siblings running. Tasks and long operator loops poll
/// ThrowIfCancelled(); the engine never kills a thread, matching Spark's
/// cooperative task-kill model.
class CancellationToken {
 public:
  /// Marks the token cancelled; idempotent (the first reason wins).
  void Cancel(std::string reason);

  /// Arms a deadline `timeout_ms` from now. Negative = no deadline.
  void SetTimeout(int64_t timeout_ms);

  /// True if cancelled, past the deadline, or any ancestor is cancelled.
  bool IsCancelled() const;

  /// Throws ExecutionError describing the cancellation or timeout.
  void ThrowIfCancelled() const;

  /// Human-readable cancellation cause ("" when not cancelled). A child
  /// token cancelled only through its parent reports the parent's reason —
  /// so a speculative loser's error names *why* ("lost speculation race
  /// for stage 'scan' partition 3"), not a generic cancel.
  std::string StatusMessage() const;

  /// Creates a token whose IsCancelled()/StatusMessage() also observe
  /// `parent`. Cancelling the child never propagates up.
  static CancellationTokenPtr MakeChild(CancellationTokenPtr parent);

  /// True if Cancel() was called on THIS token (not inherited from the
  /// parent, not a deadline) — how a task attempt distinguishes "I lost the
  /// speculation race" from "the whole query died".
  bool LocalCancelRequested() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// True if this token's own deadline (SetTimeout) has passed — how a task
  /// attempt distinguishes its task_timeout_ms expiring from query death.
  bool LocalDeadlineExceeded() const { return PastDeadline(); }

 private:
  bool PastDeadline() const;

  std::atomic<bool> cancelled_{false};
  // Deadline as steady_clock ns-since-epoch; 0 = unarmed.
  std::atomic<int64_t> deadline_ns_{0};
  std::atomic<int64_t> timeout_ms_{0};
  mutable std::mutex mu_;
  std::string reason_;
  // Set once by MakeChild before the token is shared; immutable after.
  CancellationTokenPtr parent_;
};

/// How often row-level loops poll the cancellation token: every
/// `kCancellationCheckInterval` rows (must stay a power of two). Each poll
/// also publishes a progress heartbeat for the engine watchdog — see
/// QueryContext::CheckCancelledEvery.
inline constexpr size_t kCancellationCheckInterval = 64;

/// Runtime state of ONE in-flight task attempt, registered with its
/// QueryContext while the attempt runs so the engine watchdog can scan
/// progress heartbeats and name the stuck stage/partition, and so a
/// speculation coordinator can cancel the losing copy cooperatively.
struct TaskAttemptState {
  std::string stage;
  size_t partition = 0;
  bool speculative = false;
  /// Child of the query token (null when neither task_timeout_ms nor
  /// speculation is armed — then only heartbeats are published).
  CancellationTokenPtr token;
  /// Last progress heartbeat, steady-clock ns. Written by the attempt's
  /// thread at every cancellation poll site; read by the watchdog.
  std::atomic<int64_t> last_beat_ns{0};
  /// Set when the attempt's task_timeout_ms deadline was converted into a
  /// RetryableError, so the retry loop can attribute the failure.
  std::atomic<bool> timed_out{false};
  /// The armed per-attempt deadline, for the timeout error message.
  int64_t timeout_ms = -1;
};

/// Thrown out of a task body when this attempt — not the query — was
/// cancelled because its duplicate won the speculation race. Internal
/// control flow: TaskRunner absorbs it as a benign abort (the partition's
/// result was already committed by the winner), it never fails a stage.
class TaskAttemptAborted : public ExecutionError {
 public:
  using ExecutionError::ExecutionError;
};

/// RAII: registers `state` with `ctx` (watchdog visibility) and makes it
/// the calling thread's current attempt for PollCurrentTaskAttempt();
/// restores the previous attempt on destruction, so nested stages and
/// ThreadPool help-draining (an outer task running an inner stage's tasks
/// on its own thread) keep per-attempt state straight.
class TaskAttemptScope {
 public:
  TaskAttemptScope(QueryContext& ctx, TaskAttemptState* state);
  ~TaskAttemptScope();

  TaskAttemptScope(const TaskAttemptScope&) = delete;
  TaskAttemptScope& operator=(const TaskAttemptScope&) = delete;

 private:
  QueryContext& ctx_;
  TaskAttemptState* state_;
  TaskAttemptState* saved_;
};

/// Per-attempt poll hook, called from QueryContext::CheckCancelled at every
/// cancellation poll site. Publishes a progress heartbeat on the current
/// thread's attempt, then converts per-attempt cancellation into control
/// flow: an expired task_timeout_ms deadline throws RetryableError (the
/// attempt is runaway; a fresh attempt gets a fresh deadline) and a lost
/// speculation race throws TaskAttemptAborted. No-op outside a task.
void PollCurrentTaskAttempt();

/// Runs one "stage" — n per-partition tasks — on the engine's pool with
/// Spark-style fault handling, which ThreadPool::RunAll alone does not
/// provide:
///
///   * each partition is attempted up to 1 + task_max_retries times when it
///     fails with RetryableError (exponential backoff between attempts);
///   * any other exception is fatal: outstanding sibling tasks that have
///     not started yet are cancelled, and every failure observed during the
///     stage is collected into one ExecutionError naming the partitions;
///   * the query's CancellationToken is polled before each attempt, so a
///     cancelled or timed-out query stops scheduling work promptly;
///   * each attempt runs under a child CancellationToken chained to the
///     query token: EngineConfig::task_timeout_ms arms a per-attempt
///     deadline that converts a runaway attempt into a RetryableError, and
///     attempts publish progress heartbeats for the engine watchdog;
///   * RunStageSpeculatable additionally races stragglers against duplicate
///     attempts (EngineConfig::speculation_multiplier): once
///     speculation_quantile of the stage's tasks have finished, any task
///     running longer than median × multiplier gets one duplicate; the
///     first copy to finish commits exactly once and the loser is cancelled
///     cooperatively through its attempt token;
///   * each stage opens a profile span with one task span per partition
///     (covering all of its attempts), carrying the attempts/retries/
///     failures/speculation/timeout counters; their engine-wide totals are
///     the ssql_query_<counter>_total registry counters folded at Finish.
///
/// Bodies are re-executed from scratch on retry, so they must be
/// idempotent; a body that destructively consumes shared input must only
/// throw RetryableError before its first destructive step (injected task
/// faults, FaultPointSet::MaybeFailTask, fire before the body runs,
/// preserving this).
class TaskRunner {
 public:
  explicit TaskRunner(QueryContext& ctx) : ctx_(ctx) {}

  /// Runs `body(p)` for every partition p in [0, num_partitions) and blocks
  /// until the stage completes or fails. Never speculates: the body's side
  /// effects are opaque, so two concurrent copies could race.
  void RunStage(const std::string& stage, size_t num_partitions,
                const std::function<void(size_t)>& body) const;

  /// What a speculatable task's compute phase returns: a cheap, must-not-
  /// fail closure publishing the already-computed result (typically one
  /// move-assignment into the caller's output slot). Exactly one closure
  /// per partition ever runs, even when two attempts raced; an empty
  /// function is allowed (nothing to publish).
  using TaskCommitFn = std::function<void()>;

  /// Two-phase variant eligible for speculative duplicates: `body(p)` does
  /// the work against partition-local state only and returns the commit
  /// closure that publishes its result. Because the compute phase touches
  /// nothing shared, a straggler and its duplicate may run concurrently —
  /// the exactly-once commit is what keeps that deliberate race benign
  /// (and TSan-clean). Speculation is armed by
  /// EngineConfig::speculation_multiplier >= 0; when disabled this behaves
  /// exactly like RunStage.
  void RunStageSpeculatable(
      const std::string& stage, size_t num_partitions,
      const std::function<TaskCommitFn(size_t)>& body) const;

 private:
  void RunStageImpl(const std::string& stage, size_t num_partitions,
                    const std::function<TaskCommitFn(size_t)>& body,
                    bool speculatable) const;

  QueryContext& ctx_;
};

}  // namespace ssql

#endif  // SSQL_ENGINE_TASK_RUNNER_H_
