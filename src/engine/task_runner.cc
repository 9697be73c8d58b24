#include "engine/task_runner.h"

#include <algorithm>
#include <condition_variable>
#include <thread>

#include "engine/query_context.h"
#include "util/log.h"
#include "util/string_util.h"

namespace ssql {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The calling thread's in-flight task attempt (null on driver threads and
/// between attempts). thread_local rather than per-QueryContext state
/// because one pool thread interleaves attempts of different queries, and
/// because help-draining nests attempts on a single stack.
thread_local TaskAttemptState* t_current_attempt = nullptr;

/// Tasks faster than this never get a speculative duplicate, whatever the
/// median says: for microsecond tasks the duplicate's scheduling overhead
/// exceeds the straggler's lateness, and a noisy median would duplicate
/// half the stage.
constexpr int64_t kSpeculationMinRuntimeNs = 200 * 1000;  // 0.2 ms

/// How often the speculation coordinator re-examines running tasks. Bounded
/// detection latency for the bench's straggler case without measurable
/// idle cost (the coordinator only exists while its stage runs).
constexpr std::chrono::milliseconds kSpeculationPollInterval{1};

}  // namespace

void CancellationToken::Cancel(std::string reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (reason_.empty()) {
      reason_ = reason.empty() ? "cancelled" : std::move(reason);
    }
  }
  cancelled_.store(true, std::memory_order_release);
}

void CancellationToken::SetTimeout(int64_t timeout_ms) {
  if (timeout_ms < 0) {
    deadline_ns_.store(0, std::memory_order_release);
    return;
  }
  timeout_ms_.store(timeout_ms, std::memory_order_relaxed);
  deadline_ns_.store(NowNs() + timeout_ms * 1'000'000, std::memory_order_release);
}

bool CancellationToken::PastDeadline() const {
  int64_t deadline = deadline_ns_.load(std::memory_order_acquire);
  return deadline != 0 && NowNs() >= deadline;
}

bool CancellationToken::IsCancelled() const {
  if (cancelled_.load(std::memory_order_acquire) || PastDeadline()) return true;
  return parent_ != nullptr && parent_->IsCancelled();
}

std::string CancellationToken::StatusMessage() const {
  if (cancelled_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mu_);
    return "query cancelled: " + reason_;
  }
  if (PastDeadline()) {
    return "query timed out after " +
           std::to_string(timeout_ms_.load(std::memory_order_relaxed)) + " ms";
  }
  // Cancelled only through the chain: report the ancestor's cause, so the
  // unwind of a child names why its parent died.
  if (parent_ != nullptr) return parent_->StatusMessage();
  return "";
}

void CancellationToken::ThrowIfCancelled() const {
  if (!IsCancelled()) return;
  throw ExecutionError(StatusMessage());
}

CancellationTokenPtr CancellationToken::MakeChild(CancellationTokenPtr parent) {
  auto child = std::make_shared<CancellationToken>();
  child->parent_ = std::move(parent);
  return child;
}

TaskAttemptScope::TaskAttemptScope(QueryContext& ctx, TaskAttemptState* state)
    : ctx_(ctx), state_(state), saved_(t_current_attempt) {
  t_current_attempt = state_;
  ctx_.RegisterTaskAttempt(state_);
}

TaskAttemptScope::~TaskAttemptScope() {
  ctx_.UnregisterTaskAttempt(state_);
  t_current_attempt = saved_;
}

void PollCurrentTaskAttempt() {
  TaskAttemptState* attempt = t_current_attempt;
  if (attempt == nullptr) return;
  attempt->last_beat_ns.store(NowNs(), std::memory_order_relaxed);
  if (!attempt->token) return;
  // Lost-race first: when a duplicate already committed this partition, a
  // simultaneously-expired deadline must not burn a retry on it.
  if (attempt->token->LocalCancelRequested()) {
    throw TaskAttemptAborted(attempt->token->StatusMessage());
  }
  if (attempt->token->LocalDeadlineExceeded()) {
    attempt->timed_out.store(true, std::memory_order_relaxed);
    throw RetryableError(
        "task for stage '" + attempt->stage + "' partition " +
        std::to_string(attempt->partition) + " exceeded its task_timeout_ms "
        "deadline (" + std::to_string(attempt->timeout_ms) +
        " ms); attempt abandoned as runaway");
  }
}

FaultInjector FaultInjector::Parse(const std::string& spec) {
  FaultInjector injector;
  if (spec.empty()) return injector;
  for (const std::string& entry : Split(spec, ',')) {
    std::string_view trimmed = Trim(entry);
    if (trimmed.empty()) continue;
    // Site rules ("<site>=<trigger>[:<kind>]", incl. "seed=<N>") belong to
    // FaultPointSet; the two rule families share one spec string.
    if (trimmed.find('=') != std::string_view::npos) continue;
    std::vector<std::string> parts = Split(std::string(trimmed), ':');
    int64_t partition = -1, first = -1, last = -1;
    bool ok = parts.size() == 3 && !parts[0].empty() &&
              ParseInt64(parts[1], &partition) && partition >= 0;
    if (ok) {
      size_t dash = parts[2].find('-');
      if (dash == std::string::npos) {
        ok = ParseInt64(parts[2], &first);
        last = first;
      } else {
        ok = ParseInt64(parts[2].substr(0, dash), &first) &&
             ParseInt64(parts[2].substr(dash + 1), &last);
      }
    }
    if (!ok || first < 0 || last < first) {
      throw ExecutionError(
          "bad fault_injection_spec entry '" + std::string(trimmed) +
          "': expected <stage>:<partition>:<attempt>[-<last_attempt>]");
    }
    injector.rules_.push_back({parts[0], static_cast<size_t>(partition),
                               static_cast<int>(first), static_cast<int>(last)});
  }
  return injector;
}

void FaultInjector::MaybeFail(const std::string& stage, size_t partition,
                              int attempt) const {
  for (const Rule& rule : rules_) {
    if (rule.partition != partition) continue;
    if (rule.stage != "*" && rule.stage != stage) continue;
    if (attempt < rule.first_attempt || attempt > rule.last_attempt) continue;
    throw RetryableError("injected fault: stage '" + stage + "' partition " +
                         std::to_string(partition) + " attempt " +
                         std::to_string(attempt));
  }
}

void TaskRunner::RunStage(const std::string& stage, size_t num_partitions,
                          const std::function<void(size_t)>& body) const {
  RunStageImpl(
      stage, num_partitions,
      [&body](size_t p) {
        body(p);
        return TaskCommitFn();
      },
      /*speculatable=*/false);
}

void TaskRunner::RunStageSpeculatable(
    const std::string& stage, size_t num_partitions,
    const std::function<TaskCommitFn(size_t)>& body) const {
  RunStageImpl(stage, num_partitions, body, /*speculatable=*/true);
}

void TaskRunner::RunStageImpl(const std::string& stage, size_t num_partitions,
                              const std::function<TaskCommitFn(size_t)>& body,
                              bool speculatable) const {
  if (num_partitions == 0) return;
  const EngineConfig& config = ctx_.config();
  const CancellationTokenPtr token = ctx_.cancellation();
  FaultInjector injector = FaultInjector::Parse(config.fault_injection_spec);
  const int max_retries = std::max(0, config.task_max_retries);
  const int backoff_ms = std::max(0, config.task_retry_backoff_ms);
  const int64_t task_timeout_ms = config.task_timeout_ms;
  // Speculation needs at least two tasks: a stage of one has no siblings to
  // take a median over, and its "straggler" IS the stage.
  const bool speculating = speculatable && config.speculation_multiplier >= 0 &&
                           num_partitions >= 2;
  // Attempts get their own chained token when anything can cancel them
  // individually; otherwise they only publish heartbeats.
  const bool attempt_tokens = speculating || task_timeout_ms >= 0;

  QueryProfile& profile = ctx_.profile();
  ProfileSpan* stage_span =
      profile.BeginSpan(SpanKind::kStage, stage, nullptr,
                        std::to_string(num_partitions) + " partitions");

  // Per-partition commit slot: the exactly-once gate two racing attempt
  // copies decide through. Also carries what the speculation coordinator
  // reads to find stragglers.
  struct Slot {
    std::atomic<int> committed{0};     // 0 = open, 1 = result published
    std::atomic<int64_t> start_ns{0};  // primary's first attempt start
    std::atomic<bool> speculated{false};
  };
  // Shared stage state: a fatal failure in any task aborts siblings that
  // have not started yet; every failure is recorded for the final message.
  struct StageState {
    std::atomic<bool> abort{false};
    std::mutex mu;
    std::vector<std::string> errors;  // "partition N: what happened"
    ErrorCode code = ErrorCode::kOk;  // first failure's taxonomy code
    std::vector<Slot> slots;
    // Speculation bookkeeping, guarded by spec_mu. Tokens of in-flight
    // attempts are published here so whichever copy commits first can
    // cancel the other cooperatively.
    std::mutex spec_mu;
    std::condition_variable spec_cv;
    std::vector<int64_t> durations_ns;  // committed partitions
    std::vector<CancellationTokenPtr> primary_tokens;
    std::vector<CancellationTokenPtr> spec_tokens;
    bool stage_over = false;
  };
  auto state = std::make_shared<StageState>();
  state->slots = std::vector<Slot>(num_partitions);
  if (speculating) {
    state->primary_tokens.resize(num_partitions);
    state->spec_tokens.resize(num_partitions);
  }

  auto record_failure = [&](ProfileSpan* task_span, size_t partition,
                            const std::string& what, ErrorCode code) {
    profile.Add(task_span, ProfileCounter::kFailures, 1);
    state->abort.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->errors.empty()) state->code = code;
    state->errors.push_back("partition " + std::to_string(partition) + ": " +
                            what);
  };

  // First copy to finish commits; the CAS makes the publish exactly-once
  // however the primary and its duplicate interleave. Returns whether THIS
  // caller won. The loser's token is cancelled here (not killed — the loser
  // notices at its next poll), with the reason the satellite fix threads
  // through CancellationToken::StatusMessage.
  auto try_commit = [&](size_t p, bool speculative,
                        const TaskCommitFn& commit) -> bool {
    Slot& slot = state->slots[p];
    int expected = 0;
    if (!slot.committed.compare_exchange_strong(expected, 1,
                                                std::memory_order_acq_rel)) {
      return false;
    }
    if (commit) commit();
    ctx_.EmitEvent(EngineEventKind::kTaskCommit, EventSeverity::kDebug,
                   static_cast<int64_t>(p),
                   speculative ? stage + " (spec)" : stage);
    if (speculating) {
      int64_t start = slot.start_ns.load(std::memory_order_acquire);
      CancellationTokenPtr loser;
      {
        std::lock_guard<std::mutex> lock(state->spec_mu);
        if (start != 0) state->durations_ns.push_back(NowNs() - start);
        loser = speculative ? state->primary_tokens[p] : state->spec_tokens[p];
      }
      state->spec_cv.notify_all();
      if (loser) {
        loser->Cancel("lost speculation race for stage '" + stage +
                      "' partition " + std::to_string(p));
      }
    }
    return true;
  };

  std::vector<std::function<void()>> tasks;
  tasks.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    tasks.push_back([&, p] {
      Slot& slot = state->slots[p];
      // A failed sibling or a cancelled/timed-out query stops this task
      // before it does any work (Spark: killing a stage's pending tasks).
      if (state->abort.load(std::memory_order_acquire) ||
          token->IsCancelled()) {
        return;
      }
      // One task span per partition covering all of its attempts; the whole
      // retry loop stays on this thread, so the span's CPU delta is valid.
      ProfileSpan* task_span = profile.BeginSpan(
          SpanKind::kTask, "p" + std::to_string(p), stage_span);
      slot.start_ns.store(NowNs(), std::memory_order_release);
      for (int attempt = 0;; ++attempt) {
        if (slot.committed.load(std::memory_order_acquire) != 0) {
          // A speculative duplicate already delivered this partition.
          profile.EndSpan(task_span, "lost speculation race");
          return;
        }
        if (attempt > 0 && (state->abort.load(std::memory_order_acquire) ||
                            token->IsCancelled())) {
          profile.EndSpan(task_span, "aborted");
          return;
        }
        profile.Add(task_span, ProfileCounter::kAttempts, 1);
        // One journal event per attempt (bounded by partitions × retries),
        // never per row. value = partition; retries carry the attempt index.
        ctx_.EmitEvent(EngineEventKind::kTaskStart, EventSeverity::kDebug,
                       static_cast<int64_t>(p), stage);
        TaskAttemptState att;
        att.stage = stage;
        att.partition = p;
        if (attempt_tokens) {
          att.token = CancellationToken::MakeChild(token);
          if (task_timeout_ms >= 0) {
            att.token->SetTimeout(task_timeout_ms);
            att.timeout_ms = task_timeout_ms;
          }
        }
        att.last_beat_ns.store(NowNs(), std::memory_order_relaxed);
        if (speculating) {
          std::lock_guard<std::mutex> lock(state->spec_mu);
          state->primary_tokens[p] = att.token;
        }
        bool done = false;
        try {
          TaskAttemptScope scope(ctx_, &att);
          if (injector.enabled()) injector.MaybeFail(stage, p, attempt);
          TaskCommitFn commit = body(p);
          try_commit(p, /*speculative=*/false, commit);
          profile.EndSpan(task_span, "ok");
          done = true;
        } catch (const TaskAttemptAborted& e) {
          // Benign: the duplicate won; the partition's result is committed.
          profile.EndSpan(task_span, std::string("aborted: ") + e.what());
          done = true;
        } catch (const RetryableError& e) {
          if (att.timed_out.load(std::memory_order_relaxed)) {
            profile.Add(task_span, ProfileCounter::kTaskTimeouts, 1);
            ctx_.EmitEvent(EngineEventKind::kTaskTimeout, EventSeverity::kWarn,
                           static_cast<int64_t>(p), stage);
          }
          if (slot.committed.load(std::memory_order_acquire) != 0) {
            profile.EndSpan(task_span, "lost speculation race");
            done = true;
          } else if (attempt >= max_retries) {
            record_failure(task_span, p,
                           std::string(e.what()) + " (gave up after " +
                               std::to_string(attempt + 1) + " attempts)",
                           e.code());
            profile.EndSpan(task_span, std::string("error: ") + e.what());
            done = true;
          } else {
            profile.Add(task_span, ProfileCounter::kRetries, 1);
            ctx_.EmitEvent(EngineEventKind::kTaskRetry, EventSeverity::kWarn,
                           static_cast<int64_t>(p),
                           stage + " attempt " + std::to_string(attempt + 1));
            profile.AddInstant("task.retry", "task",
                               {{"stage", stage},
                                {"partition", std::to_string(p)},
                                {"attempt", std::to_string(attempt + 1)}});
            LogEvent(LogLevel::kDebug, "task.retry",
                     {{"query", ctx_.query_id()},
                      {"stage", stage},
                      {"partition", p},
                      {"attempt", attempt + 1},
                      {"error", e.what()}});
          }
        } catch (const std::exception& e) {
          if (slot.committed.load(std::memory_order_acquire) != 0) {
            // The winner already published; whatever killed this copy
            // (often the cancel racing an injected fault) cannot matter.
            profile.EndSpan(task_span,
                            std::string("aborted after speculation win: ") +
                                e.what());
          } else {
            record_failure(task_span, p, e.what(),
                           Status::FromException(e).code());
            profile.EndSpan(task_span, std::string("error: ") + e.what());
          }
          done = true;
        } catch (...) {
          record_failure(task_span, p, "unknown error",
                         ErrorCode::kExecutionError);
          profile.EndSpan(task_span, "error: unknown");
          done = true;
        }
        if (speculating) {
          std::lock_guard<std::mutex> lock(state->spec_mu);
          state->primary_tokens[p] = nullptr;
        }
        if (done) {
          ctx_.EmitEvent(EngineEventKind::kTaskFinish, EventSeverity::kDebug,
                         static_cast<int64_t>(p), stage);
          return;
        }
        if (backoff_ms > 0) {
          int shift = std::min(attempt, 6);  // cap exponential growth
          std::this_thread::sleep_for(
              std::chrono::milliseconds(backoff_ms << shift));
        }
      }
    });
  }

  // Speculation coordinator: one short-lived thread per speculating stage.
  // It runs duplicates itself rather than queueing them on the pool — when
  // every worker is occupied by the very stragglers being raced, a queued
  // duplicate would never start. Once speculation_quantile of the stage has
  // committed, any running task older than median × multiplier gets one
  // duplicate attempt under its own chained token.
  std::thread spec_thread;
  if (speculating) {
    const size_t quantile_count = std::max<size_t>(
        1, static_cast<size_t>(config.speculation_quantile *
                               static_cast<double>(num_partitions)));
    const double multiplier = config.speculation_multiplier;
    auto run_duplicate = [&, task_timeout_ms](size_t p) {
      ProfileSpan* spec_span = profile.BeginSpan(
          SpanKind::kTask, "p" + std::to_string(p) + ".spec", stage_span);
      profile.Add(spec_span, ProfileCounter::kSpeculated, 1);
      profile.Add(spec_span, ProfileCounter::kAttempts, 1);
      TaskAttemptState att;
      att.stage = stage;
      att.partition = p;
      att.speculative = true;
      att.token = CancellationToken::MakeChild(token);
      if (task_timeout_ms >= 0) {
        att.token->SetTimeout(task_timeout_ms);
        att.timeout_ms = task_timeout_ms;
      }
      att.last_beat_ns.store(NowNs(), std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(state->spec_mu);
        state->spec_tokens[p] = att.token;
      }
      try {
        TaskAttemptScope scope(ctx_, &att);
        TaskCommitFn commit = body(p);
        if (try_commit(p, /*speculative=*/true, commit)) {
          profile.Add(spec_span, ProfileCounter::kSpeculationWins, 1);
          LogEvent(LogLevel::kDebug, "task.speculation_win",
                   {{"query", ctx_.query_id()},
                    {"stage", stage},
                    {"partition", p}});
          ctx_.EmitEvent(EngineEventKind::kTaskSpeculationWin,
                         EventSeverity::kInfo, static_cast<int64_t>(p), stage);
          profile.AddInstant("task.speculation_win", "task",
                             {{"stage", stage},
                              {"partition", std::to_string(p)}});
          profile.EndSpan(spec_span, "ok (speculation win)");
        } else {
          profile.AddInstant("task.speculation_loss", "task",
                             {{"stage", stage},
                              {"partition", std::to_string(p)}});
          profile.EndSpan(spec_span, "lost speculation race");
        }
      } catch (const TaskAttemptAborted& e) {
        profile.EndSpan(spec_span, std::string("aborted: ") + e.what());
      } catch (const std::exception& e) {
        // Speculative copies are best-effort: the primary path owns the
        // partition's error semantics, so a failed duplicate is only noise.
        profile.EndSpan(spec_span, std::string("error: ") + e.what());
      }
      std::lock_guard<std::mutex> lock(state->spec_mu);
      state->spec_tokens[p] = nullptr;
    };
    // run_duplicate is copied (not referenced): its own scope ends with
    // this if-block while the thread outlives it; the lambda's captured
    // references point at RunStageImpl locals, which live until join.
    spec_thread = std::thread([&, run_duplicate, quantile_count, multiplier] {
      std::unique_lock<std::mutex> lock(state->spec_mu);
      while (!state->stage_over) {
        state->spec_cv.wait_for(lock, kSpeculationPollInterval);
        if (state->stage_over ||
            state->abort.load(std::memory_order_acquire) ||
            token->IsCancelled()) {
          break;
        }
        if (state->durations_ns.size() < quantile_count) continue;
        std::vector<int64_t> durations = state->durations_ns;
        lock.unlock();
        auto mid = durations.begin() + durations.size() / 2;
        std::nth_element(durations.begin(), mid, durations.end());
        const int64_t median_ns = *mid;
        const int64_t threshold_ns = std::max(
            kSpeculationMinRuntimeNs,
            static_cast<int64_t>(static_cast<double>(median_ns) * multiplier));
        const int64_t now = NowNs();
        for (size_t p = 0; p < num_partitions; ++p) {
          Slot& slot = state->slots[p];
          if (slot.committed.load(std::memory_order_acquire) != 0) continue;
          if (slot.speculated.load(std::memory_order_relaxed)) continue;
          const int64_t start = slot.start_ns.load(std::memory_order_acquire);
          if (start == 0 || now - start <= threshold_ns) continue;
          slot.speculated.store(true, std::memory_order_relaxed);
          ctx_.EmitEvent(EngineEventKind::kTaskSpeculate, EventSeverity::kInfo,
                         static_cast<int64_t>(p),
                         stage + " runtime " +
                             std::to_string((now - start) / 1'000'000) + "ms");
          LogEvent(LogLevel::kDebug, "task.speculate",
                   {{"query", ctx_.query_id()},
                    {"stage", stage},
                    {"partition", p},
                    {"runtime_ms", (now - start) / 1'000'000},
                    {"median_ms", median_ns / 1'000'000}});
          // Run the duplicate here, on the coordinator thread — guaranteed
          // to start immediately even with a saturated pool.
          run_duplicate(p);
        }
        lock.lock();
      }
    });
  }

  ctx_.pool().RunAll(std::move(tasks));
  if (spec_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(state->spec_mu);
      state->stage_over = true;
    }
    state->spec_cv.notify_all();
    spec_thread.join();
  }

  // Cancellation/timeout outranks task failures: skipped tasks are a
  // consequence, not the cause.
  if (token->IsCancelled()) {
    profile.EndSpan(stage_span, "cancelled");
    token->ThrowIfCancelled();
  }

  std::lock_guard<std::mutex> lock(state->mu);
  if (state->errors.empty()) {
    profile.EndSpan(stage_span, "ok");
    return;
  }
  std::string message = "stage '" + stage + "': " +
                        std::to_string(state->errors.size()) +
                        " task(s) failed";
  for (const std::string& err : state->errors) message += "\n  " + err;
  profile.EndSpan(stage_span, "error: " + message);
  // Rethrow with the first failed task's taxonomy code, so a typed error
  // (ResourceExhausted from the disk quota, IoError from a dead source)
  // keeps its category across the stage boundary and lands in
  // system.queries' error_code column intact.
  Status(state->code == ErrorCode::kOk ? ErrorCode::kExecutionError
                                       : state->code,
         message)
      .ThrowIfError();
}

}  // namespace ssql
