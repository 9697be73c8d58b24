#pragma once
// Engine flight recorder: an always-on, bounded ring journal of structured
// engine events (admission, tasks, spills, memory, watchdog, query
// lifecycle). Emission is designed to cost nanoseconds when nobody is
// reading: the disabled check is a single relaxed atomic load, and the
// enabled path copies a small POD slot into one ring under one mutex,
// assigning the event's sequence number under the same lock. Events are
// emitted per task attempt, spill or query, never per row, so the lock is
// rarely contended; readers (the `system.events` table, diagnostics
// bundles) hold it briefly to copy the ring out.
//
// Overwrite semantics: once the ring is full the oldest slot is replaced
// and the drop counter advances — the journal always holds the most recent
// `capacity` events, whichever threads emitted them, and never blocks on
// I/O or allocates on the emit path.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ssql {

/// Kinds of engine events recorded by the flight recorder. Names (see
/// EngineEventKindName) are stable dotted identifiers used in
/// `system.events` and diagnostics bundles; append new kinds at the end.
enum class EngineEventKind : uint8_t {
  kQueryBegin = 0,
  kQueryFinish,
  kAdmissionEnqueue,
  kAdmissionShed,
  kAdmissionTimeout,
  kTaskStart,
  kTaskFinish,
  kTaskRetry,
  kTaskSpeculate,
  kTaskSpeculationWin,
  kTaskCommit,
  kTaskTimeout,
  kSpillOpen,
  kSpillWrite,
  kSpillChecksumFail,
  kIoRetry,
  kMemoryGrant,
  kMemoryDeny,
  kWatchdogStall,
  kWatchdogKill,
  kNumKinds,  // sentinel; keep last
};

const char* EngineEventKindName(EngineEventKind kind);

enum class EventSeverity : uint8_t {
  kDebug = 0,
  kInfo,
  kWarn,
  kError,
};

const char* EventSeverityName(EventSeverity severity);

/// One fixed-size journal slot. POD by design: emission copies it into the
/// ring without allocating; the detail string is truncated to the inline
/// buffer. `value` is a kind-specific payload (bytes for spill writes,
/// partition for task events, queue depth for admission, duration_ms for
/// query finish, ...).
struct EngineEvent {
  uint64_t seq = 0;       // emission order
  int64_t unix_ms = 0;    // wall-clock milliseconds since the epoch
  uint64_t query_id = 0;  // 0 = engine-level event (no owning query)
  EngineEventKind kind = EngineEventKind::kQueryBegin;
  EventSeverity severity = EventSeverity::kDebug;
  int64_t value = 0;
  char detail[48] = {0};  // NUL-terminated, truncated as needed
};

class EventJournal {
 public:
  explicit EventJournal(size_t capacity = 0) { Configure(capacity); }

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// (Re)arms the journal with a new capacity; 0 disables emission
  /// entirely. Existing events are discarded and counters reset. Safe to
  /// call concurrently with Emit/Snapshot, but intended for engine
  /// configuration time.
  void Configure(size_t capacity);

  bool enabled() const {
    return capacity_.load(std::memory_order_relaxed) > 0;
  }

  /// Records one event. No-op (one atomic load) when the journal is
  /// disabled. Never blocks on readers for more than a brief ring copy
  /// and never allocates; `detail` is truncated to the inline buffer.
  void Emit(EngineEventKind kind, EventSeverity severity, uint64_t query_id,
            int64_t value, std::string_view detail);

  /// Copies the ring out, oldest event first (seq order). Bounded by the
  /// configured capacity.
  std::vector<EngineEvent> Snapshot() const;

  /// Total events ever emitted (while enabled) since the last Configure.
  uint64_t appended() const {
    return appended_.load(std::memory_order_relaxed);
  }

  /// Events overwritten before ever being visible to a Snapshot — the
  /// journal's loss counter. appended() - dropped() == Snapshot().size()
  /// when no emitter is mid-flight.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  size_t capacity() const { return capacity_.load(std::memory_order_relaxed); }

 private:
  // Slot count; 0 = disabled. Read on every Emit (relaxed).
  std::atomic<size_t> capacity_{0};
  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<EngineEvent> slots_;  // the ring; guarded by mu_
  uint64_t head_ = 0;               // events ever appended; guarded by mu_
};

}  // namespace ssql
