#ifndef SSQL_ENGINE_MEMORY_MANAGER_H_
#define SSQL_ENGINE_MEMORY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/event_journal.h"

namespace ssql {

class MemoryManager;
class QueryProfile;

/// Granularity in which operators grow their reservations. Charging row by
/// row would hammer the shared budget counters; a chunk amortizes that while
/// keeping the bound tight enough for testing with small budgets (the exact
/// deficit is requested when a whole chunk no longer fits).
inline constexpr int64_t kMemoryReserveChunkBytes = 64 * 1024;

/// RAII grant of query memory held by one operator instance (a partition
/// task's hash-aggregation map, sort run buffer, or hash-join build side).
/// All bookkeeping goes through the owning MemoryManager; destruction
/// releases the grant, so an exception unwind always returns the bytes.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  MemoryReservation(MemoryReservation&& other) noexcept;
  MemoryReservation& operator=(MemoryReservation&&) = delete;
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;
  ~MemoryReservation();

  /// Tries to grow the grant by `bytes`; false when the query budget would
  /// be exceeded — the caller must spill (or fail if spilling is off).
  bool TryGrow(int64_t bytes);

  /// Grows the grant to at least `needed_total` bytes, requesting a full
  /// kMemoryReserveChunkBytes when possible and the exact deficit
  /// otherwise. False when even the exact deficit is denied.
  bool EnsureReserved(int64_t needed_total);

  /// Grows unconditionally, letting the budget overshoot. Used for the
  /// irreducible working set (a single row, group, or spill bucket) so
  /// progress is always possible even under a tiny budget.
  void ForceGrow(int64_t bytes);

  void Shrink(int64_t bytes);

  /// Returns the entire grant (also done by the destructor).
  void Release();

  int64_t reserved() const { return reserved_; }

 private:
  friend class MemoryManager;
  explicit MemoryReservation(MemoryManager* mgr) : mgr_(mgr) {}

  MemoryManager* mgr_ = nullptr;
  int64_t reserved_ = 0;
};

/// Owns one memory budget and tracks what the blocking operators have
/// reserved against it, across all concurrently running partition tasks.
/// Used at two levels:
///
///   * per query — the QueryContext's budget
///     (EngineConfig::query_memory_limit_bytes), with `parent` set to the
///     engine pool so every grant is simultaneously carved from the
///     engine-wide total;
///   * per engine — ExecContext's pool
///     (EngineConfig::total_memory_limit_bytes), bounding the sum over all
///     concurrent queries. No profile, no parent.
///
/// Grants are handed out as MemoryReservations; when a grow would push
/// either level over its budget it is denied and the requesting operator
/// must shed state — spill to disk when EngineConfig::spill_enabled, or
/// fail the query with a clear error otherwise. Publishes the peak
/// reservation through the query profile as deltas attributed to the
/// operator running at the time, so the query's peak is
/// QueryProfile::Total(kPeakReservedBytes).
class MemoryManager {
 public:
  /// (Re)arms the budget; `limit_bytes < 0` = unlimited. Called once per
  /// QueryContext at BeginQuery (with the engine pool as `parent`) and by
  /// ExecContext at construction/SetConfig for the engine-wide pool.
  void Configure(int64_t limit_bytes, bool spill_enabled,
                 QueryProfile* profile, MemoryManager* parent = nullptr);

  /// Attaches the engine flight recorder so denials (always) and forced
  /// grants (rare, the irreducible working set) are journaled with this
  /// query's id. Per-chunk TryReserve grants are deliberately NOT
  /// journaled — a spilling query grows its grant thousands of times and
  /// would flood the ring. Called by QueryContext on the per-query level
  /// only; the engine pool stays detached (no query to attribute to).
  void AttachJournal(EventJournal* journal, uint64_t query_id) {
    journal_ = journal;
    query_id_ = query_id;
  }

  bool spill_enabled() const { return spill_enabled_; }
  int64_t limit_bytes() const { return limit_.load(std::memory_order_relaxed); }
  int64_t reserved_bytes() const {
    return reserved_.load(std::memory_order_relaxed);
  }

  MemoryReservation CreateReservation() { return MemoryReservation(this); }

  /// Error text for operators that are over budget and cannot spill.
  std::string OverBudgetMessage(const std::string& consumer) const;

 private:
  friend class MemoryReservation;

  bool TryReserve(int64_t bytes);
  void ForceReserve(int64_t bytes);
  void ReleaseBytes(int64_t bytes);
  void PublishPeak();
  void JournalDeny(int64_t bytes, const char* level);

  std::atomic<int64_t> limit_{-1};
  bool spill_enabled_ = true;
  std::atomic<int64_t> reserved_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<int64_t> published_peak_{0};
  QueryProfile* profile_ = nullptr;
  MemoryManager* parent_ = nullptr;
  EventJournal* journal_ = nullptr;
  uint64_t query_id_ = 0;
  // True between the first denial and the next clean grant — the window
  // in which repeat denies/forced grants are suppressed from the journal.
  std::atomic<bool> under_pressure_{false};
};

}  // namespace ssql

#endif  // SSQL_ENGINE_MEMORY_MANAGER_H_
