#ifndef SSQL_UTIL_SPILL_FILE_H_
#define SSQL_UTIL_SPILL_FILE_H_

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>

#include "types/row.h"
#include "util/event_journal.h"
#include "util/fault_points.h"

namespace ssql {

/// Rough heap footprint of a boxed value / row, used by operators to charge
/// their MemoryReservation. Deliberately an over-estimate (boxing overhead
/// dominates for small values) so budgets err toward spilling early.
int64_t EstimateValueBytes(const Value& v);
int64_t EstimateRowBytes(const Row& row);

/// splitmix64 finalizer. Spill fan-out must not reuse the raw shuffle hash:
/// rows inside a shuffled partition all satisfy `hash % num_partitions ==
/// p`, so `hash % fanout` would collapse to a handful of buckets. Mixing
/// decorrelates the two modular slices. Inline: hash aggregation also
/// mixes every key column of every row with it.
inline uint64_t MixHash64(uint64_t h) {
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Byte budget for live spill files, the disk analogue of MemoryManager:
/// two levels, an engine-wide pool (EngineConfig::spill_disk_limit_bytes)
/// that every query's charges are carved from via `parent`, and a per-query
/// level (unlimited by default) for attribution. A denied charge means the
/// spill substrate itself is exhausted — the caller surfaces
/// ResourceExhausted naming its stage, that one query fails cleanly, and
/// siblings keep their already-charged bytes and keep running. Charges are
/// released as spill files are deleted (RAII), so a failed or cancelled
/// query automatically returns its disk the way it returns its memory.
class DiskQuota {
 public:
  /// (Re)arms the budget; `limit_bytes < 0` = unlimited.
  void Configure(int64_t limit_bytes, DiskQuota* parent = nullptr);

  /// Tries to charge `bytes` against this level and every ancestor; false
  /// (with full rollback) when any level would exceed its limit.
  bool TryCharge(int64_t bytes);

  void Release(int64_t bytes);

  int64_t limit_bytes() const { return limit_.load(std::memory_order_relaxed); }
  int64_t used_bytes() const { return used_.load(std::memory_order_relaxed); }

  /// The nearest level (this or an ancestor) with a finite limit — the one
  /// a denied charge actually hit, for error messages. Null when every
  /// level is unlimited (in which case TryCharge can never fail).
  const DiskQuota* LimitingLevel() const {
    for (const DiskQuota* q = this; q != nullptr; q = q->parent_) {
      if (q->limit_bytes() >= 0) return q;
    }
    return nullptr;
  }

 private:
  std::atomic<int64_t> limit_{-1};
  std::atomic<int64_t> used_{0};
  DiskQuota* parent_ = nullptr;
};

/// A temporary on-disk run of serialized rows, RAII-managed: the backing
/// file is created uniquely named under `dir` (created if missing) and is
/// deleted by the destructor — on success, error and cancellation unwinds
/// alike, so a query can never leave orphan scratch files behind.
///
/// Lifecycle: Append() rows, FinishWrites(), then read back through one or
/// more Readers. Each appended row becomes one framed record batch
///
///   [u32 payload_len][u32 crc32][payload]
///
/// where the payload is a self-describing tag+payload serialization of the
/// row covering every Value alternative except opaque UDT objects (which
/// cannot be spilled and raise ExecutionError). The CRC-32 is verified on
/// every read before any byte of the payload is parsed, so bit rot in
/// spilled data surfaces as IoError — never as silently wrong rows.
///
/// Every write and flush checks the stream's failure bits and surfaces
/// IoError naming the path and operation — a full disk must fail the query
/// loudly, never truncate a run that reads back as silent wrong answers.
class SpillFile {
 public:
  /// Optional I/O instrumentation threaded in by QueryContext::MakeSpillFile:
  /// the engine's fault-point set (sites "spill.write" / "spill.read"), the
  /// query's disk quota, the consumer label ("agg-partial", "sort",
  /// "join-build") that exhaustion errors name as the stage, and the engine
  /// flight recorder (spill open / write-summary / checksum-fail events
  /// tagged with the owning query).
  struct Hooks {
    const FaultPointSet* faults = nullptr;
    DiskQuota* quota = nullptr;
    std::string consumer;
    EventJournal* journal = nullptr;
    uint64_t query_id = 0;
  };

  /// Creates and opens the file; throws IoError if the directory cannot be
  /// created or the file cannot be opened. (Two overloads, not a default
  /// argument: a nested-class NSDMI default inside the enclosing class
  /// trips GCC's incomplete-class rule.)
  SpillFile(const std::string& dir, const std::string& prefix);
  SpillFile(const std::string& dir, const std::string& prefix, Hooks hooks);
  ~SpillFile();

  SpillFile(SpillFile&& other) noexcept
      : path_(std::move(other.path_)),
        out_(std::move(other.out_)),
        rows_(other.rows_),
        bytes_(other.bytes_),
        charged_(other.charged_),
        hooks_(std::move(other.hooks_)) {
    other.path_.clear();  // moved-from state must not delete the file
    other.charged_ = 0;   // ... nor release the quota charge
  }
  SpillFile& operator=(SpillFile&& other) = delete;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends one row; returns the number of bytes written. Throws IoError
  /// on any stream failure and ResourceExhausted when the disk quota is.
  int64_t Append(const Row& row);

  /// Flushes and closes the write stream; must precede any Reader. Throws
  /// IoError if the flush or close fails (deferred ENOSPC surfaces here).
  void FinishWrites();

  size_t row_count() const { return rows_; }
  int64_t bytes_written() const { return bytes_; }
  const std::string& path() const { return path_; }

  /// Sequential reader over a finished spill file. Must not outlive the
  /// SpillFile (whose destructor deletes the backing file).
  class Reader {
   public:
    explicit Reader(const SpillFile& file);
    /// Reads the next row into `*row`; false at end-of-file. Throws IoError
    /// on truncation, a frame checksum mismatch, or corruption — a short
    /// file is an error, not an EOF. The fault site "spill.read" is probed
    /// per frame (both MaybeFail throws and corrupt-kind bit flips, which
    /// then trip the checksum).
    bool Next(Row* row);

   private:
    std::ifstream in_;
    std::string path_;  // for error messages
    std::string frame_;  // per-frame payload scratch, reused across calls
    size_t remaining_;
    const FaultPointSet* faults_;
    EventJournal* journal_;
    uint64_t query_id_;
  };

 private:
  /// Charges the quota for growth up to `bytes_`, in chunks so the shared
  /// engine-level atomics are not hit on every row.
  void ChargeQuota();

  std::string path_;
  std::ofstream out_;
  size_t rows_ = 0;
  int64_t bytes_ = 0;
  int64_t charged_ = 0;  // quota bytes held; >= bytes_ while open
  Hooks hooks_;
  std::string buffer_;  // per-Append scratch, reused across calls
};

}  // namespace ssql

#endif  // SSQL_UTIL_SPILL_FILE_H_
