#include "util/event_journal.h"

#include <algorithm>
#include <chrono>

namespace ssql {

namespace {

int64_t JournalNowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* EngineEventKindName(EngineEventKind kind) {
  switch (kind) {
    case EngineEventKind::kQueryBegin:
      return "query.begin";
    case EngineEventKind::kQueryFinish:
      return "query.finish";
    case EngineEventKind::kAdmissionEnqueue:
      return "admission.enqueue";
    case EngineEventKind::kAdmissionShed:
      return "admission.shed";
    case EngineEventKind::kAdmissionTimeout:
      return "admission.timeout";
    case EngineEventKind::kTaskStart:
      return "task.start";
    case EngineEventKind::kTaskFinish:
      return "task.finish";
    case EngineEventKind::kTaskRetry:
      return "task.retry";
    case EngineEventKind::kTaskSpeculate:
      return "task.speculate";
    case EngineEventKind::kTaskSpeculationWin:
      return "task.speculation_win";
    case EngineEventKind::kTaskCommit:
      return "task.commit";
    case EngineEventKind::kTaskTimeout:
      return "task.timeout";
    case EngineEventKind::kSpillOpen:
      return "spill.open";
    case EngineEventKind::kSpillWrite:
      return "spill.write";
    case EngineEventKind::kSpillChecksumFail:
      return "spill.checksum_fail";
    case EngineEventKind::kIoRetry:
      return "io.retry";
    case EngineEventKind::kMemoryGrant:
      return "memory.grant";
    case EngineEventKind::kMemoryDeny:
      return "memory.deny";
    case EngineEventKind::kWatchdogStall:
      return "watchdog.stall";
    case EngineEventKind::kWatchdogKill:
      return "watchdog.kill";
    case EngineEventKind::kNumKinds:
      break;
  }
  return "unknown";
}

const char* EventSeverityName(EventSeverity severity) {
  switch (severity) {
    case EventSeverity::kDebug:
      return "DEBUG";
    case EventSeverity::kInfo:
      return "INFO";
    case EventSeverity::kWarn:
      return "WARN";
    case EventSeverity::kError:
      return "ERROR";
  }
  return "UNKNOWN";
}

void EventJournal::Configure(size_t capacity) {
  // Disable emission first so writers racing the reset see either the old
  // ring or the new one, never a half-cleared one.
  capacity_.store(0, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.assign(capacity, EngineEvent{});
    head_ = 0;
    appended_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }
  capacity_.store(capacity, std::memory_order_seq_cst);
}

void EventJournal::Emit(EngineEventKind kind, EventSeverity severity,
                        uint64_t query_id, int64_t value,
                        std::string_view detail) {
  if (capacity_.load(std::memory_order_relaxed) == 0) return;  // disabled

  EngineEvent event;
  event.unix_ms = JournalNowUnixMs();
  event.query_id = query_id;
  event.kind = kind;
  event.severity = severity;
  event.value = value;
  const size_t n = std::min(detail.size(), sizeof(event.detail) - 1);
  if (n > 0) std::memcpy(event.detail, detail.data(), n);
  event.detail[n] = '\0';

  std::lock_guard<std::mutex> lock(mu_);
  // Configure may have swapped the ring under us; honour whatever it
  // holds right now.
  const size_t slots = slots_.size();
  if (slots == 0) return;
  if (head_ >= slots) dropped_.fetch_add(1, std::memory_order_relaxed);
  event.seq = head_;
  slots_[head_ % slots] = event;
  ++head_;
  appended_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<EngineEvent> EventJournal::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t slots = slots_.size();
  const size_t valid = std::min<uint64_t>(head_, slots);
  std::vector<EngineEvent> out;
  out.reserve(valid);
  for (uint64_t seq = head_ - valid; seq < head_; ++seq) {
    out.push_back(slots_[seq % slots]);
  }
  return out;
}

}  // namespace ssql
