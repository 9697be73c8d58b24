#include "engine/query_profile.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>

namespace ssql {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery: return "query";
    case SpanKind::kPhase: return "phase";
    case SpanKind::kOperator: return "operator";
    case SpanKind::kStage: return "stage";
    case SpanKind::kTask: return "task";
  }
  return "unknown";
}

const char* ProfileCounterName(ProfileCounter c) {
  switch (c) {
    case ProfileCounter::kRowsIn: return "rows_in";
    case ProfileCounter::kRowsOut: return "rows_out";
    case ProfileCounter::kBatches: return "batches";
    case ProfileCounter::kBuildRows: return "build_rows";
    case ProfileCounter::kProbeRows: return "probe_rows";
    case ProfileCounter::kSpillBytes: return "spill_bytes";
    case ProfileCounter::kSpillFiles: return "spill_files";
    case ProfileCounter::kPeakReservedBytes: return "peak_reserved_bytes";
    case ProfileCounter::kAttempts: return "attempts";
    case ProfileCounter::kRetries: return "retries";
    case ProfileCounter::kFailures: return "failures";
    case ProfileCounter::kSpeculated: return "speculated";
    case ProfileCounter::kSpeculationWins: return "speculation_wins";
    case ProfileCounter::kTaskTimeouts: return "task_timeouts";
    case ProfileCounter::kRowsScanned: return "rows_scanned";
    case ProfileCounter::kRowsReturned: return "rows_returned";
    case ProfileCounter::kRowsDropped: return "rows_dropped";
    case ProfileCounter::kMalformedRecords: return "malformed_records";
    case ProfileCounter::kShuffleRows: return "shuffle_rows";
    case ProfileCounter::kBroadcastRows: return "broadcast_rows";
    case ProfileCounter::kCpuNs: return "cpu_ns";
    case ProfileCounter::kNumCounters: break;
  }
  return "unknown";
}

namespace {

std::string FormatMs(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FormatBytes(int64_t bytes) {
  char buf[32];
  if (bytes >= (int64_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (int64_t{1} << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldB", static_cast<long long>(bytes));
  }
  return buf;
}

}  // namespace

int64_t ProfileSpan::WallNs() const {
  int64_t end = end_ns.load(std::memory_order_acquire);
  if (end == 0) end = TraceNowNs();
  return end - start_ns;
}

QueryProfile::QueryProfile(bool detailed) : detailed_(detailed) {
  std::lock_guard<std::mutex> lock(mu_);
  root_ = AllocateSpanLocked(SpanKind::kQuery, "query", nullptr, "");
}

ProfileSpan* QueryProfile::AllocateSpanLocked(SpanKind kind,
                                              const std::string& name,
                                              ProfileSpan* parent,
                                              const std::string& detail) {
  spans_.emplace_back();
  ProfileSpan* span = &spans_.back();
  span->id = static_cast<uint32_t>(spans_.size());
  span->kind = kind;
  span->name = name;
  span->detail = detail;
  span->start_ns = TraceNowNs();
  span->start_cpu_ns = TraceThreadCpuNs();
  span->tid = TidForThisThreadLocked();
  span->parent = parent;
  if (parent != nullptr) parent->children.push_back(span);
  return span;
}

int QueryProfile::TidForThisThreadLocked() {
  auto [it, inserted] =
      tids_.emplace(std::this_thread::get_id(), static_cast<int>(tids_.size()));
  (void)inserted;
  return it->second;
}

ProfileSpan* QueryProfile::BeginSpan(SpanKind kind, const std::string& name,
                                     ProfileSpan* parent,
                                     const std::string& detail) {
  if (!detailed_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (parent == nullptr) {
    parent = current_operator_.load(std::memory_order_acquire);
    if (parent == nullptr) {
      parent = current_phase_.load(std::memory_order_acquire);
    }
    if (parent == nullptr) parent = root_;
  }
  ProfileSpan* span = AllocateSpanLocked(kind, name, parent, detail);
  if (kind == SpanKind::kPhase) {
    current_phase_.store(span, std::memory_order_release);
  }
  return span;
}

void QueryProfile::EndSpan(ProfileSpan* span, const std::string& status) {
  if (span == nullptr || span->closed()) return;
  int64_t cpu = TraceThreadCpuNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (span->closed()) return;
    span->status = status;
    if (cpu > 0 && span->start_cpu_ns > 0 &&
        span->tid == TidForThisThreadLocked()) {
      // Only meaningful when begin and end ran on the same thread (true for
      // phase, operator, and task spans; stage spans span worker threads).
      span->counters[static_cast<int>(ProfileCounter::kCpuNs)].fetch_add(
          cpu - span->start_cpu_ns, std::memory_order_relaxed);
    }
    if (span->kind == SpanKind::kPhase &&
        current_phase_.load(std::memory_order_acquire) == span) {
      current_phase_.store(nullptr, std::memory_order_release);
    }
    span->end_ns.store(TraceNowNs(), std::memory_order_release);
  }
}

ProfileSpan* QueryProfile::BeginOperator(const std::string& name,
                                         const std::string& detail,
                                         int64_t est_rows,
                                         const std::string& est_source) {
  if (!detailed_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  ProfileSpan* parent = operator_stack_.empty()
                            ? current_phase_.load(std::memory_order_acquire)
                            : operator_stack_.back();
  if (parent == nullptr) parent = root_;
  ProfileSpan* span =
      AllocateSpanLocked(SpanKind::kOperator, name, parent, detail);
  span->est_rows = est_rows;
  span->est_source = est_source;
  operator_stack_.push_back(span);
  current_operator_.store(span, std::memory_order_release);
  return span;
}

void QueryProfile::EndOperator(ProfileSpan* span, const std::string& status) {
  if (span == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // rows_in is derived: what the children produced is what this operator
    // consumed (leaf operators keep rows_in = 0 and report rows_scanned).
    int64_t rows_in = 0;
    bool has_child_op = false;
    for (ProfileSpan* child : span->children) {
      if (child->kind == SpanKind::kOperator) {
        has_child_op = true;
        rows_in += child->Counter(ProfileCounter::kRowsOut);
      }
    }
    if (has_child_op) {
      span->counters[static_cast<int>(ProfileCounter::kRowsIn)].store(
          rows_in, std::memory_order_relaxed);
    }
    // Unwind the stack through `span` (tolerates missed pops on error paths).
    while (!operator_stack_.empty()) {
      ProfileSpan* top = operator_stack_.back();
      operator_stack_.pop_back();
      if (top == span) break;
    }
    current_operator_.store(
        operator_stack_.empty() ? nullptr : operator_stack_.back(),
        std::memory_order_release);
  }
  EndSpan(span, status);
}

void QueryProfile::Add(ProfileSpan* span, ProfileCounter c, int64_t delta) {
  if (span == nullptr) {
    span = current_operator_.load(std::memory_order_acquire);
    if (span == nullptr) span = root_;
  }
  span->counters[static_cast<int>(c)].fetch_add(delta,
                                                std::memory_order_relaxed);
}

int64_t QueryProfile::Total(ProfileCounter c) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const ProfileSpan& span : spans_) total += span.Counter(c);
  return total;
}

void QueryProfile::AddInstant(
    const std::string& name, const std::string& category,
    std::vector<std::pair<std::string, std::string>> args) {
  if (!detailed_) return;
  std::lock_guard<std::mutex> lock(mu_);
  InstantEvent event;
  event.ts_ns = TraceNowNs();
  event.tid = TidForThisThreadLocked();
  event.name = name;
  event.category = category;
  event.args = std::move(args);
  instants_.push_back(std::move(event));
}

void QueryProfile::AddRuleStat(const std::string& batch,
                               const std::string& rule, bool effective,
                               int64_t wall_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  RuleStat& stat = rule_stats_[batch + "/" + rule];
  stat.invocations += 1;
  if (effective) stat.effective += 1;
  stat.wall_ns += wall_ns;
}

std::map<std::string, QueryProfile::RuleStat> QueryProfile::rule_stats()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return rule_stats_;
}

QueryProfile::Stats QueryProfile::AggregateStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.wall_ns = root_->WallNs();
  // Without operator spans the root holds every operator's rows (see
  // RunProfiled); those that fed another operator are its rows_in.
  if (!detailed_) {
    stats.rows_out = root_->Counter(ProfileCounter::kRowsOut) -
                     root_->Counter(ProfileCounter::kRowsIn);
  }
  for (const ProfileSpan& span : spans_) {
    stats.spill_bytes += span.Counter(ProfileCounter::kSpillBytes);
    // The peak is published as deltas on whichever operator raised it, so
    // the query's high-water mark is their sum.
    stats.peak_reserved_bytes +=
        span.Counter(ProfileCounter::kPeakReservedBytes);
    if (span.kind == SpanKind::kOperator) {
      ++stats.operators;
      if (span.parent == nullptr || span.parent->kind != SpanKind::kOperator) {
        stats.rows_out += span.Counter(ProfileCounter::kRowsOut);
      }
    }
  }
  return stats;
}

namespace {

/// Spill bytes charged to `span`'s non-operator subtree (its stages and
/// tasks), mirroring AppendOperatorExtras' attribution.
int64_t SubtreeSpillBytes(const ProfileSpan* span) {
  int64_t v = span->Counter(ProfileCounter::kSpillBytes);
  for (const ProfileSpan* child : span->children) {
    if (child->kind != SpanKind::kOperator) v += SubtreeSpillBytes(child);
  }
  return v;
}

void FlattenOperators(const ProfileSpan* span, uint32_t parent_id, int depth,
                      std::vector<QueryProfile::OperatorActual>* out) {
  for (const ProfileSpan* child : span->children) {
    if (child->kind != SpanKind::kOperator) {
      FlattenOperators(child, parent_id, depth, out);
      continue;
    }
    QueryProfile::OperatorActual row;
    row.id = child->id;
    row.parent_id = parent_id;
    row.depth = depth;
    row.name = child->name;
    row.detail = child->detail;
    row.status = child->status;
    row.wall_ns = child->WallNs();
    row.rows_in = child->Counter(ProfileCounter::kRowsIn);
    row.rows_out = child->Counter(ProfileCounter::kRowsOut);
    row.batches = child->Counter(ProfileCounter::kBatches);
    row.spill_bytes = SubtreeSpillBytes(child);
    row.est_rows = child->est_rows;
    row.est_source = child->est_source;
    if (child->est_rows >= 0) {
      row.misestimate = MisestimateRatio(child->est_rows, row.rows_out);
    }
    out->push_back(std::move(row));
    FlattenOperators(child, child->id, depth + 1, out);
  }
}

}  // namespace

std::vector<QueryProfile::OperatorActual> QueryProfile::OperatorActuals()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<OperatorActual> out;
  FlattenOperators(root_, 0, 0, &out);
  return out;
}

double QueryProfile::WorstMisestimate() const {
  double worst = 0.0;
  for (const OperatorActual& op : OperatorActuals()) {
    worst = std::max(worst, op.misestimate);
  }
  return worst;
}

void QueryProfile::Finish(const std::string& status) {
  std::vector<ProfileSpan*> open;
  {
    std::lock_guard<std::mutex> lock(mu_);
    operator_stack_.clear();
    current_operator_.store(nullptr, std::memory_order_release);
    current_phase_.store(nullptr, std::memory_order_release);
    // Close deepest-first so children never outlive their parents.
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (!it->closed()) open.push_back(&*it);
    }
  }
  for (ProfileSpan* span : open) EndSpan(span, status);
}

namespace {

void SpanToJson(const ProfileSpan* span, int64_t origin_ns,
                std::string* out) {
  *out += "{\"id\":" + std::to_string(span->id);
  *out += ",\"kind\":\"" + std::string(SpanKindName(span->kind)) + "\"";
  *out += ",\"name\":\"" + JsonEscape(span->name) + "\"";
  if (!span->detail.empty()) {
    *out += ",\"detail\":\"" + JsonEscape(span->detail) + "\"";
  }
  *out += ",\"start_us\":" + std::to_string((span->start_ns - origin_ns) / 1000);
  *out += ",\"wall_us\":" + std::to_string(span->WallNs() / 1000);
  *out += ",\"status\":\"" + JsonEscape(span->status) + "\"";
  bool any_counter = false;
  for (int i = 0; i < kNumProfileCounters; ++i) {
    int64_t v = span->counters[i].load(std::memory_order_relaxed);
    if (v == 0) continue;
    *out += any_counter ? "," : ",\"counters\":{";
    any_counter = true;
    *out += "\"" +
            std::string(ProfileCounterName(static_cast<ProfileCounter>(i))) +
            "\":" + std::to_string(v);
  }
  if (any_counter) *out += "}";
  if (!span->children.empty()) {
    *out += ",\"children\":[";
    for (size_t i = 0; i < span->children.size(); ++i) {
      if (i > 0) *out += ",";
      SpanToJson(span->children[i], origin_ns, out);
    }
    *out += "]";
  }
  *out += "}";
}

}  // namespace

std::string QueryProfile::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  out += "\"wall_us\":" + std::to_string(root_->WallNs() / 1000);
  out += ",\"status\":\"" + JsonEscape(root_->status) + "\"";
  out += ",\"spans\":";
  SpanToJson(root_, root_->start_ns, &out);
  if (!rule_stats_.empty()) {
    out += ",\"rules\":{";
    bool first = true;
    for (const auto& [key, stat] : rule_stats_) {
      if (!first) out += ",";
      first = false;
      out += "\"" + JsonEscape(key) + "\":{\"invocations\":" +
             std::to_string(stat.invocations) +
             ",\"effective\":" + std::to_string(stat.effective) +
             ",\"wall_us\":" + std::to_string(stat.wall_ns / 1000) + "}";
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::string QueryProfile::ToChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> events;
  int64_t origin = root_->start_ns;
  for (const ProfileSpan& span : spans_) {
    TraceEvent e;
    e.name = span.name;
    e.category = SpanKindName(span.kind);
    e.ts_us = (span.start_ns - origin) / 1000;
    // Clamp zero-length spans to 1us so viewers render them.
    e.dur_us = std::max<int64_t>(span.WallNs() / 1000, 1);
    e.tid = span.tid;
    if (!span.detail.empty()) e.args.emplace_back("detail", span.detail);
    if (!span.status.empty()) e.args.emplace_back("status", span.status);
    for (int i = 0; i < kNumProfileCounters; ++i) {
      int64_t v = span.counters[i].load(std::memory_order_relaxed);
      if (v == 0) continue;
      e.args.emplace_back(ProfileCounterName(static_cast<ProfileCounter>(i)),
                          std::to_string(v));
    }
    events.push_back(std::move(e));
  }
  for (const InstantEvent& instant : instants_) {
    TraceEvent e;
    e.name = instant.name;
    e.category = instant.category;
    e.phase = 'i';
    e.ts_us = std::max<int64_t>((instant.ts_ns - origin) / 1000, 0);
    e.tid = instant.tid;
    e.args = instant.args;
    events.push_back(std::move(e));
  }
  return ChromeTraceJson(events);
}

namespace {

/// Counters worth a callout on an operator's EXPLAIN ANALYZE line, beyond
/// the always-shown rows/batches/time.
void AppendOperatorExtras(const ProfileSpan* span, std::string* line) {
  const struct {
    ProfileCounter c;
    const char* label;
    bool bytes;
  } kExtras[] = {
      {ProfileCounter::kBuildRows, "build_rows", false},
      {ProfileCounter::kProbeRows, "probe_rows", false},
      {ProfileCounter::kBroadcastRows, "broadcast_rows", false},
      {ProfileCounter::kShuffleRows, "shuffle_rows", false},
      {ProfileCounter::kRowsScanned, "rows_scanned", false},
      {ProfileCounter::kRowsDropped, "rows_dropped", false},
      {ProfileCounter::kSpillBytes, "spilled", true},
      {ProfileCounter::kSpillFiles, "spill_files", false},
      {ProfileCounter::kRetries, "retries", false},
      {ProfileCounter::kFailures, "failures", false},
  };
  for (const auto& extra : kExtras) {
    // Include counters accumulated by this operator's stage/task subtree.
    std::function<int64_t(const ProfileSpan*)> sum =
        [&](const ProfileSpan* s) -> int64_t {
      int64_t v = s->Counter(extra.c);
      for (const ProfileSpan* child : s->children) {
        if (child->kind != SpanKind::kOperator) v += sum(child);
      }
      return v;
    };
    int64_t v = sum(span);
    if (v == 0) continue;
    *line += ", " + std::string(extra.label) + "=" +
             (extra.bytes ? FormatBytes(v) : std::to_string(v));
  }
}

void RenderOperatorTree(const ProfileSpan* span, const std::string& indent,
                        std::string* out) {
  // Describe() usually repeats the node name ("Limit 5"); avoid "Limit Limit 5".
  std::string line = indent;
  if (span->detail.rfind(span->name, 0) == 0) {
    line += span->detail;
  } else {
    line += span->name;
    if (!span->detail.empty()) line += " " + span->detail;
  }
  line += "  [rows_out=" +
          std::to_string(span->Counter(ProfileCounter::kRowsOut));
  if (span->Counter(ProfileCounter::kRowsIn) > 0) {
    line += ", rows_in=" +
            std::to_string(span->Counter(ProfileCounter::kRowsIn));
  }
  line += ", batches=" + std::to_string(span->Counter(ProfileCounter::kBatches));
  if (span->est_rows >= 0) {
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.1f",
                  MisestimateRatio(span->est_rows,
                                   span->Counter(ProfileCounter::kRowsOut)));
    line += ", est_rows=" + std::to_string(span->est_rows) + " (" +
            (span->est_source.empty() ? "unknown" : span->est_source) +
            ", ratio=" + ratio + ")";
  }
  line += ", time=" + FormatMs(span->WallNs());
  AppendOperatorExtras(span, &line);
  if (!span->status.empty() && span->status != "ok") {
    line += ", status=" + span->status;
  }
  line += "]";
  *out += line + "\n";
  for (const ProfileSpan* child : span->children) {
    if (child->kind == SpanKind::kOperator) {
      RenderOperatorTree(child, indent + "  ", out);
    }
  }
}

}  // namespace

std::string QueryProfile::RenderAnalyzed() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "== Analyzed Execution ==\n";
  out << "Query: " << FormatMs(root_->WallNs())
      << ", status=" << (root_->status.empty() ? "running" : root_->status)
      << "\n";

  // Phase timings (optimize / plan / execute), in start order.
  for (const ProfileSpan* child : root_->children) {
    if (child->kind != SpanKind::kPhase) continue;
    out << "Phase " << child->name << ": " << FormatMs(child->WallNs());
    if (!child->status.empty() && child->status != "ok") {
      out << " (" << child->status << ")";
    }
    out << "\n";
  }

  // Operator tree with actuals. Operators hang off phases (execution) or
  // off other operators; find the top-level ones.
  out << "\n== Physical Plan (actual) ==\n";
  std::string tree;
  std::function<void(const ProfileSpan*)> visit =
      [&](const ProfileSpan* span) {
        for (const ProfileSpan* child : span->children) {
          if (child->kind == SpanKind::kOperator) {
            RenderOperatorTree(child, "", &tree);
          } else {
            visit(child);
          }
        }
      };
  visit(root_);
  if (tree.empty()) tree = "(no operators executed)\n";
  out << tree;

  if (!rule_stats_.empty()) {
    out << "\n== Optimizer Rules ==\n";
    for (const auto& [key, stat] : rule_stats_) {
      out << key << ": invocations=" << stat.invocations
          << ", effective=" << stat.effective
          << ", time=" << FormatMs(stat.wall_ns) << "\n";
    }
  }

  // Query-wide aggregates worth surfacing even when attributed above.
  int64_t spill_bytes = 0, spill_files = 0, retries = 0, peak = 0;
  for (const ProfileSpan& span : spans_) {
    spill_bytes += span.Counter(ProfileCounter::kSpillBytes);
    spill_files += span.Counter(ProfileCounter::kSpillFiles);
    retries += span.Counter(ProfileCounter::kRetries);
    peak += span.Counter(ProfileCounter::kPeakReservedBytes);
  }
  out << "\n== Totals ==\n";
  out << "spill_bytes=" << spill_bytes << ", spill_files=" << spill_files
      << ", retries=" << retries << ", peak_reserved=" << FormatBytes(peak)
      << "\n";
  return out.str();
}

std::string QueryProfile::SummaryLine() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t spill_bytes = 0, retries = 0, rows_out = 0;
  int operators = 0;
  double misest_max = 0.0;
  for (const ProfileSpan& span : spans_) {
    spill_bytes += span.Counter(ProfileCounter::kSpillBytes);
    retries += span.Counter(ProfileCounter::kRetries);
    if (span.kind == SpanKind::kOperator) {
      ++operators;
      if (span.parent == nullptr ||
          span.parent->kind != SpanKind::kOperator) {
        rows_out += span.Counter(ProfileCounter::kRowsOut);
      }
      if (span.est_rows >= 0) {
        misest_max = std::max(
            misest_max, MisestimateRatio(
                            span.est_rows,
                            span.Counter(ProfileCounter::kRowsOut)));
      }
    }
  }
  std::ostringstream out;
  out << "query wall=" << FormatMs(root_->WallNs())
      << " status=" << (root_->status.empty() ? "running" : root_->status)
      << " operators=" << operators << " rows_out=" << rows_out
      << " spill_bytes=" << spill_bytes << " retries=" << retries;
  if (misest_max > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", misest_max);
    out << " misest_max=" << buf;
  }
  return out.str();
}

}  // namespace ssql
