#include "util/fault_points.h"

#include <chrono>
#include <mutex>
#include <thread>

#include "util/metrics_registry.h"
#include "util/string_util.h"

namespace ssql {

namespace {

/// splitmix64 — the decision function of the seeded probability mode and of
/// retry jitter. A pure function of its input, so decisions replay.
uint64_t Mix(uint64_t h) {
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

bool SiteMatches(const std::string& pattern, const std::string& site) {
  if (pattern == "*") return true;
  if (pattern.size() >= 2 && pattern.back() == '*' &&
      pattern[pattern.size() - 2] == '.') {
    return site.compare(0, pattern.size() - 1, pattern, 0,
                        pattern.size() - 1) == 0;
  }
  return pattern == site;
}

[[noreturn]] void BadEntry(std::string_view entry, const std::string& why) {
  throw ExecutionError("bad fault_injection_spec entry '" +
                       std::string(entry) + "': " + why);
}

/// Parses "<first>[-<last>]" into an inclusive window; false when malformed.
bool ParseWindow(std::string_view window, int64_t* first, int64_t* last) {
  size_t dash = window.find('-');
  if (dash == std::string_view::npos) {
    if (!ParseInt64(window, first)) return false;
    *last = *first;
    return true;
  }
  return ParseInt64(window.substr(0, dash), first) &&
         ParseInt64(window.substr(dash + 1), last);
}

}  // namespace

FaultPointSet FaultPointSet::Parse(const std::string& spec) {
  FaultPointSet set;
  if (spec.empty()) return set;
  for (const std::string& raw : Split(spec, ',')) {
    std::string_view entry = Trim(raw);
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      std::vector<std::string> parts = Split(std::string(entry), ':');
      int64_t partition = -1, first = -1, last = -1;
      if (parts.size() != 3 || parts[0].empty() ||
          !ParseInt64(parts[1], &partition) || partition < 0 ||
          !ParseWindow(parts[2], &first, &last) || first < 0 ||
          last < first) {
        BadEntry(entry,
                 "expected <stage>:<partition>:<attempt>[-<last_attempt>]");
      }
      set.task_rules_.push_back({parts[0], static_cast<size_t>(partition),
                                 static_cast<int>(first),
                                 static_cast<int>(last)});
      continue;
    }
    std::string key(Trim(entry.substr(0, eq)));
    std::string value(Trim(entry.substr(eq + 1)));
    if (key.empty() || value.empty()) {
      BadEntry(entry, "expected <site>=<trigger>[:<kind>] or seed=<N>");
    }
    if (key == "seed") {
      int64_t seed = 0;
      if (!ParseInt64(value, &seed) || seed < 0) {
        BadEntry(entry, "seed must be a non-negative integer");
      }
      set.seed_ = static_cast<uint64_t>(seed);
      continue;
    }

    Rule rule;
    rule.site = key;
    std::vector<std::string> parts = Split(value, ':');
    if (parts.size() > 2) {
      BadEntry(entry, "expected <trigger>[:<kind>], got extra ':'");
    }
    if (parts.size() == 2) {
      const std::string& kind = parts[1];
      if (kind == "retryable") {
        rule.kind = FaultKind::kRetryable;
      } else if (kind == "io") {
        rule.kind = FaultKind::kIo;
      } else if (kind == "enospc") {
        rule.kind = FaultKind::kEnospc;
      } else if (kind == "corrupt") {
        rule.kind = FaultKind::kCorrupt;
      } else {
        BadEntry(entry, "unknown error kind '" + kind +
                            "' (retryable|io|enospc|corrupt)");
      }
    }
    const std::string& trigger = parts[0];
    if (trigger == "*") {
      rule.always = true;
    } else if (trigger.size() > 1 && trigger[0] == 'n') {
      int64_t first = 0, last = 0;
      if (!ParseWindow(std::string_view(trigger).substr(1), &first, &last) ||
          first < 1 || last < first) {
        BadEntry(entry, "bad hit window '" + trigger +
                            "' (want n<first>[-<last>], 1-based)");
      }
      rule.first_hit = static_cast<uint64_t>(first);
      rule.last_hit = static_cast<uint64_t>(last);
    } else if (trigger.size() > 1 && trigger[0] == 'p') {
      double p = -1.0;
      if (!ParseDouble(trigger.substr(1), &p) || p < 0.0 || p > 1.0) {
        BadEntry(entry, "bad probability '" + trigger +
                            "' (want p<value> with value in [0,1])");
      }
      rule.probability = p;
    } else {
      BadEntry(entry, "unknown trigger '" + trigger + "' (*, n<N>, or p<P>)");
    }
    set.rules_.push_back(std::move(rule));
  }
  return set;
}

bool FaultPointSet::ConsumeHitAndDecide(const Rule& rule, size_t rule_index,
                                        uint64_t* hit_out) const {
  uint64_t hit = rule.hits->fetch_add(1, std::memory_order_relaxed) + 1;
  if (hit_out != nullptr) *hit_out = hit;
  if (rule.always) return true;
  if (rule.first_hit > 0) {
    return hit >= rule.first_hit && hit <= rule.last_hit;
  }
  if (rule.probability >= 0.0) {
    // Pure hash of (rule, hit, seed): the same seed replays the same
    // decisions regardless of thread interleaving of *other* sites.
    uint64_t r = Mix(Mix(seed_ ^ (rule_index * 0x51ed2701u)) ^ hit);
    return static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0) <
           rule.probability;
  }
  return false;
}

void FaultPointSet::MaybeFail(const std::string& site,
                              const std::string& detail) const {
  if (rules_.empty()) return;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    // Corrupt rules are MaybeCorrupt's alone; consuming their hits here
    // would shift a corrupt rule's n<F>-<L> window by every co-located
    // MaybeFail probe.
    if (rule.kind == FaultKind::kCorrupt) continue;
    if (!SiteMatches(rule.site, site)) continue;
    if (ConsumeHitAndDecide(rule, i)) Throw(rule, site, detail);
  }
}

bool FaultPointSet::MaybeCorrupt(const std::string& site,
                                 std::string* buffer) const {
  if (rules_.empty()) return false;
  bool corrupted = false;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    if (rule.kind != FaultKind::kCorrupt) continue;
    if (!SiteMatches(rule.site, site)) continue;
    uint64_t hit = 0;
    if (!ConsumeHitAndDecide(rule, i, &hit)) continue;
    if (buffer->empty()) continue;  // nothing to rot
    // Deterministic bit choice: a pure hash of (rule, hit, seed) again, so
    // seeded chaos rounds flip the same bit of the same frame every run.
    const uint64_t r = Mix(Mix(seed_ ^ (i * 0x2545f491u)) ^ hit);
    const uint64_t bit = r % (static_cast<uint64_t>(buffer->size()) * 8);
    (*buffer)[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    CountFired();
    corrupted = true;
  }
  return corrupted;
}

void FaultPointSet::MaybeFailTask(const std::string& stage, size_t partition,
                                  int attempt) const {
  for (const TaskRule& rule : task_rules_) {
    if (rule.partition != partition) continue;
    if (rule.stage != "*" && rule.stage != stage) continue;
    if (attempt < rule.first_attempt || attempt > rule.last_attempt) continue;
    CountFired();
    throw RetryableError("injected fault: stage '" + stage + "' partition " +
                         std::to_string(partition) + " attempt " +
                         std::to_string(attempt));
  }
}

void FaultPointSet::CountFired() const {
  fired_->fetch_add(1, std::memory_order_relaxed);
  CounterMetric* counter = fired_counter_->load(std::memory_order_acquire);
  if (counter != nullptr) counter->Increment();
}

void FaultPointSet::Throw(const Rule& rule, const std::string& site,
                          const std::string& detail) const {
  CountFired();
  const std::string where =
      site + (detail.empty() ? "" : " (" + detail + ")");
  switch (rule.kind) {
    case FaultKind::kRetryable:
      throw RetryableError("injected transient fault at " + where);
    case FaultKind::kIo:
      throw IoError("injected I/O error at " + where);
    case FaultKind::kEnospc:
      throw ResourceExhausted("injected ENOSPC at " + where);
    case FaultKind::kCorrupt:
      break;  // corrupt rules never reach Throw (MaybeFail skips them)
  }
  throw IoError("injected I/O error at " + where);  // unreachable
}

uint64_t FaultPointSet::fired() const {
  return fired_->load(std::memory_order_relaxed);
}

void RunWithIoRetry(const IoRetryPolicy& policy, const std::string& what,
                    const std::function<void()>& body) {
  const int max_retries = policy.max_retries < 0 ? 0 : policy.max_retries;
  for (int attempt = 0;; ++attempt) {
    try {
      body();
      return;
    } catch (const RetryableError& e) {
      if (attempt >= max_retries) throw;
      if (policy.on_retry) policy.on_retry(attempt + 1, e.what());
    } catch (const IoError& e) {
      if (attempt >= max_retries) throw;
      if (policy.on_retry) policy.on_retry(attempt + 1, e.what());
    }
    if (policy.backoff_ms > 0) {
      int shift = attempt < 6 ? attempt : 6;  // cap exponential growth
      int64_t base = static_cast<int64_t>(policy.backoff_ms) << shift;
      // Deterministic jitter in [0, backoff_ms]: a pure hash, so the retry
      // schedule of a seeded test replays exactly.
      uint64_t h = Mix(policy.jitter_seed ^ HashBytes(what.data(), what.size()) ^
                       static_cast<uint64_t>(attempt));
      int64_t jitter =
          static_cast<int64_t>(h % (static_cast<uint64_t>(policy.backoff_ms) + 1));
      std::this_thread::sleep_for(std::chrono::milliseconds(base + jitter));
    }
  }
}

namespace {

std::mutex g_io_hooks_mu;
std::shared_ptr<const FaultPointSet> g_faults;  // null until first install
IoRetryPolicy g_io_policy;

}  // namespace

void SetGlobalIoHooks(std::shared_ptr<const FaultPointSet> faults,
                      IoRetryPolicy policy) {
  std::lock_guard<std::mutex> lock(g_io_hooks_mu);
  g_faults = std::move(faults);
  g_io_policy = std::move(policy);
}

std::shared_ptr<const FaultPointSet> GlobalFaultPoints() {
  std::lock_guard<std::mutex> lock(g_io_hooks_mu);
  if (!g_faults) g_faults = std::make_shared<FaultPointSet>();
  return g_faults;
}

IoRetryPolicy GlobalIoRetryPolicy() {
  std::lock_guard<std::mutex> lock(g_io_hooks_mu);
  return g_io_policy;
}

}  // namespace ssql
