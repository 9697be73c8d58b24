#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The arithmetic the benchmark reports with: percentile rank selection with
// its sample-count rule, self time over a nested span tree, and the error
// rate's base. Kept free of engine dependencies so selftest.cc can check it
// on fixed inputs.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the `pct`-th percentile among `n` samples:
/// ceil(pct * n / 100), at least 1. Integer arithmetic, so 90 * 100 / 100
/// is exactly rank 90.
inline size_t NearestRank(size_t n, int pct) {
  if (n == 0 || pct < 1 || pct > 100) {
    throw std::invalid_argument(
        "percentile rank needs samples and pct in [1,100]");
  }
  size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;
  return std::max<size_t>(rank, 1);
}

/// The nearest-rank `pct`-th percentile of `samples` (any order).
inline double Percentile(std::vector<double> samples, int pct) {
  const size_t rank = NearestRank(samples.size(), pct);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

/// The highest percentile at most `wanted` that still leaves `min_tail`
/// samples ranked above it, so a tail figure always rests on at least that
/// many observations. Falls back to the median when no tail percentile
/// does.
inline int SupportedTailPercentile(size_t n, int wanted = 90,
                                   size_t min_tail = 10) {
  for (int pct = wanted; pct > 50; --pct) {
    if (n - NearestRank(n, pct) >= min_tail) return pct;
  }
  return 50;
}

/// Requests that failed or answered wrongly, over requests attempted (the
/// base includes the failures themselves).
inline double ErrorRate(int64_t failed, int64_t attempted) {
  if (attempted < 1 || failed < 0 || failed > attempted) {
    throw std::invalid_argument(
        "error rate needs 0 <= failed <= attempted, attempted >= 1");
  }
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

/// One node of a span tree: an interval and the index of its parent span
/// (-1 for a root). Parents precede their children.
struct Interval {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once, so over a tree whose spans nest
/// the self times add up to the roots' durations.
inline std::vector<int64_t> SelfTimes(const std::vector<Interval>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p < 0) continue;
    if (static_cast<size_t>(p) >= i) {
      throw std::invalid_argument("span parent must precede the span");
    }
    const int64_t lo = std::max(spans[i].start_ns, spans[p].start_ns);
    const int64_t hi = std::min(spans[i].end_ns, spans[p].end_ns);
    if (hi > lo) covered[p].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& parts = covered[i];
    std::sort(parts.begin(), parts.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : parts) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
