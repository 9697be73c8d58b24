#ifndef SSQL_UTIL_METRICS_REGISTRY_H_
#define SSQL_UTIL_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ssql {

/// Monotonic counter. One relaxed atomic add to record; safe from any
/// thread.
class CounterMetric {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time value (active queries, reserved bytes). Set/Add from any
/// thread.
class GaugeMetric {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed latency/size histogram. Bucket i counts observations with
/// value <= 2^i (bucket 0: <= 1, last bucket: everything else = +Inf), so
/// Record is two relaxed atomic adds plus a bit-scan — cheap enough for
/// per-operator and per-spill hot paths, and the exponential buckets give
/// constant relative error across nine orders of magnitude, which is what
/// latency distributions need (a fixed-width histogram wastes its buckets
/// on one decade).
class HistogramMetric {
 public:
  /// 31 finite power-of-two bounds (1 .. 2^30) + one overflow bucket.
  static constexpr int kNumBuckets = 32;

  /// Upper bound of bucket `i`; INT64_MAX for the overflow bucket.
  static int64_t BucketUpperBound(int i);

  /// Index of the bucket that counts `value` (negatives clamp to 0).
  static int BucketIndex(int64_t value);

  void Record(int64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value > 0 ? value : 0, std::memory_order_relaxed);
  }

  int64_t count() const;
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Upper bound of the bucket containing the p-quantile (p in [0,1]) of
  /// everything recorded so far; 0 when empty. An upper bound, not an
  /// interpolation — good enough for "p99 is about 16ms" dashboards.
  int64_t ApproxQuantile(double p) const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> sum_{0};
};

/// Read-only view of one registered metric, for system.metrics and tests.
struct MetricSnapshot {
  std::string name;
  std::string kind;  // "counter" | "gauge" | "histogram"
  std::string help;
  int64_t value = 0;  // counter/gauge value; histogram observation count
  int64_t sum = 0;    // histogram only
  int64_t p50 = 0;    // histogram only (bucket upper bounds)
  int64_t p95 = 0;
  int64_t p99 = 0;
};

/// Engine-wide registry of typed metrics: counters and gauges for totals,
/// histograms for distributions (query latency, operator wall time, spill
/// write size, admission wait). Registration/lookup takes one mutex;
/// recording through a held pointer is lock-free, so hot paths resolve
/// their instrument once and keep the handle. Instruments live as long as
/// the registry (node pointers are stable).
class MetricsRegistry {
 public:
  /// Find-or-create. The returned reference stays valid for the registry's
  /// lifetime. Re-registering an existing name with a different kind
  /// throws ExecutionError.
  CounterMetric& Counter(const std::string& name, const std::string& help = "");
  GaugeMetric& Gauge(const std::string& name, const std::string& help = "");
  HistogramMetric& Histogram(const std::string& name,
                             const std::string& help = "");

  /// All registered metrics, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Prometheus text exposition format (# HELP / # TYPE + samples;
  /// histograms emit cumulative _bucket{le=...}, _sum and _count series).
  std::string ExportPrometheusText() const;

 private:
  struct Entry {
    std::string kind;
    std::string help;
    std::unique_ptr<CounterMetric> counter;
    std::unique_ptr<GaugeMetric> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  Entry& FindOrCreate(const std::string& name, const std::string& kind,
                      const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Maps an arbitrary metric name to a valid Prometheus metric name
/// ([a-zA-Z_:][a-zA-Z0-9_:]*): every other character becomes '_'.
std::string SanitizeMetricName(const std::string& name);

}  // namespace ssql

#endif  // SSQL_UTIL_METRICS_REGISTRY_H_
