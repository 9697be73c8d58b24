#include "util/metrics_registry.h"

#include <algorithm>
#include <bit>

#include "util/status.h"

namespace ssql {

int64_t HistogramMetric::BucketUpperBound(int i) {
  if (i >= kNumBuckets - 1) return INT64_MAX;
  return int64_t{1} << i;
}

int HistogramMetric::BucketIndex(int64_t value) {
  if (value <= 1) return 0;
  // Smallest i with value <= 2^i, i.e. bit width of (value - 1).
  int i = std::bit_width(static_cast<uint64_t>(value - 1));
  return std::min(i, kNumBuckets - 1);
}

int64_t HistogramMetric::count() const {
  int64_t total = 0;
  for (const auto& b : buckets_) {
    total += static_cast<int64_t>(b.load(std::memory_order_relaxed));
  }
  return total;
}

int64_t HistogramMetric::ApproxQuantile(double p) const {
  const int64_t total = count();
  if (total == 0) return 0;
  const double clamped = std::min(std::max(p, 0.0), 1.0);
  // Rank of the target observation, 1-based.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(clamped * static_cast<double>(total) + 0.5));
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += static_cast<int64_t>(buckets_[i].load(std::memory_order_relaxed));
    if (seen >= rank) return BucketUpperBound(i);
  }
  return BucketUpperBound(kNumBuckets - 1);
}

MetricsRegistry::Entry& MetricsRegistry::FindOrCreate(const std::string& name,
                                                      const std::string& kind,
                                                      const std::string& help) {
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw ExecutionError("metric '" + name + "' already registered as " +
                           it->second.kind + ", requested as " + kind);
    }
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.help = help;
  if (kind == "counter") {
    entry.counter = std::make_unique<CounterMetric>();
  } else if (kind == "gauge") {
    entry.gauge = std::make_unique<GaugeMetric>();
  } else {
    entry.histogram = std::make_unique<HistogramMetric>();
  }
  return entries_.emplace(name, std::move(entry)).first->second;
}

CounterMetric& MetricsRegistry::Counter(const std::string& name,
                                        const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  return *FindOrCreate(name, "counter", help).counter;
}

GaugeMetric& MetricsRegistry::Gauge(const std::string& name,
                                    const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  return *FindOrCreate(name, "gauge", help).gauge;
}

HistogramMetric& MetricsRegistry::Histogram(const std::string& name,
                                            const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  return *FindOrCreate(name, "histogram", help).histogram;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.kind = entry.kind;
    snap.help = entry.help;
    if (entry.counter) {
      snap.value = entry.counter->value();
    } else if (entry.gauge) {
      snap.value = entry.gauge->value();
    } else {
      snap.value = entry.histogram->count();
      snap.sum = entry.histogram->sum();
      snap.p50 = entry.histogram->ApproxQuantile(0.50);
      snap.p95 = entry.histogram->ApproxQuantile(0.95);
      snap.p99 = entry.histogram->ApproxQuantile(0.99);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              c == ':' || (i > 0 && c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  if (out.empty()) out = "_";
  return out;
}

std::string MetricsRegistry::ExportPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, entry] : entries_) {
    const std::string metric = SanitizeMetricName(name);
    if (!entry.help.empty()) {
      out += "# HELP " + metric + " " + entry.help + "\n";
    }
    out += "# TYPE " + metric + " " + entry.kind + "\n";
    if (entry.counter) {
      out += metric + " " + std::to_string(entry.counter->value()) + "\n";
    } else if (entry.gauge) {
      out += metric + " " + std::to_string(entry.gauge->value()) + "\n";
    } else {
      const HistogramMetric& h = *entry.histogram;
      // Highest non-empty bucket bounds the emitted series; every bucket
      // after it would repeat the same cumulative count.
      int top = 0;
      for (int i = 0; i < HistogramMetric::kNumBuckets - 1; ++i) {
        if (h.bucket(i) > 0) top = i;
      }
      uint64_t cumulative = 0;
      for (int i = 0; i <= top; ++i) {
        cumulative += h.bucket(i);
        out += metric + "_bucket{le=\"" +
               std::to_string(HistogramMetric::BucketUpperBound(i)) + "\"} " +
               std::to_string(cumulative) + "\n";
      }
      out += metric + "_bucket{le=\"+Inf\"} " + std::to_string(h.count()) + "\n";
      out += metric + "_sum " + std::to_string(h.sum()) + "\n";
      out += metric + "_count " + std::to_string(h.count()) + "\n";
    }
  }
  return out;
}

}  // namespace ssql
