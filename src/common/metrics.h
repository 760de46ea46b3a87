// Copyright (c) 2026 The YASK reproduction authors.
// Fleet-wide metrics: a lock-light registry of counters, gauges and
// log-bucketed latency histograms, rendered in the Prometheus text
// exposition format by GET /metrics on both the coordinator (YaskService)
// and the shard server (ShardService).
//
// Design rules (docs/observability.md):
//   * The HOT PATH is pure relaxed atomics: Counter::Add, Gauge::Set and
//     Histogram::Observe never take a lock. The registry mutex guards only
//     instrument CREATION and rendering — callers resolve an instrument
//     once (construction time, or first use of a label set) and then hammer
//     the returned pointer.
//   * Instrument pointers are STABLE for the registry's lifetime (instances
//     live behind unique_ptr in the maps), so handles can be cached freely.
//   * Histograms use log-spaced (powers-of-two) bucket bounds from 1 µs to
//     ~67 s. Quantile(q) is an exact rank selection over those bounds: it
//     returns the smallest bucket upper bound covering the ⌈q·count⌉-th
//     observation, so p50 ≤ p95 ≤ p99 holds by construction.
//   * Label sets are expected to be BOUNDED (endpoints, shard indexes,
//     replica endpoints) — never derived from request payloads.

#ifndef YASK_COMMON_METRICS_H_
#define YASK_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace yask {

/// Sorted (key, value) label pairs identifying one instrument of a family.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// A monotonically increasing counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A settable instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A log-bucketed latency histogram (milliseconds). Bounds double from
/// 0.001 ms (1 µs); the last bucket is +Inf. 28 buckets cover 1 µs .. 67 s.
class Histogram {
 public:
  static constexpr size_t kBucketCount = 28;  // last one is +Inf

  /// Upper bound (inclusive) of bucket `i`; +Inf for the last bucket.
  static double BucketBound(size_t i);

  void Observe(double millis);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Exact rank selection over the bucket bounds: the smallest finite bound
  /// b with cumulative_count(b) >= ceil(q * count). Monotone in q; returns
  /// 0 when empty. q is clamped to [0, 1].
  double Quantile(double q) const;

 private:
  std::array<std::atomic<uint64_t>, kBucketCount> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// The registry: families of labeled instruments plus gauge callbacks
/// (values computed at scrape time, e.g. "replicas currently cooling").
/// Lookup/creation methods are const — the registry is a measurement sink
/// whose owners (corpus, services) hand it out through const accessors; all
/// internal state is guarded by a mutex (creation/render) or atomic (hot
/// path).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the instrument for (name, labels), creating it on first use.
  /// The pointer stays valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name,
                      const MetricLabels& labels = {}) const;
  Gauge* GetGauge(const std::string& name,
                  const MetricLabels& labels = {}) const;
  Histogram* GetHistogram(const std::string& name,
                          const MetricLabels& labels = {}) const;

  /// Registers a gauge whose value is computed at render time.
  void AddGaugeCallback(const std::string& name, const MetricLabels& labels,
                        std::function<double()> fn) const;
  /// Registers a counter read at render time: a monotonic total kept
  /// elsewhere (e.g. HttpServer::idle_reaped()).
  void AddCounterCallback(const std::string& name, const MetricLabels& labels,
                          std::function<double()> fn) const;

  /// Appends every family in Prometheus text exposition format.
  void RenderPrometheus(std::string* out) const;
  std::string RenderPrometheus() const {
    std::string out;
    RenderPrometheus(&out);
    return out;
  }

 private:
  // One map per instrument type: family name -> label string -> instance.
  template <typename T>
  using FamilyMap =
      std::map<std::string, std::map<std::string, std::unique_ptr<T>>>;

  mutable std::mutex mu_;
  mutable FamilyMap<Counter> counters_;
  mutable FamilyMap<Gauge> gauges_;
  mutable FamilyMap<Histogram> histograms_;
  /// Callback families: name -> (Prometheus type, label string -> value).
  struct CallbackFamily {
    const char* type = "gauge";
    std::map<std::string, std::function<double()>> instances;
  };
  void AddCallback(const std::string& name, const MetricLabels& labels,
                   const char* type, std::function<double()> fn) const;
  mutable std::map<std::string, CallbackFamily> callbacks_;
};

/// Serializes labels as `{k="v",k2="v2"}` (empty string for no labels),
/// escaping backslashes, quotes and newlines per the exposition format.
std::string FormatMetricLabels(const MetricLabels& labels);

}  // namespace yask

#endif  // YASK_COMMON_METRICS_H_
