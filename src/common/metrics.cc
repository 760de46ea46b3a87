#include "src/common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace yask {

namespace {

/// Renders a double the way Prometheus expects: integral values without a
/// fractional part, everything else with enough digits to round-trip.
std::string FormatValue(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void AppendEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      *out += "\\n";
    } else {
      out->push_back(c);
    }
  }
}

/// Re-opens a rendered label string (possibly empty) to splice in one more
/// label, used for the histogram `le` bound.
std::string WithExtraLabel(const std::string& labels, const std::string& key,
                           const std::string& value) {
  std::string out;
  if (labels.empty()) {
    out = "{" + key + "=\"" + value + "\"}";
  } else {
    out = labels.substr(0, labels.size() - 1) + "," + key + "=\"" + value +
          "\"}";
  }
  return out;
}

}  // namespace

std::string FormatMetricLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : sorted) {
    if (!first) out.push_back(',');
    first = false;
    out += key;
    out += "=\"";
    AppendEscaped(value, &out);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

double Histogram::BucketBound(size_t i) {
  if (i + 1 >= kBucketCount) return std::numeric_limits<double>::infinity();
  return 0.001 * static_cast<double>(1ull << i);  // 1 µs, 2 µs, ... ~67 s
}

void Histogram::Observe(double millis) {
  if (millis < 0.0 || std::isnan(millis)) millis = 0.0;
  size_t i = 0;
  while (i + 1 < kBucketCount && millis > BucketBound(i)) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + millis,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t total = count();
  if (total == 0) return 0.0;
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * total)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    cumulative += bucket(i);
    if (cumulative >= rank) {
      // The +Inf bucket reports the largest finite bound: the histogram
      // cannot localize beyond its range, and a finite number keeps the
      // extraction monotone and plottable.
      return i + 1 >= kBucketCount ? BucketBound(kBucketCount - 2)
                                   : BucketBound(i);
    }
  }
  return BucketBound(kBucketCount - 2);
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels) const {
  const std::string key = FormatMetricLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name][key];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels) const {
  const std::string key = FormatMetricLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name][key];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const MetricLabels& labels) const {
  const std::string key = FormatMetricLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name][key];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::AddGaugeCallback(const std::string& name,
                                       const MetricLabels& labels,
                                       std::function<double()> fn) const {
  AddCallback(name, labels, "gauge", std::move(fn));
}

void MetricsRegistry::AddCounterCallback(const std::string& name,
                                         const MetricLabels& labels,
                                         std::function<double()> fn) const {
  AddCallback(name, labels, "counter", std::move(fn));
}

void MetricsRegistry::AddCallback(const std::string& name,
                                  const MetricLabels& labels,
                                  const char* type,
                                  std::function<double()> fn) const {
  const std::string key = FormatMetricLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  CallbackFamily& family = callbacks_[name];
  family.type = type;
  family.instances[key] = std::move(fn);
}

void MetricsRegistry::RenderPrometheus(std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, instances] : counters_) {
    *out += "# TYPE " + name + " counter\n";
    for (const auto& [labels, counter] : instances) {
      *out += name + labels + " " +
              std::to_string(counter->value()) + "\n";
    }
  }
  for (const auto& [name, instances] : gauges_) {
    *out += "# TYPE " + name + " gauge\n";
    for (const auto& [labels, gauge] : instances) {
      *out += name + labels + " " + FormatValue(gauge->value()) + "\n";
    }
  }
  for (const auto& [name, family] : callbacks_) {
    *out += "# TYPE " + name + " " + family.type + "\n";
    for (const auto& [labels, fn] : family.instances) {
      *out += name + labels + " " + FormatValue(fn()) + "\n";
    }
  }
  for (const auto& [name, instances] : histograms_) {
    *out += "# TYPE " + name + " histogram\n";
    for (const auto& [labels, histogram] : instances) {
      uint64_t cumulative = 0;
      for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
        cumulative += histogram->bucket(i);
        *out += name + "_bucket" +
                WithExtraLabel(labels, "le",
                               FormatValue(Histogram::BucketBound(i))) +
                " " + std::to_string(cumulative) + "\n";
      }
      *out += name + "_sum" + labels + " " + FormatValue(histogram->sum()) +
              "\n";
      *out += name + "_count" + labels + " " +
              std::to_string(histogram->count()) + "\n";
    }
  }
}

}  // namespace yask
