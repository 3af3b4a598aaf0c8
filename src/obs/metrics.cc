#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace telekit {
namespace obs {

namespace {

void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>& target, double v) {
  double current = target.load(std::memory_order_relaxed);
  while (v < current && !target.compare_exchange_weak(
                            current, v, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>& target, double v) {
  double current = target.load(std::memory_order_relaxed);
  while (v > current && !target.compare_exchange_weak(
                            current, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram() : buckets_(kNumBuckets) {
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

size_t Histogram::BucketIndex(double ms) {
  if (!(ms > kMinMs)) return 0;  // also catches NaN and negatives
  const double position = std::log2(ms / kMinMs) * kSubBuckets;
  const size_t index = static_cast<size_t>(position);
  return index < kNumBuckets ? index : kNumBuckets - 1;
}

double Histogram::BucketLowerMs(size_t i) {
  return kMinMs * std::exp2(static_cast<double>(i) / kSubBuckets);
}

double Histogram::BucketUpperMs(size_t i) {
  return kMinMs * std::exp2(static_cast<double>(i + 1) / kSubBuckets);
}

void Histogram::Observe(double ms) {
  if (std::isnan(ms)) return;
  if (ms < 0.0) ms = 0.0;
  buckets_[BucketIndex(ms)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(sum_, ms);
  AtomicMinDouble(min_, ms);
  AtomicMaxDouble(max_, ms);
}

uint64_t Histogram::CountAtOrBelow(double ms) const {
  const size_t last = BucketIndex(ms);
  uint64_t cumulative = 0;
  for (size_t i = 0; i <= last; ++i) cumulative += bucket_count(i);
  return cumulative;
}

double Histogram::Quantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: report the k-th smallest observation, k in [1, n]. The
  // previous fractional-rank walk (`cumulative + in_bucket >= q*n`) went
  // wrong at exact boundaries: q*n == 0 selected the first bucket's lower
  // edge (a value below every sample), and q*n landing exactly on a
  // cumulative count pinned the estimate to that bucket's upper edge — a
  // full bucket width of bias for the sample that owns the rank.
  const uint64_t k = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))));
  uint64_t cumulative = 0;
  double value = max();
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = bucket_count(i);
    if (c == 0) continue;
    if (k <= cumulative + c) {
      // Rank k is the (k - cumulative)-th of the c samples here; estimate
      // it at that sample's midpoint share of the bucket width, so a
      // boundary rank stays strictly inside its owning bucket.
      const double fraction = (static_cast<double>(k - cumulative) - 0.5) /
                              static_cast<double>(c);
      value = BucketLowerMs(i) +
              fraction * (BucketUpperMs(i) - BucketLowerMs(i));
      break;
    }
    cumulative += c;
  }
  // The covering bucket may be wider than the observed extremes (e.g. a
  // single sample): the true quantile can never leave [min, max].
  return std::clamp(value, min(), max());
}

JsonValue Histogram::ToJson() const {
  JsonValue out = JsonValue::Object();
  const uint64_t n = count();
  out.Set("count", JsonValue(n));
  out.Set("sum", JsonValue(sum()));
  out.Set("mean", JsonValue(mean()));
  out.Set("min", n > 0 ? JsonValue(min()) : JsonValue());
  out.Set("max", n > 0 ? JsonValue(max()) : JsonValue());
  out.Set("p50", JsonValue(Quantile(0.50)));
  out.Set("p95", JsonValue(Quantile(0.95)));
  out.Set("p99", JsonValue(Quantile(0.99)));
  JsonValue buckets = JsonValue::Array();
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = bucket_count(i);
    if (c == 0) continue;  // sparse export keeps artifacts small
    JsonValue bucket = JsonValue::Object();
    bucket.Set("le", JsonValue(BucketUpperMs(i)));
    bucket.Set("count", JsonValue(c));
    buckets.Append(std::move(bucket));
  }
  out.Set("buckets", std::move(buckets));
  return out;
}

JsonValue LatencySummaryJson(const Histogram& histogram) {
  JsonValue out = JsonValue::Object();
  out.Set("count", JsonValue(histogram.count()));
  out.Set("p50_ms", JsonValue(histogram.Quantile(0.50)));
  out.Set("p95_ms", JsonValue(histogram.Quantile(0.95)));
  out.Set("p99_ms", JsonValue(histogram.Quantile(0.99)));
  return out;
}

void Histogram::Zero() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : nullptr;
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second.get() : nullptr;
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

std::vector<std::pair<std::string, const Counter*>> MetricsRegistry::Counters()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter.get());
  }
  return out;
}

std::vector<std::pair<std::string, const Gauge*>> MetricsRegistry::Gauges()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Gauge*>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge.get());
  }
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::Histograms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name, histogram.get());
  }
  return out;
}

JsonValue MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonValue out = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, counter] : counters_) {
    counters.Set(name, JsonValue(counter->value()));
  }
  out.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, gauge] : gauges_) {
    gauges.Set(name, JsonValue(gauge->value()));
  }
  out.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, histogram] : histograms_) {
    histograms.Set(name, histogram->ToJson());
  }
  out.Set("histograms", std::move(histograms));
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : counters_) entry.second->Zero();
  for (auto& entry : gauges_) entry.second->Zero();
  for (auto& entry : histograms_) entry.second->Zero();
}

size_t MetricsRegistry::NumMetrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

ScopedTimer::ScopedTimer(Histogram& histogram)
    : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}

double ScopedTimer::ElapsedMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

ScopedTimer::~ScopedTimer() { histogram_.Observe(ElapsedMs()); }

}  // namespace obs
}  // namespace telekit
