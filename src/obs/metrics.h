#ifndef TELEKIT_OBS_METRICS_H_
#define TELEKIT_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace telekit {
namespace obs {

/// Monotonically increasing counter. Lock-free; safe to cache a reference
/// (the registry never destroys metrics — Reset() only zeroes them).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Zero() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value with an Add() convenience.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Zero() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed (HDR-style) histogram with quantile interpolation — the
/// registry's one histogram kind. Values are usually milliseconds and span
/// [1e-3, 6e4] (1 us to 60 s; a count such as rows per batch fits too);
/// each power of two is split into kSubBuckets geometric sub-buckets, so
/// any quantile estimate carries a bounded relative error of
/// 2^(1/kSubBuckets) - 1 (~4.4%), independent of where the mass sits.
/// Observe() is lock-free; Quantile() reads relaxed snapshots
/// (monotonically consistent, not atomic).
class Histogram {
 public:
  static constexpr double kMinMs = 1e-3;
  static constexpr double kMaxMs = 6e4;
  static constexpr int kSubBuckets = 16;  // per doubling
  /// ceil(log2(kMaxMs / kMinMs)) doublings of kSubBuckets each.
  static constexpr size_t kNumBuckets = 26 * kSubBuckets;

  Histogram();

  void Observe(double ms);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const uint64_t n = count();
    return n > 0 ? sum() / static_cast<double>(n) : 0.0;
  }
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Index of the bucket holding `ms` (clamped to the tracked range).
  static size_t BucketIndex(double ms);
  /// Inclusive upper / exclusive lower bound of bucket i, in ms.
  static double BucketUpperMs(size_t i);
  static double BucketLowerMs(size_t i);

  /// Observations recorded at or below `ms`, computed as the cumulative
  /// count through the bucket containing `ms`. Carries the same bounded
  /// relative error as the buckets themselves (~4.4%): values in the
  /// boundary bucket that exceed `ms` are still counted. Backs the
  /// time-series latency-threshold series the SLO engine burns against.
  uint64_t CountAtOrBelow(double ms) const;

  /// Nearest-rank q-quantile (q in [0,1]) in ms: selects rank
  /// k = max(1, ceil(q * count)), walks the cumulative bucket counts to the
  /// bucket owning rank k, places the estimate at that sample's midpoint
  /// share of the bucket width, and clamps to the observed [min, max].
  /// 0 when empty.
  double Quantile(double q) const;

  /// {count, sum, mean, min, max, p50, p95, p99, buckets: [{le, count}]}
  /// with min/max null when empty and only non-empty buckets exported.
  JsonValue ToJson() const;
  void Zero();

 private:
  std::vector<std::atomic<uint64_t>> buckets_;  // kNumBuckets
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Process-wide metric registry. Metric objects are created on first use
/// and never destroyed, so hot paths can do:
///
///   static obs::Counter& calls =
///       obs::MetricsRegistry::Global().GetCounter("tensor/matmul_calls");
///   calls.Increment();
///
/// Reset() zeroes every metric in place (for tests and per-run baselines)
/// without invalidating cached references.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Lookup without creation; nullptr when absent.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// Enumeration for samplers (the time-series store walks these each
  /// tick). The returned pointers stay valid forever — metrics are never
  /// destroyed — but the name lists are a snapshot: metrics registered
  /// after the call are absent until the next enumeration.
  std::vector<std::pair<std::string, const Counter*>> Counters() const;
  std::vector<std::pair<std::string, const Gauge*>> Gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> Histograms() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with names
  /// sorted (std::map order) for diffable artifacts.
  JsonValue Snapshot() const;

  /// Zeroes all metrics; registrations (and references) stay valid.
  void Reset();

  /// Distinct registered metric names across all three kinds.
  size_t NumMetrics() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Compact {count, p50_ms, p95_ms, p99_ms} summary of a latency
/// histogram — the shape /statusz sections share (telekit_serve request
/// latency, telekit_streamd detection latency).
JsonValue LatencySummaryJson(const Histogram& histogram);

/// Observes the wall-clock lifetime of a scope into a histogram, in
/// milliseconds. Cheaper than a Span: no trace event, no nesting state.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Milliseconds since construction (for callers that also want the
  /// value).
  double ElapsedMs() const;

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace telekit

#endif  // TELEKIT_OBS_METRICS_H_
