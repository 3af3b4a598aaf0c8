#ifndef TELEKIT_OBS_TIMESERIES_H_
#define TELEKIT_OBS_TIMESERIES_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/admin.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace telekit {
namespace obs {

/// What a series measures — determines how /timeseriesz consumers should
/// interpret the values (counters additionally export derived rates).
enum class SeriesKind {
  kCounter,   ///< monotone cumulative count (rates derived from deltas)
  kGauge,     ///< instantaneous value
  kQuantile,  ///< latency quantile estimate in ms
};

const char* SeriesKindName(SeriesKind kind);

/// One sampled point: seconds since the store's construction, value.
struct TimeSeriesSample {
  double t_s = 0.0;
  double value = 0.0;
};

struct TimeSeriesOptions {
  double interval_s = 1.0;  ///< background sampler period
  size_t capacity = 600;    ///< ring slots per series (600 @ 1 Hz = 10 min)
};

/// In-process time-series store: a background sampler thread sweeps the
/// metric registry at a fixed interval and appends every counter, every
/// gauge, and per-Histogram derived series (p50/p95/p99 quantiles,
/// cumulative count, and any tracked latency thresholds) into fixed-
/// capacity ring buffers. History is served as JSON via /timeseriesz and
/// consumed by the SLO engine's burn-rate windows.
///
/// Series values are *cumulative* for counters — rates are derived at read
/// time from adjacent-sample deltas, clamped at zero so a counter reset
/// (registry Reset(), process restart behind the same scrape) never yields
/// a negative rate.
///
/// Thread-safety: all public methods are safe from any thread. The
/// on-sample callback runs on the sampler thread *after* the store's lock
/// is released, so it may freely query the store (the SLO engine does).
class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(
      TimeSeriesOptions options = {},
      MetricsRegistry* registry = &MetricsRegistry::Global());
  ~TimeSeriesStore();

  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  /// Also sample `CountAtOrBelow(threshold_ms)` of the named latency
  /// histogram each sweep, as counter series ThresholdSeriesName(...).
  /// The SLO engine registers its latency objectives through this.
  void TrackLatencyThreshold(const std::string& histogram_name,
                             double threshold_ms);

  /// "serve/request_ms" + 25.0 -> "serve/request_ms/le_25".
  static std::string ThresholdSeriesName(const std::string& histogram_name,
                                         double threshold_ms);

  /// One synchronous sweep stamped at `now_s` (tests drive this directly
  /// with synthetic clocks; the sampler thread calls it each tick).
  void SampleNow(double now_s);

  /// Starts / stops the background sampler. Start is a no-op when already
  /// running; Stop joins the thread and is idempotent (also run by the
  /// destructor). The on-sample callback fires after every sweep.
  void Start();
  void Stop();
  bool running() const;

  /// Callback invoked with the sweep timestamp after each sample (sampler
  /// thread, store lock not held). Replaces any previous callback.
  void SetOnSample(std::function<void(double now_s)> on_sample);

  /// Seconds since construction (steady clock, shared by all series).
  double now_s() const;

  /// Total sweeps performed (SampleNow calls, from any source).
  uint64_t samples_taken() const;

  /// Chronological samples of one series; empty when unknown.
  std::vector<TimeSeriesSample> SeriesSamples(const std::string& name) const;

  /// Sum of adjacent-sample deltas, each clamped at >= 0, over samples in
  /// (now_s - window_s, now_s] plus one baseline sample at or before the
  /// window start. Fewer than two usable samples -> 0 (an empty window
  /// burns nothing).
  double CounterDelta(const std::string& name, double window_s,
                      double now_s) const;

  /// {now_s, interval_s, capacity, samples_taken, series: {name: {kind,
  /// samples: [[t, v], ...], rate_per_s: [[t, r], ...]}}} where rate_per_s
  /// is only present for counter series. `window_s` limits how far back
  /// samples go, `step_s` > 0 downsamples (emit a point only when at least
  /// step_s after the previous emitted point), `prefix` filters series by
  /// name prefix.
  JsonValue QueryJson(double window_s, double step_s,
                      const std::string& prefix) const;

  /// GET /timeseriesz?window=60&step=5&prefix=serve/ — parses the query
  /// parameters (400 on a malformed number) and serves QueryJson.
  HttpResponse HandleQuery(const HttpRequest& request) const;

  const TimeSeriesOptions& options() const { return options_; }

 private:
  struct Series {
    SeriesKind kind = SeriesKind::kGauge;
    std::vector<TimeSeriesSample> ring;  // capacity slots, oldest at head
    size_t head = 0;                     // next overwrite slot once full
  };

  void Append(const std::string& name, SeriesKind kind, double t_s,
              double value);
  std::vector<TimeSeriesSample> ChronologicalLocked(
      const Series& series) const;
  void SamplerLoop();

  const TimeSeriesOptions options_;
  MetricsRegistry* const registry_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;  // guards series_, thresholds_, on_sample_
  std::map<std::string, Series> series_;
  std::vector<std::pair<std::string, double>> thresholds_;
  std::function<void(double)> on_sample_;
  uint64_t samples_taken_ = 0;

  mutable std::mutex sampler_mutex_;  // guards stop_/running_ for the cv
  std::condition_variable sampler_cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread sampler_;
};

}  // namespace obs
}  // namespace telekit

#endif  // TELEKIT_OBS_TIMESERIES_H_
