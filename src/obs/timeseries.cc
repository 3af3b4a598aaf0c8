#include "obs/timeseries.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/log.h"

namespace telekit {
namespace obs {

namespace {

/// Strict positive-double parse for query parameters; false on trailing
/// junk, negatives, or empty input.
bool ParsePositiveDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || !(v >= 0.0)) return false;
  *out = v;
  return true;
}

JsonValue SamplePairs(const std::vector<TimeSeriesSample>& samples,
                      double step_s) {
  JsonValue out = JsonValue::Array();
  double last_emitted = -1.0e300;
  for (const TimeSeriesSample& sample : samples) {
    if (step_s > 0.0 && sample.t_s - last_emitted < step_s) continue;
    last_emitted = sample.t_s;
    JsonValue pair = JsonValue::Array();
    pair.Append(JsonValue(sample.t_s));
    pair.Append(JsonValue(sample.value));
    out.Append(std::move(pair));
  }
  return out;
}

}  // namespace

const char* SeriesKindName(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounter:
      return "counter";
    case SeriesKind::kGauge:
      return "gauge";
    case SeriesKind::kQuantile:
      return "quantile";
  }
  return "unknown";
}

TimeSeriesStore::TimeSeriesStore(TimeSeriesOptions options,
                                 MetricsRegistry* registry)
    : options_([&options] {
        if (!(options.interval_s > 0.0)) options.interval_s = 1.0;
        if (options.capacity < 2) options.capacity = 2;
        return options;
      }()),
      registry_(registry),
      epoch_(std::chrono::steady_clock::now()) {}

TimeSeriesStore::~TimeSeriesStore() { Stop(); }

std::string TimeSeriesStore::ThresholdSeriesName(
    const std::string& histogram_name, double threshold_ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", threshold_ms);
  return histogram_name + "/le_" + buf;
}

void TimeSeriesStore::TrackLatencyThreshold(const std::string& histogram_name,
                                            double threshold_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, threshold] : thresholds_) {
    if (name == histogram_name && threshold == threshold_ms) return;
  }
  thresholds_.emplace_back(histogram_name, threshold_ms);
}

double TimeSeriesStore::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void TimeSeriesStore::Append(const std::string& name, SeriesKind kind,
                             double t_s, double value) {
  Series& series = series_[name];
  series.kind = kind;
  if (series.ring.size() < options_.capacity) {
    series.ring.push_back({t_s, value});
  } else {
    series.ring[series.head] = {t_s, value};
    series.head = (series.head + 1) % series.ring.size();
  }
}

void TimeSeriesStore::SampleNow(double now_s) {
  // The registry enumerations take the registry lock; grab them before the
  // store lock so the two are never held together.
  const auto counters = registry_->Counters();
  const auto gauges = registry_->Gauges();
  const auto histograms = registry_->Histograms();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, counter] : counters) {
      Append(name, SeriesKind::kCounter, now_s,
             static_cast<double>(counter->value()));
    }
    for (const auto& [name, gauge] : gauges) {
      Append(name, SeriesKind::kGauge, now_s, gauge->value());
    }
    for (const auto& [name, histogram] : histograms) {
      Append(name + "/p50", SeriesKind::kQuantile, now_s,
             histogram->Quantile(0.50));
      Append(name + "/p95", SeriesKind::kQuantile, now_s,
             histogram->Quantile(0.95));
      Append(name + "/p99", SeriesKind::kQuantile, now_s,
             histogram->Quantile(0.99));
      Append(name + "/count", SeriesKind::kCounter, now_s,
             static_cast<double>(histogram->count()));
    }
    for (const auto& [name, threshold] : thresholds_) {
      const Histogram* histogram = registry_->FindHistogram(name);
      if (histogram == nullptr) continue;  // objective on a not-yet-used op
      Append(ThresholdSeriesName(name, threshold), SeriesKind::kCounter,
             now_s, static_cast<double>(histogram->CountAtOrBelow(threshold)));
    }
    ++samples_taken_;
  }
}

void TimeSeriesStore::Start() {
  {
    std::lock_guard<std::mutex> lock(sampler_mutex_);
    if (running_) return;
    stop_ = false;
    running_ = true;
  }
  sampler_ = std::thread([this] { SamplerLoop(); });
  TELEKIT_LOG(INFO) << "timeseries sampler started"
                    << F("interval_s", options_.interval_s)
                    << F("capacity", options_.capacity);
}

void TimeSeriesStore::Stop() {
  {
    std::lock_guard<std::mutex> lock(sampler_mutex_);
    if (!running_) return;
    stop_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  std::lock_guard<std::mutex> lock(sampler_mutex_);
  running_ = false;
}

bool TimeSeriesStore::running() const {
  std::lock_guard<std::mutex> lock(sampler_mutex_);
  return running_;
}

void TimeSeriesStore::SamplerLoop() {
  const auto interval = std::chrono::duration<double>(options_.interval_s);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(sampler_mutex_);
      if (sampler_cv_.wait_for(lock, interval, [this] { return stop_; })) {
        return;
      }
    }
    const double now = now_s();
    SampleNow(now);
    std::function<void(double)> callback;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      callback = on_sample_;
    }
    if (callback) callback(now);
  }
}

void TimeSeriesStore::SetOnSample(std::function<void(double)> on_sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  on_sample_ = std::move(on_sample);
}

uint64_t TimeSeriesStore::samples_taken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_taken_;
}

std::vector<TimeSeriesSample> TimeSeriesStore::ChronologicalLocked(
    const Series& series) const {
  std::vector<TimeSeriesSample> out;
  out.reserve(series.ring.size());
  // Once the ring is full, `head` is the oldest slot (the next overwrite
  // target); before that, slot 0 is.
  for (size_t i = 0; i < series.ring.size(); ++i) {
    out.push_back(series.ring[(series.head + i) % series.ring.size()]);
  }
  return out;
}

std::vector<TimeSeriesSample> TimeSeriesStore::SeriesSamples(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(name);
  if (it == series_.end()) return {};
  return ChronologicalLocked(it->second);
}

double TimeSeriesStore::CounterDelta(const std::string& name, double window_s,
                                     double now_s) const {
  std::vector<TimeSeriesSample> samples = SeriesSamples(name);
  if (samples.size() < 2) return 0.0;
  const double window_start = now_s - window_s;
  // First in-window index; the sample just before it is the baseline the
  // first delta is measured against.
  size_t first = samples.size();
  for (size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].t_s > window_start && samples[i].t_s <= now_s) {
      first = i;
      break;
    }
  }
  if (first == samples.size()) return 0.0;  // nothing inside the window
  const size_t baseline = first > 0 ? first - 1 : first;
  double delta = 0.0;
  for (size_t i = baseline + 1;
       i < samples.size() && samples[i].t_s <= now_s; ++i) {
    // Per-pair clamp: a counter reset mid-window discards the wrapped
    // segment instead of contributing a negative delta.
    delta += std::max(0.0, samples[i].value - samples[i - 1].value);
  }
  return delta;
}

JsonValue TimeSeriesStore::QueryJson(double window_s, double step_s,
                                     const std::string& prefix) const {
  const double now = now_s();
  JsonValue out = JsonValue::Object();
  out.Set("now_s", JsonValue(now));
  out.Set("interval_s", JsonValue(options_.interval_s));
  out.Set("capacity", JsonValue(static_cast<uint64_t>(options_.capacity)));
  JsonValue series_json = JsonValue::Object();
  std::lock_guard<std::mutex> lock(mutex_);
  out.Set("samples_taken", JsonValue(samples_taken_));
  // Anchor the window at the newest timestamp seen, so histories driven by
  // a synthetic SampleNow clock (tests) window the same way live ones do.
  double anchor = now;
  for (const auto& [name, series] : series_) {
    (void)name;
    for (const TimeSeriesSample& sample : series.ring) {
      anchor = std::max(anchor, sample.t_s);
    }
  }
  const double window_start = anchor - window_s;
  for (const auto& [name, series] : series_) {
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    std::vector<TimeSeriesSample> samples = ChronologicalLocked(series);
    std::vector<TimeSeriesSample> rates;
    if (series.kind == SeriesKind::kCounter) {
      for (size_t i = 1; i < samples.size(); ++i) {
        const double dt = samples[i].t_s - samples[i - 1].t_s;
        if (dt <= 0.0) continue;
        rates.push_back(
            {samples[i].t_s,
             std::max(0.0, samples[i].value - samples[i - 1].value) / dt});
      }
    }
    auto in_window = [&](const TimeSeriesSample& s) {
      return s.t_s < window_start;
    };
    samples.erase(std::remove_if(samples.begin(), samples.end(), in_window),
                  samples.end());
    rates.erase(std::remove_if(rates.begin(), rates.end(), in_window),
                rates.end());
    if (samples.empty()) continue;
    JsonValue entry = JsonValue::Object();
    entry.Set("kind", JsonValue(SeriesKindName(series.kind)));
    entry.Set("samples", SamplePairs(samples, step_s));
    if (series.kind == SeriesKind::kCounter) {
      entry.Set("rate_per_s", SamplePairs(rates, step_s));
    }
    series_json.Set(name, std::move(entry));
  }
  out.Set("series", std::move(series_json));
  return out;
}

HttpResponse TimeSeriesStore::HandleQuery(const HttpRequest& request) const {
  const std::map<std::string, std::string> params = ParseQuery(request.query);
  double window_s = 60.0;
  double step_s = 0.0;
  std::string prefix;
  for (const auto& [key, value] : params) {
    if (key == "window") {
      if (!ParsePositiveDouble(value, &window_s)) {
        JsonValue error = JsonValue::Object();
        error.Set("error", JsonValue("bad window: " + value));
        return HttpResponse::Json(400, error);
      }
    } else if (key == "step") {
      if (!ParsePositiveDouble(value, &step_s)) {
        JsonValue error = JsonValue::Object();
        error.Set("error", JsonValue("bad step: " + value));
        return HttpResponse::Json(400, error);
      }
    } else if (key == "prefix") {
      prefix = value;
    }
  }
  return HttpResponse::Json(200, QueryJson(window_s, step_s, prefix));
}

}  // namespace obs
}  // namespace telekit
