#include "stream/pipeline.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/requestlog.h"
#include "obs/trace.h"

namespace telekit {
namespace stream {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Stream metric handles, cached once (the registry never destroys them).
struct StreamMetrics {
  obs::Counter& events;
  obs::Counter& late_drops;
  obs::Counter& duplicate_alarms;
  obs::Counter& overflow_drops;
  obs::Counter& background_events;
  obs::Counter& orphan_symptoms;
  obs::Counter& episodes;
  obs::Counter& episodes_analysed;
  obs::Counter& episodes_shed;
  obs::Counter& throttled_submits;
  obs::Gauge& open_windows;
  obs::Gauge& window_occupancy;
  obs::Gauge& watermark_lag_s;
  obs::Gauge& in_flight;
  obs::Gauge& episodes_per_sec;
  obs::Histogram& detect_ms;
  obs::Histogram& backpressure_ms;

  static StreamMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static StreamMetrics m{
        reg.GetCounter("stream/events"),
        reg.GetCounter("stream/late_drops"),
        reg.GetCounter("stream/duplicate_alarms"),
        reg.GetCounter("stream/overflow_drops"),
        reg.GetCounter("stream/background_events"),
        reg.GetCounter("stream/orphan_symptoms"),
        reg.GetCounter("stream/episodes"),
        reg.GetCounter("stream/episodes_analysed"),
        reg.GetCounter("stream/episodes_shed"),
        reg.GetCounter("stream/throttled_submits"),
        reg.GetGauge("stream/open_windows"),
        reg.GetGauge("stream/window_occupancy"),
        reg.GetGauge("stream/watermark_lag_s"),
        reg.GetGauge("stream/in_flight"),
        reg.GetGauge("stream/episodes_per_sec"),
        reg.GetHistogram("stream/detect_ms"),
        reg.GetHistogram("stream/backpressure_ms"),
    };
    return m;
  }
};

}  // namespace

void HitStats::Accumulate(const EpisodeVerdict& verdict,
                          const std::vector<std::string>& truth_roots) {
  if (!verdict.ok) return;
  const int truth = verdict.candidate.truth_episode;
  if (truth < 0 || static_cast<size_t>(truth) >= truth_roots.size()) return;
  const std::string& root = truth_roots[static_cast<size_t>(truth)];
  ++judged;
  for (size_t i = 0; i < verdict.rca.results.size() && i < 3; ++i) {
    if (verdict.rca.results[i].name != root) continue;
    if (i == 0) ++hit1;
    ++hit3;
    break;
  }
}

StreamPipeline::StreamPipeline(const synth::WorldModel& world,
                               serve::ServeEngine* engine,
                               const PipelineConfig& config)
    : world_(world),
      engine_(engine),
      config_(config),
      sessionizer_(world, config.window) {
  TELEKIT_CHECK(engine_ != nullptr);
  TELEKIT_CHECK_GT(config_.max_in_flight, 0u);
}

void StreamPipeline::PublishMetrics() {
  StreamMetrics& metrics = StreamMetrics::Get();
  const SessionizerStats& now = sessionizer_.stats();
  const SessionizerStats& prev = summary_.sessionizer;
  metrics.events.Increment(now.events - prev.events);
  metrics.late_drops.Increment(now.late_drops - prev.late_drops);
  metrics.duplicate_alarms.Increment(now.duplicate_alarms -
                                     prev.duplicate_alarms);
  metrics.overflow_drops.Increment(now.overflow_drops - prev.overflow_drops);
  metrics.background_events.Increment(now.background_events -
                                      prev.background_events);
  metrics.orphan_symptoms.Increment(now.orphan_symptoms -
                                    prev.orphan_symptoms);
  metrics.episodes.Increment(now.episodes_flushed - prev.episodes_flushed);
  metrics.open_windows.Set(static_cast<double>(now.open_windows));
  metrics.window_occupancy.Set(static_cast<double>(now.window_occupancy));
  metrics.watermark_lag_s.Set(now.watermark_lag);
  metrics.in_flight.Set(static_cast<double>(in_flight_.size()));
  // summary_.sessionizer doubles as the "last published" snapshot, so the
  // registry counters stay exact mirrors of the sessionizer's.
  summary_.sessionizer = now;
}

std::future<serve::Response> StreamPipeline::SubmitOp(
    serve::TaskOp op, const std::string& query) {
  StreamMetrics& metrics = StreamMetrics::Get();
  serve::Request request;
  request.op = op;
  request.text = query;
  request.top_k = config_.top_k;
  const Clock::time_point before = Clock::now();
  std::future<serve::Response> future =
      engine_->Submit(std::move(request), config_.submit_block_ms);
  const double blocked_ms = MsSince(before, Clock::now());
  // Submit only dwells when the bounded queue is full — that dwell *is*
  // the backpressure throttling ingestion, so make it observable.
  if (blocked_ms >= 0.05) {
    metrics.throttled_submits.Increment();
    metrics.backpressure_ms.Observe(blocked_ms);
    ++summary_.throttled_submits;
    summary_.throttled_ms += blocked_ms;
  }
  // A full queue that never drained within submit_block_ms fulfils the
  // future immediately with Unavailable; the episode is shed at harvest.
  return future;
}

void StreamPipeline::Analyse(EpisodeCandidate candidate,
                             const VerdictSink& sink) {
  StreamMetrics& metrics = StreamMetrics::Get();
  const Clock::time_point flushed_at = Clock::now();
  std::string query = EpisodeQueryText(world_, candidate);

  if (config_.deterministic) {
    EpisodeVerdict verdict;
    verdict.query = query;
    serve::Request request;
    request.text = query;
    request.top_k = config_.top_k;
    request.op = serve::TaskOp::kRca;
    verdict.rca = engine_->Process(request);
    verdict.detect_ms = MsSince(flushed_at, Clock::now());
    request.op = serve::TaskOp::kEap;
    verdict.eap = engine_->Process(request);
    request.op = serve::TaskOp::kFct;
    verdict.fct = engine_->Process(request);
    verdict.ok = verdict.rca.status.ok();
    verdict.candidate = std::move(candidate);
    metrics.detect_ms.Observe(verdict.detect_ms);
    obs::ExemplarStore::Global().Record("stream/detect_ms", verdict.detect_ms,
                                        verdict.rca.trace_id);
    (verdict.ok ? metrics.episodes_analysed : metrics.episodes_shed)
        .Increment();
    ++(verdict.ok ? summary_.episodes_analysed : summary_.episodes_shed);
    if (sink) sink(std::move(verdict));
    return;
  }

  if (in_flight_.size() >= config_.max_in_flight) HarvestOldest(sink);
  InFlight item;
  item.flushed_at = flushed_at;
  item.rca = SubmitOp(serve::TaskOp::kRca, query);
  item.eap = SubmitOp(serve::TaskOp::kEap, query);
  item.fct = SubmitOp(serve::TaskOp::kFct, query);
  item.query = std::move(query);
  item.candidate = std::move(candidate);
  in_flight_.push_back(std::move(item));
}

void StreamPipeline::HarvestOldest(const VerdictSink& sink) {
  if (in_flight_.empty()) return;
  StreamMetrics& metrics = StreamMetrics::Get();
  InFlight item = std::move(in_flight_.front());
  in_flight_.pop_front();
  EpisodeVerdict verdict;
  verdict.rca = item.rca.get();
  verdict.detect_ms = MsSince(item.flushed_at, Clock::now());
  verdict.eap = item.eap.get();
  verdict.fct = item.fct.get();
  verdict.ok = verdict.rca.status.ok();
  verdict.query = std::move(item.query);
  verdict.candidate = std::move(item.candidate);
  if (verdict.ok) {
    metrics.detect_ms.Observe(verdict.detect_ms);
    obs::ExemplarStore::Global().Record("stream/detect_ms",
                                        verdict.detect_ms,
                                        verdict.rca.trace_id);
    metrics.episodes_analysed.Increment();
    ++summary_.episodes_analysed;
  } else {
    metrics.episodes_shed.Increment();
    ++summary_.episodes_shed;
  }
  if (sink) sink(std::move(verdict));
}

void StreamPipeline::HarvestAll(const VerdictSink& sink) {
  while (!in_flight_.empty()) HarvestOldest(sink);
}

PipelineSummary StreamPipeline::Run(
    const std::vector<synth::StreamEvent>& events, const VerdictSink& sink) {
  TELEKIT_SPAN("stream/run");
  StreamMetrics& metrics = StreamMetrics::Get();
  summary_ = PipelineSummary{};
  const Clock::time_point started = Clock::now();
  synth::SimClock clock(config_.speedup);
  std::vector<EpisodeCandidate> flushed;
  auto eps_gauge = [&]() {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - started).count();
    const uint64_t done =
        summary_.episodes_analysed + summary_.episodes_shed;
    if (elapsed > 0.0) {
      metrics.episodes_per_sec.Set(static_cast<double>(done) / elapsed);
    }
  };
  for (const synth::StreamEvent& event : events) {
    clock.SleepUntil(event.arrival);
    flushed.clear();
    sessionizer_.Offer(event, &flushed);
    PublishMetrics();
    for (EpisodeCandidate& candidate : flushed) {
      Analyse(std::move(candidate), sink);
      eps_gauge();
    }
  }
  flushed.clear();
  sessionizer_.FlushAll(&flushed);
  PublishMetrics();
  for (EpisodeCandidate& candidate : flushed) {
    Analyse(std::move(candidate), sink);
  }
  HarvestAll(sink);
  metrics.in_flight.Set(0.0);
  eps_gauge();

  summary_.sessionizer = sessionizer_.stats();
  summary_.wall_seconds =
      std::chrono::duration<double>(Clock::now() - started).count();
  const uint64_t done = summary_.episodes_analysed + summary_.episodes_shed;
  summary_.episodes_per_sec =
      summary_.wall_seconds > 0.0
          ? static_cast<double>(done) / summary_.wall_seconds
          : 0.0;
  TELEKIT_LOG(INFO) << "stream: replay done"
                    << obs::F("events", summary_.sessionizer.events)
                    << obs::F("episodes",
                              summary_.sessionizer.episodes_flushed)
                    << obs::F("analysed", summary_.episodes_analysed)
                    << obs::F("shed", summary_.episodes_shed)
                    << obs::F("late_drops", summary_.sessionizer.late_drops)
                    << obs::F("episodes_per_sec", summary_.episodes_per_sec);
  return summary_;
}

}  // namespace stream
}  // namespace telekit
