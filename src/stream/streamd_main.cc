// telekit_streamd: online fault-analysis pipeline over a replayed live
// stream (Sec. IV-B/V deployment shape).
//
// Replays an interleaved alarm/KPI/signaling stream generated from the
// synthetic world at --speedup (simulated seconds per wall second; "inf"
// replays as fast as the engine drains), sessionizes it into candidate
// fault episodes with watermark-based sliding windows, and drives each
// episode's text through the ServeEngine (rca/eap/fct) continuously with
// backpressure. Admin endpoints (--admin-port) expose the live pipeline:
// /statusz gains a "stream" section, /metrics the stream/* series.
//
// Determinism contract (asserted in tests/stream_test.cc, documented in
// DESIGN.md): with a fixed --seed and --speedup=inf two runs produce
// identical episode partitions and identical RCA/EAP/FCT verdicts.

#include <atomic>
#include <chrono>
#include <iostream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flag_parse.h"
#include "core/model_zoo.h"
#include "obs/admin.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "serve/daemon_kit.h"
#include "serve/engine.h"
#include "stream/pipeline.h"
#include "synth/replay.h"
#include "tensor/compute_pool.h"

namespace telekit {
namespace stream {
namespace {

struct Flags {
  uint64_t seed = 20230401;
  synth::ReplayConfig replay;
  PipelineConfig pipeline;
  /// auto: sync (deterministic) when speedup is inf, async otherwise.
  std::string mode = "auto";
  serve::EngineOptions engine;
  bool linger = false;
  serve::DaemonFlags daemon;
};

void ParseFlags(int argc, char** argv, Flags* flags) {
  FlagSet table("telekit_streamd");
  PipelineConfig& pipeline = flags->pipeline;
  flags->replay.num_episodes = 40;  // the daemon's default, not the library's
  table.Int("seed=N", &flags->seed, 0, std::numeric_limits<int64_t>::max(),
            "world/model/replay seed (default 20230401)");
  table.Int("episodes=N", &flags->replay.num_episodes, 1, 1 << 30,
            "fault episodes to replay (default 40)");
  table.Double("mean-gap=X", &flags->replay.mean_episode_gap, 0.0, 1e9,
               "mean episode inter-arrival gap, sim s");
  table.Double("jitter=X", &flags->replay.jitter, 0.0, 1e9,
               "max out-of-order delivery skew, sim s");
  table.Double("window=X", &pipeline.window.window_span, 0.001, 1e9,
               "session window span, sim s (default 10)");
  table.Double("watermark=X", &pipeline.window.watermark_delay, 0.0, 1e9,
               "watermark delay / lateness bound (default 2)");
  table.Double("idle-gap=X", &pipeline.window.idle_gap, 0.0, 1e9,
               "idle window flush gap (default 4)");
  table.Custom("speedup=X|inf", "a number in [0.001, 1e+09], or inf|0",
               "sim seconds per wall second (default inf)",
               [&pipeline](const std::string& value) {
                 if (value == "inf" || value == "0") {
                   pipeline.speedup = synth::SimClock::kInfiniteSpeedup;
                   return true;
                 }
                 return ParseDouble(value, 0.001, 1e9, &pipeline.speedup);
               });
  table.Choice("mode=sync|async", &flags->mode, {"sync", "async", "auto"},
               "sync = deterministic replay via the\n"
               "Process path; async = Submit to the worker\n"
               "pool with blocking backpressure, the same\n"
               "verdicts bit for bit (default: sync when\n"
               "speedup=inf)");
  table.Int("max-in-flight=N", &pipeline.max_in_flight, 1, int64_t{1} << 30,
            "async: episodes awaiting verdicts cap");
  table.Double("submit-block-ms=X", &pipeline.submit_block_ms, 0.0, 1e9,
               "async: max Submit stall before shedding");
  table.Int("top-k=N", &pipeline.top_k, 1, 1000,
            "candidates per task op (default 5)");
  table.Int("workers=N", &flags->engine.num_workers, 1, 1024,
            "engine worker threads (default 4)");
  table.Int("queue-capacity=N", &flags->engine.queue_capacity, 1,
            int64_t{1} << 30, "engine bounded queue (default 1024)");
  tensor::AddComputeThreadsFlag(&table);
  table.Switch("linger", &flags->linger, true,
               "keep the admin server up after the replay\n"
               "(until killed) so /statusz can be scraped");
  flags->daemon.slo_latency_ms = 250.0;  // detect-latency objective
  serve::DaemonKit::DeclareFlags(&table, &flags->daemon, /*slo=*/true);
  table.Parse(argc, argv);
  pipeline.deterministic =
      flags->mode == "auto"
          ? pipeline.speedup == synth::SimClock::kInfiniteSpeedup
          : flags->mode == "sync";
}

/// Live run state shared with the admin thread.
struct RunState {
  std::atomic<bool> ready{false};
  std::atomic<bool> done{false};
  std::mutex mutex;  // guards hits
  HitStats hits;
};

obs::JsonValue StreamStatusJson(const RunState& state) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("done", obs::JsonValue(state.done.load()));
  auto counter = [&reg](const char* name) {
    const obs::Counter* c = reg.FindCounter(name);
    return obs::JsonValue(c != nullptr ? c->value() : 0);
  };
  auto gauge = [&reg](const char* name) {
    const obs::Gauge* g = reg.FindGauge(name);
    return obs::JsonValue(g != nullptr ? g->value() : 0.0);
  };
  out.Set("events", counter("stream/events"));
  out.Set("episodes", counter("stream/episodes"));
  out.Set("episodes_analysed", counter("stream/episodes_analysed"));
  out.Set("episodes_shed", counter("stream/episodes_shed"));
  out.Set("late_drops", counter("stream/late_drops"));
  out.Set("duplicate_alarms", counter("stream/duplicate_alarms"));
  out.Set("background_events", counter("stream/background_events"));
  out.Set("orphan_symptoms", counter("stream/orphan_symptoms"));
  out.Set("throttled_submits", counter("stream/throttled_submits"));
  out.Set("open_windows", gauge("stream/open_windows"));
  out.Set("window_occupancy", gauge("stream/window_occupancy"));
  out.Set("watermark_lag_s", gauge("stream/watermark_lag_s"));
  out.Set("in_flight", gauge("stream/in_flight"));
  out.Set("episodes_per_sec", gauge("stream/episodes_per_sec"));
  if (const obs::Histogram* h = reg.FindHistogram("stream/detect_ms")) {
    out.Set("detect_latency", obs::LatencySummaryJson(*h));
  }
  {
    auto& state_mutable = const_cast<RunState&>(state);
    std::lock_guard<std::mutex> lock(state_mutable.mutex);
    obs::JsonValue hits = obs::JsonValue::Object();
    hits.Set("judged", obs::JsonValue(state.hits.judged));
    hits.Set("hit1", obs::JsonValue(state.hits.HitRate1()));
    hits.Set("hit3", obs::JsonValue(state.hits.HitRate3()));
    out.Set("online_rca", std::move(hits));
  }
  return out;
}

int Main(int argc, char** argv) {
  Flags flags;
  ParseFlags(argc, argv, &flags);

  // The embedded engine serves rca/eap/fct in-process, so streamd watches
  // the stream objectives and the serve ones.
  std::vector<obs::SloObjective> objectives =
      obs::DefaultStreamObjectives(flags.daemon.slo_latency_ms, 0.99, 0.95);
  for (obs::SloObjective& objective : obs::DefaultServeObjectives(
           flags.daemon.slo_latency_ms, 0.999, 0.95)) {
    objectives.push_back(std::move(objective));
  }
  RunState state;
  std::atomic<serve::ServeEngine*> engine_ptr{nullptr};
  serve::DaemonKit kit("telekit_streamd", flags.daemon, std::move(objectives));
  kit.admin().Handle("/readyz", [&state](const obs::HttpRequest&) {
    return state.ready.load() ? obs::HttpResponse::Text(200, "ready\n")
                              : obs::HttpResponse::Text(503, "loading\n");
  });
  kit.HandleStatus([&state, &engine_ptr, &kit](obs::JsonValue* out) {
    out->Set("uptime_s", obs::JsonValue(kit.uptime_s()));
    out->Set("ready", obs::JsonValue(state.ready.load()));
    out->Set("stream", StreamStatusJson(state));
    if (serve::ServeEngine* engine = engine_ptr.load()) {
      const serve::EngineStats stats = engine->GetStats();
      obs::JsonValue e = obs::JsonValue::Object();
      e.Set("queue_depth", obs::JsonValue(stats.queue_depth));
      e.Set("queue_capacity", obs::JsonValue(stats.queue_capacity));
      e.Set("saturated", obs::JsonValue(stats.saturated));
      e.Set("requests", obs::JsonValue(stats.requests));
      e.Set("rejected", obs::JsonValue(stats.rejected));
      e.Set("cache_hit_rate", obs::JsonValue(stats.cache_hit_rate));
      out->Set("engine", std::move(e));
    }
  });
  if (!kit.Start()) return 1;

  std::cerr << "telekit_streamd: building model (seed=" << flags.seed
            << ")...\n";
  core::ModelZoo zoo(serve::InteractiveZooConfig(flags.seed, 0));
  zoo.BuildData();
  zoo.BuildPretrained();
  core::TeleBertEncoder encoder(&zoo.telebert());
  core::ServiceEncoder service(&encoder, &zoo.tokenizer(), &zoo.store(),
                               &zoo.normalizer());

  serve::ServeEngine engine(&service, flags.engine);
  std::vector<std::string> alarm_names;
  for (const auto& alarm : zoo.world().alarms()) {
    alarm_names.push_back(alarm.name);
  }
  for (serve::TaskOp op :
       {serve::TaskOp::kRca, serve::TaskOp::kEap, serve::TaskOp::kFct}) {
    const Status status = engine.LoadCatalog(op, alarm_names);
    if (!status.ok()) {
      std::cerr << "LoadCatalog(" << serve::TaskOpName(op)
                << "): " << status.ToString() << "\n";
      return 1;
    }
  }
  engine_ptr.store(&engine);

  // Replay stream: a dedicated rng stream (seed ^ constant) so the replay
  // is decoupled from the world/model build.
  synth::LogConfig log_config;
  synth::LogGenerator log_gen(zoo.world(), log_config);
  synth::SignalingConfig signaling_config;
  synth::SignalingFlowGenerator signaling_gen(zoo.world(), signaling_config);
  Rng replay_rng(flags.seed ^ 0x5741544552ULL);  // "WATER"(mark)
  const std::vector<synth::ScheduledEpisode> episodes =
      ScheduleEpisodes(log_gen, signaling_gen, flags.replay, replay_rng);
  const std::vector<synth::StreamEvent> events = BuildReplayStream(
      log_gen, signaling_gen, episodes, flags.replay, replay_rng);
  std::vector<std::string> truth_roots;
  truth_roots.reserve(episodes.size());
  for (const synth::ScheduledEpisode& scheduled : episodes) {
    truth_roots.push_back(
        zoo.world()
            .alarms()[static_cast<size_t>(scheduled.episode.root_alarm)]
            .name);
  }

  StreamPipeline pipeline(zoo.world(), &engine, flags.pipeline);

  state.ready.store(true);
  std::cerr << "telekit_streamd: replaying " << events.size()
            << " events / " << episodes.size() << " episodes ("
            << (flags.pipeline.deterministic ? "sync" : "async")
            << " mode, speedup=" << flags.pipeline.speedup << ", "
            << flags.engine.num_workers << " workers)\n";
  kit.MarkReady();

  const PipelineSummary summary =
      pipeline.Run(events, [&state, &truth_roots](EpisodeVerdict verdict) {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.hits.Accumulate(verdict, truth_roots);
      });
  state.done.store(true);

  HitStats hits;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    hits = state.hits;
  }
  const obs::Histogram& detect =
      obs::MetricsRegistry::Global().GetHistogram("stream/detect_ms");
  std::cout << "telekit_streamd summary\n"
            << "  events:            " << summary.sessionizer.events << "\n"
            << "  episodes flushed:  " << summary.sessionizer.episodes_flushed
            << "\n"
            << "  analysed / shed:   " << summary.episodes_analysed << " / "
            << summary.episodes_shed << "\n"
            << "  late drops:        " << summary.sessionizer.late_drops
            << "\n"
            << "  duplicate alarms:  " << summary.sessionizer.duplicate_alarms
            << "\n"
            << "  episodes/sec:      " << summary.episodes_per_sec << "\n"
            << "  detect p50/p99 ms: " << detect.Quantile(0.50) << " / "
            << detect.Quantile(0.99) << "\n"
            << "  throttled submits: " << summary.throttled_submits << " ("
            << summary.throttled_ms << " ms)\n"
            << "  online RCA hit@1:  " << hits.HitRate1() << " (judged "
            << hits.judged << ")\n"
            << "  online RCA hit@3:  " << hits.HitRate3() << "\n";

  if (flags.linger) {
    std::cerr << "telekit_streamd: replay done; lingering for admin scrapes"
                 " (kill to exit)\n";
    while (true) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  }
  kit.Finish();
  engine_ptr.store(nullptr);
  engine.Stop();
  return 0;
}

}  // namespace
}  // namespace stream
}  // namespace telekit

int main(int argc, char** argv) {
  return telekit::stream::Main(argc, argv);
}
