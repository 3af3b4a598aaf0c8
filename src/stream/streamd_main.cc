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
#include <cstdlib>
#include <iostream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flag_parse.h"
#include "core/model_zoo.h"
#include "obs/admin.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/requestlog.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "stream/pipeline.h"
#include "synth/replay.h"
#include "tensor/compute_pool.h"

namespace telekit {
namespace stream {
namespace {

struct Flags {
  uint64_t seed = 20230401;
  int episodes = 40;
  double mean_gap = 12.0;
  double jitter = 0.5;
  double window = 10.0;
  double watermark = 2.0;
  double idle_gap = 4.0;
  double speedup = synth::SimClock::kInfiniteSpeedup;
  /// auto: sync (deterministic) when speedup is inf, async otherwise.
  std::string mode = "auto";
  size_t max_in_flight = 32;
  double submit_block_ms = 1000.0;
  int top_k = 5;
  int workers = 4;
  int max_batch = 8;
  size_t queue_capacity = 1024;
  int compute_threads = 0;
  int admin_port = -1;
  bool linger = false;
  std::string obs_json;
  std::string request_log;       // NDJSON wide-event sink ("" = off)
  double ts_interval_s = 1.0;    // time-series sampler period
  size_t ts_capacity = 600;      // ring slots per series
  double slo_latency_ms = 250.0;  // detect-latency objective boundary
  double slo_fast_s = 60.0;      // burn-rate fast window
  double slo_slow_s = 300.0;     // burn-rate slow window
};

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

void PrintUsage() {
  std::cerr
      << "usage: telekit_streamd [options]\n"
      << "  --seed=N             world/model/replay seed (default 20230401)\n"
      << "  --episodes=N         fault episodes to replay (default 40)\n"
      << "  --mean-gap=X         mean episode inter-arrival gap, sim s\n"
      << "  --jitter=X           max out-of-order delivery skew, sim s\n"
      << "  --window=X           session window span, sim s (default 10)\n"
      << "  --watermark=X        watermark delay / lateness bound (default 2)\n"
      << "  --idle-gap=X         idle window flush gap (default 4)\n"
      << "  --speedup=X|inf      sim seconds per wall second (default inf)\n"
      << "  --mode=sync|async    sync = deterministic replay via the\n"
      << "                       unbatched Process path; async = Submit with\n"
      << "                       micro-batching + blocking backpressure\n"
      << "                       (default: sync when speedup=inf)\n"
      << "  --max-in-flight=N    async: episodes awaiting verdicts cap\n"
      << "  --submit-block-ms=X  async: max Submit stall before shedding\n"
      << "  --top-k=N            candidates per task op (default 5)\n"
      << "  --workers=N          engine worker threads (default 4)\n"
      << "  --max-batch=N        engine micro-batch cap (default 8)\n"
      << "  --queue-capacity=N   engine bounded queue (default 1024)\n"
      << "  --compute-threads=N  intra-op tensor threads\n"
      << "  --admin-port=N       HTTP admin endpoints on 127.0.0.1:N\n"
      << "  --linger             keep the admin server up after the replay\n"
      << "                       (until killed) so /statusz can be scraped\n"
      << "  --obs-json=PATH      write metrics/trace report on exit\n"
      << "  --request-log=PATH   append one NDJSON wide event per request\n"
      << "  --ts-interval-s=X    time-series sample period (default 1)\n"
      << "  --ts-capacity=N      time-series ring slots (default 600)\n"
      << "  --slo-latency-ms=X   detect-latency SLO threshold (default 250)\n"
      << "  --slo-fast-s=X       SLO fast burn window (default 60)\n"
      << "  --slo-slow-s=X       SLO slow burn window (default 300)\n"
      << "  --log-level=LEVEL    debug|info|warn|error|off\n";
}

void ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "seed", &v)) {
      flags->seed = static_cast<uint64_t>(
          ParseIntFlagOrDie("seed", v, 0, std::numeric_limits<int64_t>::max()));
    } else if (ParseFlag(arg, "episodes", &v)) {
      flags->episodes =
          static_cast<int>(ParseIntFlagOrDie("episodes", v, 1, 1 << 30));
    } else if (ParseFlag(arg, "mean-gap", &v)) {
      flags->mean_gap = ParseDoubleFlagOrDie("mean-gap", v, 0.0, 1e9);
    } else if (ParseFlag(arg, "jitter", &v)) {
      flags->jitter = ParseDoubleFlagOrDie("jitter", v, 0.0, 1e9);
    } else if (ParseFlag(arg, "window", &v)) {
      flags->window = ParseDoubleFlagOrDie("window", v, 0.001, 1e9);
    } else if (ParseFlag(arg, "watermark", &v)) {
      flags->watermark = ParseDoubleFlagOrDie("watermark", v, 0.0, 1e9);
    } else if (ParseFlag(arg, "idle-gap", &v)) {
      flags->idle_gap = ParseDoubleFlagOrDie("idle-gap", v, 0.0, 1e9);
    } else if (ParseFlag(arg, "speedup", &v)) {
      flags->speedup = (v == "inf" || v == "0")
                           ? synth::SimClock::kInfiniteSpeedup
                           : ParseDoubleFlagOrDie("speedup", v, 0.001, 1e9);
    } else if (ParseFlag(arg, "mode", &v)) {
      if (v != "sync" && v != "async" && v != "auto") {
        std::cerr << "bad --mode: " << v << "\n";
        std::exit(64);
      }
      flags->mode = v;
    } else if (ParseFlag(arg, "max-in-flight", &v)) {
      flags->max_in_flight = static_cast<size_t>(
          ParseIntFlagOrDie("max-in-flight", v, 1, int64_t{1} << 30));
    } else if (ParseFlag(arg, "submit-block-ms", &v)) {
      flags->submit_block_ms =
          ParseDoubleFlagOrDie("submit-block-ms", v, 0.0, 1e9);
    } else if (ParseFlag(arg, "top-k", &v)) {
      flags->top_k = static_cast<int>(ParseIntFlagOrDie("top-k", v, 1, 1000));
    } else if (ParseFlag(arg, "workers", &v)) {
      flags->workers =
          static_cast<int>(ParseIntFlagOrDie("workers", v, 1, 1024));
    } else if (ParseFlag(arg, "max-batch", &v)) {
      flags->max_batch =
          static_cast<int>(ParseIntFlagOrDie("max-batch", v, 1, 1 << 20));
    } else if (ParseFlag(arg, "queue-capacity", &v)) {
      flags->queue_capacity = static_cast<size_t>(
          ParseIntFlagOrDie("queue-capacity", v, 1, int64_t{1} << 30));
    } else if (ParseFlag(arg, "compute-threads", &v)) {
      flags->compute_threads =
          static_cast<int>(ParseIntFlagOrDie("compute-threads", v, 0, 4096));
    } else if (ParseFlag(arg, "admin-port", &v)) {
      flags->admin_port =
          static_cast<int>(ParseIntFlagOrDie("admin-port", v, -1, 65535));
    } else if (arg == "--linger") {
      flags->linger = true;
    } else if (ParseFlag(arg, "obs-json", &v)) {
      flags->obs_json = v;
    } else if (ParseFlag(arg, "request-log", &v)) {
      flags->request_log = v;
    } else if (ParseFlag(arg, "ts-interval-s", &v)) {
      flags->ts_interval_s =
          ParseDoubleFlagOrDie("ts-interval-s", v, 0.001, 1e6);
    } else if (ParseFlag(arg, "ts-capacity", &v)) {
      flags->ts_capacity = static_cast<size_t>(
          ParseIntFlagOrDie("ts-capacity", v, 1, int64_t{1} << 30));
    } else if (ParseFlag(arg, "slo-latency-ms", &v)) {
      flags->slo_latency_ms =
          ParseDoubleFlagOrDie("slo-latency-ms", v, 0.0, 1e9);
    } else if (ParseFlag(arg, "slo-fast-s", &v)) {
      flags->slo_fast_s = ParseDoubleFlagOrDie("slo-fast-s", v, 0.001, 1e9);
    } else if (ParseFlag(arg, "slo-slow-s", &v)) {
      flags->slo_slow_s = ParseDoubleFlagOrDie("slo-slow-s", v, 0.001, 1e9);
    } else if (ParseFlag(arg, "log-level", &v)) {
      obs::Logger::Global().set_level(obs::ParseLogLevel(v));
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      PrintUsage();
      std::exit(64);
    }
  }
}

/// Same interactive-startup zoo scale as telekit_serve.
core::ZooConfig StreamZooConfig(const Flags& flags) {
  core::ZooConfig config;
  config.seed = flags.seed;
  config.world.num_alarm_types = 48;
  config.world.num_kpi_types = 24;
  config.corpus.num_tele_sentences = 1500;
  config.corpus.num_general_sentences = 1500;
  config.num_episodes = 40;
  config.pretrain.steps = 0;
  config.cache_dir = "";  // TELEKIT_CACHE env still overrides
  return config;
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
  if (const obs::LatencyHistogram* h =
          reg.FindLatencyHistogram("stream/detect_ms")) {
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
  if (!flags.obs_json.empty()) {
    obs::TraceCollector::Global().set_recording(true);
  }
  const auto start_time = std::chrono::steady_clock::now();

  if (!flags.request_log.empty() &&
      !obs::RequestLog::Global().SetSinkFile(flags.request_log)) {
    std::cerr << "failed to open --request-log=" << flags.request_log << "\n";
    return 1;
  }

  // Declared before the admin server so handlers referencing them outlive
  // it; the sampler thread starts only after all early-return paths.
  obs::TimeSeriesOptions ts_options;
  ts_options.interval_s = flags.ts_interval_s;
  ts_options.capacity = flags.ts_capacity;
  obs::TimeSeriesStore timeseries(ts_options);
  obs::SloConfig slo_config;
  slo_config.fast_window_s = flags.slo_fast_s;
  slo_config.slow_window_s = flags.slo_slow_s;
  slo_config.budget_window_s = flags.slo_slow_s * 6.0;
  obs::SloEngine slo(&timeseries, slo_config);
  // The embedded engine serves rca/eap/fct in-process, so streamd watches
  // the stream objectives and the serve ones.
  for (obs::SloObjective& objective :
       obs::DefaultStreamObjectives(flags.slo_latency_ms, 0.99, 0.95)) {
    slo.AddObjective(std::move(objective));
  }
  for (obs::SloObjective& objective :
       obs::DefaultServeObjectives(flags.slo_latency_ms, 0.999, 0.95)) {
    slo.AddObjective(std::move(objective));
  }
  timeseries.SetOnSample([&slo](double now_s) { slo.Evaluate(now_s); });

  RunState state;
  std::atomic<serve::ServeEngine*> engine_ptr{nullptr};
  obs::AdminServer admin;
  admin.Handle("/timeseriesz", [&timeseries](const obs::HttpRequest& request) {
    return timeseries.HandleQuery(request);
  });
  admin.Handle("/alertz", [&slo](const obs::HttpRequest& request) {
    return slo.HandleQuery(request);
  });
  admin.Handle("/readyz", [&state](const obs::HttpRequest&) {
    return state.ready.load() ? obs::HttpResponse::Text(200, "ready\n")
                              : obs::HttpResponse::Text(503, "loading\n");
  });
  admin.Handle("/statusz", [&state, &engine_ptr, &timeseries, &slo,
                            start_time](const obs::HttpRequest&) {
    obs::JsonValue out = obs::JsonValue::Object();
    out.Set("server", obs::JsonValue("telekit_streamd"));
    out.Set("uptime_s",
            obs::JsonValue(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_time)
                               .count()));
    out.Set("ready", obs::JsonValue(state.ready.load()));
    out.Set("stream", StreamStatusJson(state));
    if (serve::ServeEngine* engine = engine_ptr.load()) {
      const serve::EngineStats stats = engine->GetStats();
      obs::JsonValue e = obs::JsonValue::Object();
      e.Set("queue_depth", obs::JsonValue(stats.queue_depth));
      e.Set("queue_capacity", obs::JsonValue(stats.queue_capacity));
      e.Set("saturated", obs::JsonValue(stats.saturated));
      e.Set("requests", obs::JsonValue(stats.requests));
      e.Set("rejected", obs::JsonValue(stats.rejected));
      e.Set("cache_hit_rate", obs::JsonValue(stats.cache_hit_rate));
      out.Set("engine", std::move(e));
    }
    obs::JsonValue ts = obs::JsonValue::Object();
    ts.Set("running", obs::JsonValue(timeseries.running()));
    ts.Set("interval_s", obs::JsonValue(timeseries.options().interval_s));
    ts.Set("samples_taken", obs::JsonValue(timeseries.samples_taken()));
    out.Set("timeseries", std::move(ts));
    obs::JsonValue slo_json = obs::JsonValue::Object();
    slo_json.Set("objectives",
                 obs::JsonValue(static_cast<uint64_t>(slo.Snapshot().size())));
    slo_json.Set("firing",
                 obs::JsonValue(static_cast<uint64_t>(slo.firing_count())));
    out.Set("slo", std::move(slo_json));
    obs::JsonValue rlog = obs::JsonValue::Object();
    rlog.Set("size",
             obs::JsonValue(static_cast<uint64_t>(
                 obs::RequestLog::Global().size())));
    rlog.Set("total_recorded",
             obs::JsonValue(obs::RequestLog::Global().total_recorded()));
    rlog.Set("sink", obs::JsonValue(obs::RequestLog::Global().sink_path()));
    out.Set("request_log", std::move(rlog));
    return obs::HttpResponse::Json(200, out);
  });
  if (flags.admin_port >= 0 && !admin.Start(flags.admin_port)) {
    std::cerr << "failed to start admin server on 127.0.0.1:"
              << flags.admin_port << "\n";
    return 1;
  }
  if (flags.compute_threads > 0) {
    tensor::SetComputeThreads(flags.compute_threads);
  }

  std::cerr << "telekit_streamd: building model (seed=" << flags.seed
            << ")...\n";
  core::ModelZoo zoo(StreamZooConfig(flags));
  zoo.BuildData();
  zoo.BuildPretrained();
  core::TeleBertEncoder encoder(&zoo.telebert());
  core::ServiceEncoder service(&encoder, &zoo.tokenizer(), &zoo.store(),
                               &zoo.normalizer());

  serve::EngineOptions options;
  options.num_workers = flags.workers;
  options.queue_capacity = flags.queue_capacity;
  options.max_batch = flags.max_batch;
  options.compute_threads = flags.compute_threads;
  serve::ServeEngine engine(&service, options);
  engine_ptr.store(&engine);
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

  // Replay stream: a dedicated rng stream (seed ^ constant) so the replay
  // is decoupled from the world/model build.
  synth::LogConfig log_config;
  synth::LogGenerator log_gen(zoo.world(), log_config);
  synth::SignalingConfig signaling_config;
  synth::SignalingFlowGenerator signaling_gen(zoo.world(), signaling_config);
  synth::ReplayConfig replay;
  replay.num_episodes = flags.episodes;
  replay.mean_episode_gap = flags.mean_gap;
  replay.jitter = flags.jitter;
  Rng replay_rng(flags.seed ^ 0x5741544552ULL);  // "WATER"(mark)
  const std::vector<synth::ScheduledEpisode> episodes =
      ScheduleEpisodes(log_gen, signaling_gen, replay, replay_rng);
  const std::vector<synth::StreamEvent> events =
      BuildReplayStream(log_gen, signaling_gen, episodes, replay, replay_rng);
  std::vector<std::string> truth_roots;
  truth_roots.reserve(episodes.size());
  for (const synth::ScheduledEpisode& scheduled : episodes) {
    truth_roots.push_back(
        zoo.world()
            .alarms()[static_cast<size_t>(scheduled.episode.root_alarm)]
            .name);
  }

  PipelineConfig config;
  config.window.window_span = flags.window;
  config.window.watermark_delay = flags.watermark;
  config.window.idle_gap = flags.idle_gap;
  config.speedup = flags.speedup;
  config.deterministic =
      flags.mode == "auto"
          ? flags.speedup == synth::SimClock::kInfiniteSpeedup
          : flags.mode == "sync";
  config.max_in_flight = flags.max_in_flight;
  config.submit_block_ms = flags.submit_block_ms;
  config.top_k = flags.top_k;
  StreamPipeline pipeline(zoo.world(), &engine, config);

  // No early-return path remains: safe to start the sampler whose
  // callback reaches into `slo`.
  timeseries.Start();
  state.ready.store(true);
  std::cerr << "telekit_streamd: replaying " << events.size()
            << " events / " << episodes.size() << " episodes ("
            << (config.deterministic ? "sync" : "async") << " mode, speedup="
            << flags.speedup << ", " << flags.workers << " workers)\n";
  if (admin.running()) {
    std::cerr << "telekit_streamd: admin endpoints on 127.0.0.1:"
              << admin.port() << "\n";
  }

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
  const obs::LatencyHistogram& detect =
      obs::MetricsRegistry::Global().GetLatencyHistogram("stream/detect_ms");
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
  admin.Stop();
  timeseries.Stop();
  engine_ptr.store(nullptr);
  engine.Stop();
  if (!flags.obs_json.empty()) obs::WriteReport(flags.obs_json);
  return 0;
}

}  // namespace
}  // namespace stream
}  // namespace telekit

int main(int argc, char** argv) {
  return telekit::stream::Main(argc, argv);
}
