// Load generator for the streaming subsystem. Replays one seeded
// alarm/KPI/signaling stream through three pipeline configurations and
// writes BENCH_stream.json:
//
//   sync_replay   deterministic mode (Process path) — measures
//                 sustained episodes/sec, detection latency, and online
//                 RCA hit@1/hit@3; the same episodes are then re-scored
//                 through the offline evaluator path and the two hit
//                 rates must agree exactly (acceptance)
//   async_replay  Submit() to the worker pool — the throughput shape
//   saturated     async against a deliberately starved engine (1 worker,
//                 tiny queue, tiny in-flight bound): backpressure must
//                 throttle ingestion (observable throttled submits) while
//                 every flushed episode stays accounted (analysed + shed)
//
// Absolute hit rates on the synthetic world do not transfer to the
// paper's proprietary benchmark; Table IV's TeleBERT row is recorded as
// the reference frame, and the acceptance criterion is the online ==
// offline consistency, not the absolute accuracy.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/slo_demo.h"
#include "common/flag_parse.h"
#include "common/table_printer.h"
#include "core/model_zoo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "serve/daemon_kit.h"
#include "serve/engine.h"
#include "stream/pipeline.h"
#include "synth/replay.h"

namespace telekit {
namespace bench {
namespace {

struct LoadgenFlags {
  uint64_t seed = 20230401;
  int episodes = 40;
  double mean_gap = 12.0;
  int workers = 4;
  bool slo_demo = true;
  std::string out = "BENCH_stream.json";
  std::string obs_out = "BENCH_obs.json";
};

struct RunResult {
  std::string name;
  stream::PipelineSummary summary;
  stream::HitStats hits;
  double detect_p50_ms = 0.0;
  double detect_p99_ms = 0.0;
};

/// One pipeline pass over `events`; detection latency is aggregated from
/// the per-verdict measurements so each run reports its own quantiles
/// (the global stream/detect_ms histogram is cumulative across runs).
RunResult RunPipeline(const std::string& name, const core::ModelZoo& zoo,
                      serve::ServeEngine* engine,
                      const std::vector<synth::StreamEvent>& events,
                      const std::vector<std::string>& truth_roots,
                      const stream::PipelineConfig& config,
                      std::vector<stream::EpisodeVerdict>* verdicts_out) {
  RunResult result;
  result.name = name;
  obs::Histogram detect;
  stream::StreamPipeline pipeline(zoo.world(), engine, config);
  result.summary = pipeline.Run(
      events, [&](stream::EpisodeVerdict verdict) {
        result.hits.Accumulate(verdict, truth_roots);
        if (verdict.ok) detect.Observe(verdict.detect_ms);
        if (verdicts_out != nullptr) {
          verdicts_out->push_back(std::move(verdict));
        }
      });
  result.detect_p50_ms = detect.Quantile(0.50);
  result.detect_p99_ms = detect.Quantile(0.99);
  return result;
}

/// End-to-end SLO alert lifecycle on the detection-latency objective.
/// Healthy ticks replay a tiny episode slice through a pipeline with the
/// full worker pool and a warm service-vector cache; degraded ticks replay
/// a 30-episode burst through a starved one (1 worker, cache off), so the
/// episodes' full forwards queue behind each other and stream/detect_ms
/// genuinely inflates. A forward takes 0.05-0.1 ms, about what a healthy
/// episode's cache hits and pipeline overhead cost, so the regression is
/// the queue: up to 16 episodes (48 ops) are in flight at once.
obs::JsonValue RunSloAlertDemo(const core::ModelZoo& zoo,
                               const core::ServiceEncoder& service,
                               const std::vector<std::string>& names,
                               synth::LogGenerator& log_gen,
                               synth::SignalingFlowGenerator& signaling_gen,
                               const LoadgenFlags& flags, bool* passed) {
  // One 3-episode replay slice, reused by every healthy tick (repeat
  // queries keep the healthy engine's cache warm). Degraded ticks replay
  // the burst: on the starved engine every episode's ops queue up behind
  // the episodes in flight, so detection latency inflates with real queue
  // buildup rather than an artificial sleep.
  auto make_slice = [&](int num_episodes, uint64_t salt) {
    synth::ReplayConfig replay;
    replay.num_episodes = num_episodes;
    replay.mean_episode_gap = 0.5;
    Rng rng(flags.seed ^ salt);
    const std::vector<synth::ScheduledEpisode> episodes =
        synth::ScheduleEpisodes(log_gen, signaling_gen, replay, rng);
    return synth::BuildReplayStream(log_gen, signaling_gen, episodes, replay,
                                    rng);
  };
  const std::vector<synth::StreamEvent> events =
      make_slice(3, 0x534c4f44454d4fULL);
  const std::vector<synth::StreamEvent> burst_events =
      make_slice(30, 0x4255525354ULL);

  serve::EngineOptions healthy_options;
  healthy_options.num_workers = std::max(2, flags.workers);
  healthy_options.queue_capacity = 1024;
  serve::ServeEngine healthy_engine(&service, healthy_options);
  serve::EngineOptions degraded_options;
  degraded_options.num_workers = 1;
  degraded_options.queue_capacity = 64;
  degraded_options.enable_cache = false;
  serve::ServeEngine degraded_engine(&service, degraded_options);
  for (serve::TaskOp op :
       {serve::TaskOp::kRca, serve::TaskOp::kEap, serve::TaskOp::kFct}) {
    TELEKIT_CHECK(healthy_engine.LoadCatalog(op, names).ok());
    TELEKIT_CHECK(degraded_engine.LoadCatalog(op, names).ok());
  }
  stream::PipelineConfig healthy_config;
  healthy_config.deterministic = false;
  healthy_config.max_in_flight = 8;
  stream::PipelineConfig degraded_config;
  degraded_config.deterministic = false;
  degraded_config.max_in_flight = 16;
  degraded_config.submit_block_ms = 2000.0;

  auto run_tick = [&](serve::ServeEngine* engine,
                      const stream::PipelineConfig& config,
                      const std::vector<synth::StreamEvent>& tick_events,
                      obs::Histogram* hist) {
    stream::StreamPipeline pipeline(zoo.world(), engine, config);
    pipeline.Run(tick_events, [&](stream::EpisodeVerdict verdict) {
      if (verdict.ok && hist != nullptr) hist->Observe(verdict.detect_ms);
    });
  };

  // The healthy phase paces its ticks 20 ms apart; the degraded phase
  // runs its bursts back to back.
  auto healthy_step = [&](obs::Histogram* hist) {
    run_tick(&healthy_engine, healthy_config, events, hist);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };

  // Probe both regimes, each at the pace of the phase it drives, to place
  // the threshold between them.
  obs::Histogram healthy_hist;
  obs::Histogram degraded_hist;
  for (int i = 0; i < 5; ++i) {  // first pass warms the cache, unmeasured
    healthy_step(i == 0 ? nullptr : &healthy_hist);
  }
  for (int i = 0; i < 3; ++i) {
    run_tick(&degraded_engine, degraded_config, burst_events, &degraded_hist);
  }
  const double healthy_p95 = healthy_hist.Quantile(0.95);
  const double degraded_p50 = degraded_hist.Quantile(0.50);
  double threshold_ms = std::sqrt(healthy_p95 * degraded_p50);
  const bool regimes_separate = degraded_p50 > healthy_p95 * 1.5;
  if (!regimes_separate) threshold_ms = healthy_p95 * 2.0;

  DemoSlo demo("stream/detect_demo", "stream/detect_ms", threshold_ms);
  SloDemoPhases phases;
  phases.healthy_s = demo.slo.config().slow_window_s + 1.0;
  const SloDemoResult lifecycle = RunSloAlertLifecycle(
      demo.store, demo.slo, demo.objective.name,
      [&] { healthy_step(nullptr); },
      [&] {
        run_tick(&degraded_engine, degraded_config, burst_events, nullptr);
      },
      phases);
  demo.store.Stop();
  healthy_engine.Stop();
  degraded_engine.Stop();

  *passed = lifecycle.ok();
  std::cout << "\nstream SLO alert demo (threshold " << threshold_ms
            << " ms, healthy p95 " << healthy_p95 << " ms, degraded p50 "
            << degraded_p50 << " ms)\n  fired: "
            << (lifecycle.fired ? "yes" : "NO") << " (detection lag "
            << lifecycle.detection_lag_s << " s), resolved: "
            << (lifecycle.resolved ? "yes" : "NO") << " (firing interval "
            << lifecycle.firing_interval_s << " s)\n";

  obs::JsonValue section = SloDemoResultToJson(lifecycle);
  section.Set("objective", obs::JsonValue(demo.objective.name));
  section.Set("histogram", obs::JsonValue(demo.objective.histogram));
  section.Set("threshold_ms", obs::JsonValue(threshold_ms));
  section.Set("healthy_p95_ms", obs::JsonValue(healthy_p95));
  section.Set("degraded_p50_ms", obs::JsonValue(degraded_p50));
  section.Set("regimes_separate", obs::JsonValue(regimes_separate));
  demo.AddSettings(&section);
  return section;
}

obs::JsonValue ResultToJson(const RunResult& result) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("name", obs::JsonValue(result.name));
  out.Set("events", obs::JsonValue(result.summary.sessionizer.events));
  out.Set("episodes_flushed",
          obs::JsonValue(result.summary.sessionizer.episodes_flushed));
  out.Set("episodes_analysed",
          obs::JsonValue(result.summary.episodes_analysed));
  out.Set("episodes_shed", obs::JsonValue(result.summary.episodes_shed));
  out.Set("late_drops", obs::JsonValue(result.summary.sessionizer.late_drops));
  out.Set("duplicate_alarms",
          obs::JsonValue(result.summary.sessionizer.duplicate_alarms));
  out.Set("wall_seconds", obs::JsonValue(result.summary.wall_seconds));
  out.Set("episodes_per_sec",
          obs::JsonValue(result.summary.episodes_per_sec));
  out.Set("detect_p50_ms", obs::JsonValue(result.detect_p50_ms));
  out.Set("detect_p99_ms", obs::JsonValue(result.detect_p99_ms));
  out.Set("throttled_submits",
          obs::JsonValue(result.summary.throttled_submits));
  out.Set("throttled_ms", obs::JsonValue(result.summary.throttled_ms));
  out.Set("judged", obs::JsonValue(result.hits.judged));
  out.Set("rca_hit1", obs::JsonValue(result.hits.HitRate1()));
  out.Set("rca_hit3", obs::JsonValue(result.hits.HitRate3()));
  return out;
}

int Main(int argc, char** argv) {
  LoadgenFlags flags;
  FlagSet cli("stream_loadgen");
  cli.Int("seed=N", &flags.seed, 0, std::numeric_limits<int64_t>::max(),
          "world/model/replay seed (default 20230401)");
  cli.Int("episodes=N", &flags.episodes, 1, 1 << 20,
          "fault episodes to replay (default 40)");
  cli.Double("mean-gap=X", &flags.mean_gap, 0.0, 1e6,
             "mean episode inter-arrival gap, sim s (default 12)");
  cli.Int("workers=N", &flags.workers, 1, 1024, "engine workers (default 4)");
  cli.Int("slo-demo=0|1", &flags.slo_demo, 0, 1,
          "run the alert-lifecycle demo (default 1)");
  cli.String("out=PATH", &flags.out,
             "report file (default BENCH_stream.json)");
  cli.String("obs-out=PATH", &flags.obs_out,
             "SLO demo report file (default BENCH_obs.json)");
  ObsSession obs_session(argc, argv, &cli);

  // telekit_streamd's zoo: untrained encoder (same per-episode compute as
  // a trained one), startup in seconds.
  core::ModelZoo zoo(serve::InteractiveZooConfig(flags.seed, 0));
  zoo.BuildData();
  zoo.BuildPretrained();
  core::TeleBertEncoder encoder(&zoo.telebert());
  core::ServiceEncoder service(&encoder, &zoo.tokenizer(), &zoo.store(),
                               &zoo.normalizer());
  std::vector<std::string> names;
  for (const auto& alarm : zoo.world().alarms()) names.push_back(alarm.name);

  synth::LogGenerator log_gen(zoo.world(), synth::LogConfig{});
  synth::SignalingFlowGenerator signaling_gen(zoo.world(),
                                              synth::SignalingConfig{});
  synth::ReplayConfig replay;
  replay.num_episodes = flags.episodes;
  replay.mean_episode_gap = flags.mean_gap;
  Rng replay_rng(flags.seed ^ 0x5741544552ULL);  // streamd's replay stream
  const std::vector<synth::ScheduledEpisode> episodes =
      synth::ScheduleEpisodes(log_gen, signaling_gen, replay, replay_rng);
  const std::vector<synth::StreamEvent> events = synth::BuildReplayStream(
      log_gen, signaling_gen, episodes, replay, replay_rng);
  std::vector<std::string> truth_roots;
  for (const synth::ScheduledEpisode& scheduled : episodes) {
    truth_roots.push_back(
        zoo.world()
            .alarms()[static_cast<size_t>(scheduled.episode.root_alarm)]
            .name);
  }
  std::cout << "stream_loadgen: " << events.size() << " events / "
            << episodes.size() << " episodes, " << flags.workers
            << " workers\n";

  auto make_engine = [&](int workers, size_t queue_capacity) {
    serve::EngineOptions options;
    options.num_workers = workers;
    options.queue_capacity = queue_capacity;
    auto engine = std::make_unique<serve::ServeEngine>(&service, options);
    for (serve::TaskOp op :
         {serve::TaskOp::kRca, serve::TaskOp::kEap, serve::TaskOp::kFct}) {
      TELEKIT_CHECK(engine->LoadCatalog(op, names).ok());
    }
    return engine;
  };

  std::vector<RunResult> results;

  // Run 1: deterministic replay + online-vs-offline consistency.
  std::vector<stream::EpisodeVerdict> sync_verdicts;
  auto sync_engine = make_engine(flags.workers, 1024);
  stream::PipelineConfig sync_config;
  sync_config.deterministic = true;
  results.push_back(RunPipeline("sync_replay", zoo, sync_engine.get(), events,
                                truth_roots, sync_config, &sync_verdicts));
  // The offline evaluator scores the same episode texts through the same
  // synchronous path; its hit rates must agree exactly with the online run.
  stream::HitStats offline;
  for (stream::EpisodeVerdict verdict : sync_verdicts) {
    serve::Request request;
    request.op = serve::TaskOp::kRca;
    request.text = verdict.query;
    request.top_k = sync_config.top_k;
    verdict.rca = sync_engine->Process(request);
    TELEKIT_CHECK(verdict.rca.status.ok());
    offline.Accumulate(verdict, truth_roots);
  }
  sync_engine->Stop();
  const bool online_matches_offline =
      offline.judged == results[0].hits.judged &&
      offline.hit1 == results[0].hits.hit1 &&
      offline.hit3 == results[0].hits.hit3;

  // Run 2: async worker-pool throughput on the same stream.
  auto async_engine = make_engine(flags.workers, 1024);
  stream::PipelineConfig async_config;
  async_config.deterministic = false;
  results.push_back(RunPipeline("async_replay", zoo, async_engine.get(),
                                events, truth_roots, async_config, nullptr));
  async_engine->Stop();

  // Run 3: starved engine — backpressure must throttle, accounting must
  // stay exact, memory stays bounded by max_in_flight + queue capacity.
  auto starved_engine = make_engine(/*workers=*/1, /*queue_capacity=*/4);
  stream::PipelineConfig starved_config;
  starved_config.deterministic = false;
  starved_config.max_in_flight = 4;
  starved_config.submit_block_ms = 2000.0;
  results.push_back(RunPipeline("saturated", zoo, starved_engine.get(),
                                events, truth_roots, starved_config,
                                nullptr));
  starved_engine->Stop();

  TablePrinter table("Streaming pipeline (episodes/sec)");
  table.SetHeader({"configuration", "episodes/s", "p50 ms", "p99 ms",
                   "hit@1", "hit@3", "throttled", "shed"});
  for (const RunResult& result : results) {
    table.AddRow(result.name,
                 {result.summary.episodes_per_sec, result.detect_p50_ms,
                  result.detect_p99_ms, result.hits.HitRate1(),
                  result.hits.HitRate3(),
                  static_cast<double>(result.summary.throttled_submits),
                  static_cast<double>(result.summary.episodes_shed)},
                 2);
  }
  table.Print(std::cout);
  std::cout << "\nonline == offline RCA verdicts: "
            << (online_matches_offline ? "yes" : "NO (acceptance failure)")
            << "\n";

  const RunResult& saturated = results[2];
  const bool conservation =
      saturated.summary.episodes_analysed + saturated.summary.episodes_shed ==
      saturated.summary.sessionizer.episodes_flushed;
  const bool backpressure_observed = saturated.summary.throttled_submits > 0 ||
                                     saturated.summary.episodes_shed > 0;
  std::cout << "saturated run accounting exact: "
            << (conservation ? "yes" : "NO") << ", backpressure observed: "
            << (backpressure_observed ? "yes" : "no") << "\n";

  obs::JsonValue report = obs::JsonValue::Object();
  report.Set("benchmark", obs::JsonValue("stream_loadgen"));
  obs::JsonValue cfg = obs::JsonValue::Object();
  cfg.Set("seed", obs::JsonValue(static_cast<int64_t>(flags.seed)));
  cfg.Set("episodes", obs::JsonValue(flags.episodes));
  cfg.Set("events", obs::JsonValue(static_cast<uint64_t>(events.size())));
  cfg.Set("mean_episode_gap", obs::JsonValue(flags.mean_gap));
  cfg.Set("workers", obs::JsonValue(flags.workers));
  cfg.Set("compute_threads", obs::JsonValue(tensor::ComputeThreads()));
  report.Set("config", std::move(cfg));
  obs::JsonValue runs = obs::JsonValue::Array();
  for (const RunResult& result : results) runs.Append(ResultToJson(result));
  report.Set("runs", std::move(runs));
  obs::JsonValue offline_json = obs::JsonValue::Object();
  offline_json.Set("judged", obs::JsonValue(offline.judged));
  offline_json.Set("rca_hit1", obs::JsonValue(offline.HitRate1()));
  offline_json.Set("rca_hit3", obs::JsonValue(offline.HitRate3()));
  offline_json.Set("matches_online", obs::JsonValue(online_matches_offline));
  report.Set("offline_reference", std::move(offline_json));
  // Table IV frame of reference (proprietary benchmark; hit rates in %).
  obs::JsonValue paper = obs::JsonValue::Object();
  paper.Set("table", obs::JsonValue("IV"));
  paper.Set("model", obs::JsonValue("TeleBERT"));
  const std::vector<double> row =
      PaperReference::RcaTable().at(core::ModelKind::kTeleBert);
  paper.Set("mr", obs::JsonValue(row[0]));
  paper.Set("hits1", obs::JsonValue(row[1]));
  paper.Set("hits3", obs::JsonValue(row[2]));
  paper.Set("hits5", obs::JsonValue(row[3]));
  report.Set("paper_reference", std::move(paper));
  std::ofstream out(flags.out);
  out << report.Dump(2) << "\n";
  std::cout << "wrote " << flags.out << "\n";

  bool demo_passed = true;
  if (flags.slo_demo) {
    demo_passed = false;
    obs::JsonValue demo = RunSloAlertDemo(zoo, service, names, log_gen,
                                          signaling_gen, flags, &demo_passed);
    if (MergeObsReport(flags.obs_out, "stream_alert_demo", std::move(demo))) {
      std::cout << "wrote " << flags.obs_out << "\n";
    } else {
      std::cout << "FAILED to write " << flags.obs_out << "\n";
      demo_passed = false;
    }
  }
  return online_matches_offline && conservation && demo_passed ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace telekit

int main(int argc, char** argv) { return telekit::bench::Main(argc, argv); }
