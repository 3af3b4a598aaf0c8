#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/model_zoo.h"
#include "serve/engine.h"
#include "serve/work_queue.h"
#include "stream/pipeline.h"
#include "stream/sessionizer.h"
#include "synth/replay.h"
#include "synth/world.h"

namespace telekit {
namespace stream {
namespace {

// ---------------------------------------------------------------------------
// Sessionizer windowing edge cases (pure event-time logic, no model)
// ---------------------------------------------------------------------------

const synth::WorldModel& TestWorld() {
  static const synth::WorldModel* const kWorld =
      new synth::WorldModel(synth::WorldConfig{});
  return *kWorld;
}

synth::StreamEvent AlarmAt(double time, int alarm_type, int element,
                           int episode_id = -1) {
  synth::StreamEvent event;
  event.kind = synth::StreamEvent::Kind::kAlarm;
  event.time = time;
  event.arrival = time;
  event.episode_id = episode_id;
  event.alarm.alarm_type = alarm_type;
  event.alarm.element = element;
  event.alarm.time = time;
  return event;
}

synth::StreamEvent KpiAt(double time, int kpi_type, int element, float value) {
  synth::StreamEvent event;
  event.kind = synth::StreamEvent::Kind::kKpi;
  event.time = time;
  event.arrival = time;
  event.kpi.kpi_type = kpi_type;
  event.kpi.element = element;
  event.kpi.time = time;
  event.kpi.value = value;
  return event;
}

/// An element with no topology edge to `element` (alarms on the two must
/// not share a window).
int NonAdjacentElement(const synth::WorldModel& world, int element) {
  const std::vector<int> neighbors = world.TopologyNeighbors(element);
  const int n = static_cast<int>(world.elements().size());
  for (int candidate = 0; candidate < n; ++candidate) {
    if (candidate == element) continue;
    bool adjacent = false;
    for (int neighbor : neighbors) adjacent |= neighbor == candidate;
    if (!adjacent) return candidate;
  }
  ADD_FAILURE() << "world topology is complete; no non-adjacent element";
  return element;
}

TEST(SessionizerTest, EmptyFlushIsANoOp) {
  Sessionizer sessionizer(TestWorld(), WindowConfig{});
  std::vector<EpisodeCandidate> flushed;
  sessionizer.FlushAll(&flushed);
  EXPECT_TRUE(flushed.empty());
  EXPECT_EQ(sessionizer.stats().events, 0u);
  EXPECT_EQ(sessionizer.stats().episodes_flushed, 0u);
  EXPECT_EQ(sessionizer.stats().open_windows, 0u);
}

TEST(SessionizerTest, DuplicateAlarmOnOneElementJoinsOnce) {
  Sessionizer sessionizer(TestWorld(), WindowConfig{});
  std::vector<EpisodeCandidate> flushed;
  sessionizer.Offer(AlarmAt(0.0, /*alarm_type=*/3, /*element=*/5, 0),
                    &flushed);
  sessionizer.Offer(AlarmAt(1.0, 3, 5, 0), &flushed);  // same type+element
  EXPECT_EQ(sessionizer.stats().duplicate_alarms, 1u);
  sessionizer.FlushAll(&flushed);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].alarms.size(), 1u);  // deduplicated
  EXPECT_EQ(flushed[0].truth_episode, 0);
}

TEST(SessionizerTest, EventBehindWatermarkIsDroppedNotJoined) {
  Sessionizer sessionizer(TestWorld(), WindowConfig{});
  std::vector<EpisodeCandidate> flushed;
  sessionizer.Offer(AlarmAt(0.0, 1, 0), &flushed);
  // Jump the event time far ahead: watermark = 100 - watermark_delay.
  sessionizer.Offer(AlarmAt(100.0, 2, 1), &flushed);
  EXPECT_EQ(flushed.size(), 1u);  // first window flushed by the watermark
  const uint64_t flushed_before = sessionizer.stats().episodes_flushed;
  // An hour-old alarm must be counted late and dropped — joining it to the
  // (already flushed, or any) window would be a wrong correlation.
  sessionizer.Offer(AlarmAt(10.0, 1, 0), &flushed);
  EXPECT_EQ(sessionizer.stats().late_drops, 1u);
  EXPECT_EQ(sessionizer.stats().episodes_flushed, flushed_before);
  sessionizer.FlushAll(&flushed);
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[1].alarms.size(), 1u);  // late alarm not joined
}

TEST(SessionizerTest, BoundedOutOfOrderEventStillJoins) {
  WindowConfig config;
  config.watermark_delay = 2.0;
  Sessionizer sessionizer(TestWorld(), config);
  std::vector<EpisodeCandidate> flushed;
  sessionizer.Offer(AlarmAt(5.0, 1, 0), &flushed);
  // 1.5 s behind the newest time but inside the watermark tolerance.
  synth::StreamEvent late = AlarmAt(3.5, 2, 0);
  late.arrival = 5.1;
  sessionizer.Offer(late, &flushed);
  EXPECT_EQ(sessionizer.stats().late_drops, 0u);
  sessionizer.FlushAll(&flushed);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].alarms.size(), 2u);
}

TEST(SessionizerTest, OverlappingEpisodesOnDisjointTopologySplitWindows) {
  const synth::WorldModel& world = TestWorld();
  const int far = NonAdjacentElement(world, 0);
  Sessionizer sessionizer(world, WindowConfig{});
  std::vector<EpisodeCandidate> flushed;
  // Two episodes interleaved in time on topologically-unrelated elements:
  // correlation must partition by propagation locality, not by time alone.
  sessionizer.Offer(AlarmAt(0.0, 1, 0, /*episode_id=*/0), &flushed);
  sessionizer.Offer(AlarmAt(0.5, 2, far, /*episode_id=*/1), &flushed);
  sessionizer.Offer(AlarmAt(1.0, 3, 0, /*episode_id=*/0), &flushed);
  sessionizer.Offer(AlarmAt(1.5, 4, far, /*episode_id=*/1), &flushed);
  sessionizer.FlushAll(&flushed);
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].truth_episode, 0);
  EXPECT_EQ(flushed[0].alarms.size(), 2u);
  EXPECT_EQ(flushed[1].truth_episode, 1);
  EXPECT_EQ(flushed[1].alarms.size(), 2u);
  for (const EpisodeCandidate& candidate : flushed) {
    EXPECT_EQ(candidate.truth_votes, candidate.total_votes);
  }
}

TEST(SessionizerTest, IdleWindowFlushesBeforeSpanExhausts) {
  WindowConfig config;
  config.window_span = 100.0;
  config.idle_gap = 2.0;
  config.watermark_delay = 1.0;
  Sessionizer sessionizer(TestWorld(), config);
  std::vector<EpisodeCandidate> flushed;
  sessionizer.Offer(AlarmAt(0.0, 1, 0), &flushed);
  // Background KPI far later advances the watermark past the idle bound.
  sessionizer.Offer(KpiAt(10.0, 0, 1, /*value=*/0.0f), &flushed);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].alarms.size(), 1u);
}

TEST(SessionizerTest, ExcursionJoinsExactElementOnly) {
  const synth::WorldModel& world = TestWorld();
  const synth::KpiType& kpi = world.kpis()[0];
  const float excursion =
      kpi.baseline + (kpi.increases_on_fault ? 1.0f : -1.0f) * kpi.scale;
  Sessionizer sessionizer(world, WindowConfig{});
  EXPECT_TRUE(sessionizer.IsExcursion(0, excursion));
  EXPECT_FALSE(sessionizer.IsExcursion(0, kpi.baseline));
  std::vector<EpisodeCandidate> flushed;
  sessionizer.Offer(AlarmAt(0.0, 1, 0), &flushed);
  sessionizer.Offer(KpiAt(0.5, 0, 0, excursion), &flushed);  // same element
  const int far = NonAdjacentElement(world, 0);
  sessionizer.Offer(KpiAt(0.6, 0, far, excursion), &flushed);  // orphan
  sessionizer.Offer(KpiAt(0.7, 0, 0, kpi.baseline), &flushed);  // background
  EXPECT_EQ(sessionizer.stats().orphan_symptoms, 1u);
  EXPECT_EQ(sessionizer.stats().background_events, 1u);
  sessionizer.FlushAll(&flushed);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].excursions.size(), 1u);
}

TEST(SessionizerTest, WindowOccupancyIsBounded) {
  WindowConfig config;
  config.max_window_events = 4;
  Sessionizer sessionizer(TestWorld(), config);
  std::vector<EpisodeCandidate> flushed;
  for (int i = 0; i < 10; ++i) {
    sessionizer.Offer(AlarmAt(0.1 * i, /*alarm_type=*/i, /*element=*/0),
                      &flushed);
  }
  EXPECT_EQ(sessionizer.stats().overflow_drops, 6u);
  EXPECT_LE(sessionizer.stats().window_occupancy, 4u);
  sessionizer.FlushAll(&flushed);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].alarms.size(), 4u);
}

// ---------------------------------------------------------------------------
// Replay stream generation
// ---------------------------------------------------------------------------

TEST(ReplayTest, DeterministicForSeedAndArrivalOrdered) {
  const synth::WorldModel& world = TestWorld();
  synth::LogGenerator log_gen(world, synth::LogConfig{});
  synth::SignalingFlowGenerator signaling_gen(world,
                                              synth::SignalingConfig{});
  synth::ReplayConfig config;
  config.num_episodes = 6;
  auto build = [&] {
    Rng rng(42);
    const auto episodes =
        synth::ScheduleEpisodes(log_gen, signaling_gen, config, rng);
    return synth::BuildReplayStream(log_gen, signaling_gen, episodes, config,
                                    rng);
  };
  const std::vector<synth::StreamEvent> a = build();
  const std::vector<synth::StreamEvent> b = build();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].time, b[i].time) << i;
    EXPECT_EQ(a[i].arrival, b[i].arrival) << i;
    EXPECT_EQ(a[i].episode_id, b[i].episode_id) << i;
  }
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].arrival, a[i].arrival) << i;
  }
  for (const synth::StreamEvent& event : a) {
    EXPECT_GE(event.arrival, event.time);
    EXPECT_LE(event.arrival - event.time, config.jitter + 1e-9);
  }
}

TEST(ReplayTest, SimClockPacesOnlyWhenFinite) {
  synth::SimClock unpaced(synth::SimClock::kInfiniteSpeedup);
  EXPECT_FALSE(unpaced.paced());
  const auto start = std::chrono::steady_clock::now();
  unpaced.SleepUntil(1e6);  // must not sleep
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            0.5);
  // 1 simulated second at 100x ~= 10 ms of wall clock.
  synth::SimClock paced(100.0);
  EXPECT_TRUE(paced.paced());
  const auto paced_start = std::chrono::steady_clock::now();
  paced.SleepUntil(1.0);
  EXPECT_GE(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          paced_start)
                .count(),
            0.005);
}

// ---------------------------------------------------------------------------
// WorkQueue::PushBlocking (the backpressure primitive)
// ---------------------------------------------------------------------------

TEST(PushBlockingTest, TimesOutOnFullQueue) {
  serve::WorkQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1));
  int item = 2;
  EXPECT_FALSE(queue.PushBlocking(std::move(item), /*max_block_us=*/2000));
  EXPECT_EQ(queue.size(), 1u);
}

TEST(PushBlockingTest, UnblocksWhenConsumerMakesRoom) {
  serve::WorkQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    pushed.store(queue.PushBlocking(2, /*max_block_us=*/2'000'000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still blocked on the full queue
  EXPECT_EQ(queue.Pop(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.size(), 1u);
}

TEST(PushBlockingTest, FailsFastWhenClosed) {
  serve::WorkQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1));
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.Close();
  });
  // Blocked producer must be released by Close (with failure), not ride
  // out the full wait.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.PushBlocking(2, /*max_block_us=*/5'000'000));
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            2.0);
  closer.join();
}

// ---------------------------------------------------------------------------
// End-to-end pipeline over a tiny zoo (shared, built once)
// ---------------------------------------------------------------------------

core::ZooConfig TinyStreamConfig() {
  core::ZooConfig config;
  config.seed = 777;
  config.world.num_alarm_types = 16;
  config.world.num_kpi_types = 8;
  config.world.num_network_elements = 12;
  config.corpus.num_tele_sentences = 400;
  config.corpus.num_general_sentences = 400;
  config.num_episodes = 10;
  config.max_machine_logs = 60;
  config.max_triple_sentences = 40;
  config.max_ke_triples = 30;
  config.encoder.d_model = 32;
  config.encoder.num_heads = 2;
  config.encoder.num_layers = 2;
  config.encoder.ffn_dim = 64;
  config.pretrain.steps = 8;
  config.pretrain.batch_size = 4;
  config.retrain.total_steps = 8;
  config.retrain.batch_size = 4;
  config.retrain.ke_batch_size = 2;
  config.anenc.num_layers = 1;
  config.anenc.num_meta = 4;
  config.anenc.ffn_dim = 32;
  config.cache_dir = "";
  return config;
}

const core::ModelZoo& SharedZoo() {
  static core::ModelZoo* zoo = [] {
    auto* z = new core::ModelZoo(TinyStreamConfig());
    z->Build();
    return z;
  }();
  return *zoo;
}

std::vector<std::string> AlarmNames(const core::ModelZoo& zoo) {
  std::vector<std::string> names;
  for (const auto& alarm : zoo.world().alarms()) names.push_back(alarm.name);
  return names;
}

std::vector<synth::StreamEvent> TinyReplay(const core::ModelZoo& zoo,
                                           int num_episodes, uint64_t seed) {
  synth::LogGenerator log_gen(zoo.world(), synth::LogConfig{});
  synth::SignalingFlowGenerator signaling_gen(zoo.world(),
                                              synth::SignalingConfig{});
  synth::ReplayConfig config;
  config.num_episodes = num_episodes;
  config.background_readings = 32;
  config.background_procedures = 2;
  Rng rng(seed);
  const auto episodes =
      synth::ScheduleEpisodes(log_gen, signaling_gen, config, rng);
  return synth::BuildReplayStream(log_gen, signaling_gen, episodes, config,
                                  rng);
}

/// The replay contract: fixed seed + unpaced replay -> two runs produce
/// identical episode partitions and bit-identical RCA/EAP/FCT verdicts.
TEST(StreamPipelineTest, DeterministicReplayContract) {
  const core::ModelZoo& zoo = SharedZoo();
  const std::vector<synth::StreamEvent> events = TinyReplay(zoo, 5, 1234);
  auto run = [&] {
    core::ServiceEncoder service =
        zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
    serve::EngineOptions options;
    options.num_workers = 2;
    serve::ServeEngine engine(&service, options);
    const std::vector<std::string> names = AlarmNames(zoo);
    for (serve::TaskOp op : {serve::TaskOp::kRca, serve::TaskOp::kEap,
                             serve::TaskOp::kFct}) {
      EXPECT_TRUE(engine.LoadCatalog(op, names).ok());
    }
    PipelineConfig config;
    config.deterministic = true;
    std::vector<EpisodeVerdict> verdicts;
    StreamPipeline pipeline(zoo.world(), &engine, config);
    pipeline.Run(events, [&verdicts](EpisodeVerdict verdict) {
      verdicts.push_back(std::move(verdict));
    });
    engine.Stop();
    return verdicts;
  };
  const std::vector<EpisodeVerdict> a = run();
  const std::vector<EpisodeVerdict> b = run();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    // Identical partitions...
    EXPECT_EQ(a[i].query, b[i].query) << i;
    EXPECT_EQ(a[i].candidate.alarms.size(), b[i].candidate.alarms.size());
    EXPECT_EQ(a[i].candidate.truth_episode, b[i].candidate.truth_episode);
    ASSERT_TRUE(a[i].ok);
    ASSERT_TRUE(b[i].ok);
    // ...and bit-identical verdicts (the sync Process path rides the
    // deterministic compute contract: no batching, fixed reduction order).
    auto expect_same = [&](const serve::Response& x,
                           const serve::Response& y) {
      ASSERT_EQ(x.results.size(), y.results.size());
      for (size_t k = 0; k < x.results.size(); ++k) {
        EXPECT_EQ(x.results[k].name, y.results[k].name);
        EXPECT_EQ(x.results[k].score, y.results[k].score);
      }
    };
    expect_same(a[i].rca, b[i].rca);
    expect_same(a[i].eap, b[i].eap);
    expect_same(a[i].fct, b[i].fct);
  }
}

/// Online verdicts must match the offline evaluator: scoring the same
/// query text through the synchronous engine path yields the same ranking.
TEST(StreamPipelineTest, OnlineVerdictsMatchOfflineProcess) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  serve::ServeEngine engine(&service, serve::EngineOptions{});
  const std::vector<std::string> names = AlarmNames(zoo);
  for (serve::TaskOp op :
       {serve::TaskOp::kRca, serve::TaskOp::kEap, serve::TaskOp::kFct}) {
    ASSERT_TRUE(engine.LoadCatalog(op, names).ok());
  }
  PipelineConfig config;
  config.deterministic = true;
  std::vector<EpisodeVerdict> verdicts;
  StreamPipeline pipeline(zoo.world(), &engine, config);
  pipeline.Run(TinyReplay(zoo, 4, 99),
               [&verdicts](EpisodeVerdict verdict) {
                 verdicts.push_back(std::move(verdict));
               });
  ASSERT_FALSE(verdicts.empty());
  for (const EpisodeVerdict& verdict : verdicts) {
    serve::Request request;
    request.op = serve::TaskOp::kRca;
    request.text = verdict.query;
    request.top_k = config.top_k;
    const serve::Response offline = engine.Process(request);
    ASSERT_TRUE(offline.status.ok());
    ASSERT_EQ(offline.results.size(), verdict.rca.results.size());
    for (size_t k = 0; k < offline.results.size(); ++k) {
      EXPECT_EQ(offline.results[k].name, verdict.rca.results[k].name);
      EXPECT_EQ(offline.results[k].score, verdict.rca.results[k].score);
    }
  }
  engine.Stop();
}

/// Saturation run: a deliberately tiny engine queue plus a small in-flight
/// bound must throttle (or shed) rather than grow state — and every
/// flushed episode is accounted exactly once.
TEST(StreamPipelineTest, AsyncBackpressureBoundsInFlightState) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  serve::EngineOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  serve::ServeEngine engine(&service, options);
  const std::vector<std::string> names = AlarmNames(zoo);
  for (serve::TaskOp op :
       {serve::TaskOp::kRca, serve::TaskOp::kEap, serve::TaskOp::kFct}) {
    ASSERT_TRUE(engine.LoadCatalog(op, names).ok());
  }
  PipelineConfig config;
  config.deterministic = false;
  config.max_in_flight = 2;
  config.submit_block_ms = 500.0;
  std::vector<EpisodeVerdict> verdicts;
  StreamPipeline pipeline(zoo.world(), &engine, config);
  const PipelineSummary summary = pipeline.Run(
      TinyReplay(zoo, 8, 2024), [&verdicts](EpisodeVerdict verdict) {
        verdicts.push_back(std::move(verdict));
      });
  engine.Stop();
  // Conservation: every flushed episode was either analysed or shed, and
  // the sink saw each exactly once.
  EXPECT_EQ(summary.episodes_analysed + summary.episodes_shed,
            summary.sessionizer.episodes_flushed);
  EXPECT_EQ(verdicts.size(), summary.sessionizer.episodes_flushed);
  EXPECT_GT(summary.sessionizer.episodes_flushed, 0u);
  uint64_t ok = 0;
  for (const EpisodeVerdict& verdict : verdicts) ok += verdict.ok ? 1 : 0;
  EXPECT_EQ(ok, summary.episodes_analysed);
}

/// The async path gives the sync path's verdicts bit for bit: a worker runs
/// Process's per-request code (DESIGN.md §9), so the same replay with
/// bounds that never shed scores every episode identically.
TEST(StreamPipelineTest, AsyncVerdictsMatchSyncBitForBit) {
  const core::ModelZoo& zoo = SharedZoo();
  const std::vector<synth::StreamEvent> events = TinyReplay(zoo, 6, 4321);
  auto run = [&](bool deterministic, PipelineSummary* summary) {
    core::ServiceEncoder service =
        zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
    serve::EngineOptions options;
    options.num_workers = 2;
    options.queue_capacity = 4096;
    serve::ServeEngine engine(&service, options);
    const std::vector<std::string> names = AlarmNames(zoo);
    for (serve::TaskOp op : {serve::TaskOp::kRca, serve::TaskOp::kEap,
                             serve::TaskOp::kFct}) {
      EXPECT_TRUE(engine.LoadCatalog(op, names).ok());
    }
    PipelineConfig config;
    config.deterministic = deterministic;
    config.max_in_flight = 4096;
    config.submit_block_ms = 60'000.0;
    std::vector<EpisodeVerdict> verdicts;
    StreamPipeline pipeline(zoo.world(), &engine, config);
    *summary = pipeline.Run(events, [&verdicts](EpisodeVerdict verdict) {
      verdicts.push_back(std::move(verdict));
    });
    engine.Stop();
    return verdicts;
  };
  PipelineSummary sync_summary, async_summary;
  const std::vector<EpisodeVerdict> sync = run(true, &sync_summary);
  const std::vector<EpisodeVerdict> async = run(false, &async_summary);
  EXPECT_EQ(async_summary.episodes_shed, 0u);
  ASSERT_EQ(async.size(), sync.size());
  ASSERT_FALSE(sync.empty());
  for (size_t i = 0; i < sync.size(); ++i) {
    EXPECT_EQ(async[i].query, sync[i].query) << i;
    ASSERT_TRUE(sync[i].ok) << i;
    ASSERT_TRUE(async[i].ok) << i;
    for (const auto& [x, y] :
         {std::pair{&async[i].rca, &sync[i].rca},
          std::pair{&async[i].eap, &sync[i].eap},
          std::pair{&async[i].fct, &sync[i].fct}}) {
      ASSERT_EQ(x->results.size(), y->results.size()) << i;
      for (size_t k = 0; k < x->results.size(); ++k) {
        EXPECT_EQ(x->results[k].name, y->results[k].name) << i << "/" << k;
        EXPECT_EQ(x->results[k].score, y->results[k].score) << i << "/" << k;
      }
    }
  }
}

TEST(StreamPipelineTest, QueryTextLeadsWithRootAlarm) {
  const core::ModelZoo& zoo = SharedZoo();
  Sessionizer sessionizer(zoo.world(), WindowConfig{});
  std::vector<EpisodeCandidate> flushed;
  sessionizer.Offer(AlarmAt(0.0, 2, 0, 0), &flushed);
  sessionizer.FlushAll(&flushed);
  ASSERT_EQ(flushed.size(), 1u);
  const std::string query = EpisodeQueryText(zoo.world(), flushed[0]);
  EXPECT_EQ(query.rfind(zoo.world().alarms()[2].name, 0), 0u)
      << "query does not lead with the root alarm surface: " << query;
}

}  // namespace
}  // namespace stream
}  // namespace telekit
