// Tests for the observability additions of ISSUE 6: the time-series
// store's ring buffers and counter-delta math, the SLO engine's burn-rate
// boundaries and alert state machine (driven with synthetic SampleNow
// ticks, no wall clock), the wide-event request log and its NDJSON
// round-trip, the exemplar store, and a sampler-vs-writer concurrency
// test that the TSan gate exercises.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace telekit {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// TimeSeriesStore

TEST(TimeSeriesStoreTest, SweepCapturesCountersGaugesAndQuantiles) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.GetCounter("tst/sweep_requests").Increment(7);
  registry.GetGauge("tst/sweep_depth").Set(3.5);
  Histogram& latency = registry.GetHistogram("tst/sweep_ms");
  for (int i = 0; i < 100; ++i) latency.Observe(10.0);

  TimeSeriesStore store;
  store.SampleNow(1.0);

  const auto counter = store.SeriesSamples("tst/sweep_requests");
  ASSERT_EQ(counter.size(), 1u);
  EXPECT_DOUBLE_EQ(counter[0].t_s, 1.0);
  EXPECT_DOUBLE_EQ(counter[0].value, 7.0);

  const auto gauge = store.SeriesSamples("tst/sweep_depth");
  ASSERT_EQ(gauge.size(), 1u);
  EXPECT_DOUBLE_EQ(gauge[0].value, 3.5);

  const auto p50 = store.SeriesSamples("tst/sweep_ms/p50");
  ASSERT_EQ(p50.size(), 1u);
  EXPECT_NEAR(p50[0].value, 10.0, 10.0 * 0.05);  // bucket resolution
  const auto count = store.SeriesSamples("tst/sweep_ms/count");
  ASSERT_EQ(count.size(), 1u);
  EXPECT_DOUBLE_EQ(count[0].value, 100.0);
  EXPECT_EQ(store.samples_taken(), 1u);
}

TEST(TimeSeriesStoreTest, RingWraparoundKeepsNewestChronological) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Counter& counter = registry.GetCounter("tst/wrap_requests");

  TimeSeriesOptions options;
  options.capacity = 3;
  TimeSeriesStore store(options);
  for (int tick = 1; tick <= 5; ++tick) {
    counter.Increment(static_cast<uint64_t>(tick));
    store.SampleNow(static_cast<double>(tick));
  }
  // Cumulative values were 1, 3, 6, 10, 15; only the newest three survive,
  // oldest-first.
  const auto samples = store.SeriesSamples("tst/wrap_requests");
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples[0].t_s, 3.0);
  EXPECT_DOUBLE_EQ(samples[0].value, 6.0);
  EXPECT_DOUBLE_EQ(samples[1].t_s, 4.0);
  EXPECT_DOUBLE_EQ(samples[1].value, 10.0);
  EXPECT_DOUBLE_EQ(samples[2].t_s, 5.0);
  EXPECT_DOUBLE_EQ(samples[2].value, 15.0);
}

TEST(TimeSeriesStoreTest, CounterDeltaClampsResetsAtZero) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Counter& counter = registry.GetCounter("tst/reset_requests");

  TimeSeriesStore store;
  counter.Increment(5);
  store.SampleNow(1.0);  // 5
  counter.Increment(7);
  store.SampleNow(2.0);  // 12
  registry.Reset();      // counter restarts (process restart / Reset())
  counter.Increment(2);
  store.SampleNow(3.0);  // 2: raw delta -10 must clamp to 0
  counter.Increment(2);
  store.SampleNow(4.0);  // 4
  // (5->12) + clamp(12->2) + (2->4) = 7 + 0 + 2.
  EXPECT_DOUBLE_EQ(store.CounterDelta("tst/reset_requests", 10.0, 4.0), 9.0);
}

TEST(TimeSeriesStoreTest, CounterDeltaEmptyAndSingleSampleWindows) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Counter& counter = registry.GetCounter("tst/delta_requests");

  TimeSeriesStore store;
  EXPECT_DOUBLE_EQ(store.CounterDelta("tst/delta_requests", 60.0, 100.0),
                   0.0);  // no samples at all
  EXPECT_DOUBLE_EQ(store.CounterDelta("tst/never_sampled", 60.0, 100.0),
                   0.0);  // unknown series
  counter.Increment(5);
  store.SampleNow(1.0);
  EXPECT_DOUBLE_EQ(store.CounterDelta("tst/delta_requests", 60.0, 1.0),
                   0.0);  // a single sample has no delta
  counter.Increment(5);
  store.SampleNow(2.0);
  // Window entirely after the samples -> empty.
  EXPECT_DOUBLE_EQ(store.CounterDelta("tst/delta_requests", 5.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(store.CounterDelta("tst/delta_requests", 10.0, 2.0), 5.0);
}

TEST(TimeSeriesStoreTest, ThresholdSeriesCountsAtOrBelow) {
  EXPECT_EQ(TimeSeriesStore::ThresholdSeriesName("serve/request_ms", 25.0),
            "serve/request_ms/le_25");
  EXPECT_EQ(TimeSeriesStore::ThresholdSeriesName("x/ms", 2.5), "x/ms/le_2.5");

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Histogram& latency = registry.GetHistogram("tst/thr_ms");
  TimeSeriesStore store;
  store.TrackLatencyThreshold("tst/thr_ms", 25.0);
  latency.Observe(10.0);   // at or below 25
  latency.Observe(100.0);  // above
  store.SampleNow(1.0);
  const auto good = store.SeriesSamples("tst/thr_ms/le_25");
  ASSERT_EQ(good.size(), 1u);
  EXPECT_DOUBLE_EQ(good[0].value, 1.0);
}

TEST(TimeSeriesStoreTest, BackgroundSamplerTicksAndStops) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  TimeSeriesOptions options;
  options.interval_s = 0.005;
  TimeSeriesStore store(options);
  std::atomic<int> callbacks{0};
  store.SetOnSample([&](double) { callbacks.fetch_add(1); });
  EXPECT_FALSE(store.running());
  store.Start();
  EXPECT_TRUE(store.running());
  for (int i = 0; i < 400 && store.samples_taken() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  store.Stop();
  EXPECT_FALSE(store.running());
  EXPECT_GE(store.samples_taken(), 2u);
  EXPECT_GE(callbacks.load(), 2);
  const uint64_t after_stop = store.samples_taken();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(store.samples_taken(), after_stop);
}

TEST(TimeSeriesStoreTest, QueryJsonWindowStepAndPrefix) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Counter& counter = registry.GetCounter("tst/q_requests");
  registry.GetGauge("other/q_depth").Set(1.0);
  TimeSeriesStore store;
  for (int tick = 1; tick <= 10; ++tick) {
    counter.Increment(2);
    store.SampleNow(static_cast<double>(tick));
  }

  // Prefix filter keeps only matching series.
  const JsonValue only = store.QueryJson(100.0, 0.0, "tst/");
  const JsonValue* series = only.Find("series");
  ASSERT_NE(series, nullptr);
  EXPECT_NE(series->Find("tst/q_requests"), nullptr);
  EXPECT_EQ(series->Find("other/q_depth"), nullptr);

  // Counters carry derived rates; rate values are clamped deltas per
  // second (2 per 1 s tick).
  const JsonValue* entry = series->Find("tst/q_requests");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->Find("kind")->AsString(), "counter");
  const JsonValue* rates = entry->Find("rate_per_s");
  ASSERT_NE(rates, nullptr);
  ASSERT_GT(rates->size(), 0u);
  EXPECT_NEAR(rates->at(rates->size() - 1).at(1).AsNumber(), 2.0, 1e-9);

  // Gauges have no rate series.
  const JsonValue all = store.QueryJson(100.0, 0.0, "");
  EXPECT_EQ(all.Find("series")->Find("other/q_depth")->Find("rate_per_s"),
            nullptr);

  // A short window drops old samples; a step >= 2 s halves the density.
  const JsonValue windowed = store.QueryJson(3.0, 0.0, "tst/");
  const JsonValue* wsamples =
      windowed.Find("series")->Find("tst/q_requests")->Find("samples");
  ASSERT_NE(wsamples, nullptr);
  EXPECT_LE(wsamples->size(), 4u);
  const JsonValue stepped = store.QueryJson(100.0, 2.0, "tst/");
  const JsonValue* ssamples =
      stepped.Find("series")->Find("tst/q_requests")->Find("samples");
  ASSERT_NE(ssamples, nullptr);
  EXPECT_LE(ssamples->size(), 6u);
}

TEST(TimeSeriesStoreTest, HandleQueryValidatesParameters) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  TimeSeriesStore store;
  store.SampleNow(1.0);

  HttpRequest request;
  request.method = "GET";
  request.path = "/timeseriesz";
  request.query = "window=60&step=5";
  EXPECT_EQ(store.HandleQuery(request).status, 200);
  request.query = "window=abc";
  EXPECT_EQ(store.HandleQuery(request).status, 400);
  request.query = "step=-3";
  EXPECT_EQ(store.HandleQuery(request).status, 400);
}

// ---------------------------------------------------------------------------
// SloEngine

TEST(SloEngineTest, BurnRateBoundaries) {
  // Exactly at budget: error ratio == 1 - target -> burn 1.0.
  EXPECT_DOUBLE_EQ(SloEngine::BurnRate(10.0, 100.0, 0.9), 1.0);
  // No traffic burns nothing (empty window).
  EXPECT_DOUBLE_EQ(SloEngine::BurnRate(0.0, 0.0, 0.9), 0.0);
  EXPECT_DOUBLE_EQ(SloEngine::BurnRate(0.0, 100.0, 0.9), 0.0);
  // bad > total (deadline expiries count errors without requests) clamps
  // the ratio at 1 instead of overshooting.
  EXPECT_DOUBLE_EQ(SloEngine::BurnRate(200.0, 100.0, 0.9), 10.0);
  // Everything bad at a 99.9% target: 1 / 0.001.
  EXPECT_NEAR(SloEngine::BurnRate(50.0, 50.0, 0.999), 1000.0, 1e-6);
}

/// Synthetic-tick state machine: healthy -> firing -> resolved, with
/// burn-rate windows driven entirely through SampleNow timestamps.
TEST(SloEngineTest, AlertLifecycleOverSyntheticTicks) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Counter& total = registry.GetCounter("slot/total");
  Counter& bad = registry.GetCounter("slot/bad");

  TimeSeriesStore store;
  SloConfig config;
  config.fast_window_s = 10.0;
  config.slow_window_s = 30.0;
  config.budget_window_s = 120.0;
  config.burn_threshold = 2.0;
  SloEngine slo(&store, config);
  SloObjective objective;
  objective.name = "slot/availability";
  objective.kind = SloObjective::Kind::kAvailability;
  objective.total_counter = "slot/total";
  objective.bad_counter = "slot/bad";
  objective.target = 0.9;
  slo.AddObjective(objective);

  double t = 0.0;
  auto tick = [&](uint64_t good_n, uint64_t bad_n) {
    t += 1.0;
    total.Increment(good_n + bad_n);
    bad.Increment(bad_n);
    store.SampleNow(t);
    slo.Evaluate(t);
    std::vector<SloStatus> statuses = slo.Snapshot();
    return statuses.at(0);
  };

  SloStatus status;
  for (int i = 0; i < 40; ++i) status = tick(10, 0);
  EXPECT_EQ(status.state, AlertState::kHealthy);
  EXPECT_DOUBLE_EQ(status.fast_burn, 0.0);
  EXPECT_EQ(slo.firing_count(), 0u);

  // 100% errors: both windows must cross 2x budget burn, slow window last.
  int ticks_to_fire = 0;
  for (int i = 0; i < 40 && status.state != AlertState::kFiring; ++i) {
    status = tick(0, 10);
    ++ticks_to_fire;
  }
  ASSERT_EQ(status.state, AlertState::kFiring);
  // Slow window needs ratio >= 0.2: 6 bad ticks out of 30 -> fires on
  // tick 6, not instantly (the fast window alone crossed on tick 2).
  EXPECT_GT(ticks_to_fire, 2);
  EXPECT_GT(status.fast_burn, 2.0);
  EXPECT_GE(status.slow_burn, 2.0);
  EXPECT_GT(status.fired_at_s, 0.0);
  EXPECT_LT(status.budget_remaining, 1.0);
  EXPECT_EQ(slo.firing_count(), 1u);
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().GetGauge("obs/alerts_firing").value(), 1.0);

  // Recovery: the alert resolves once either window's burn drops below
  // threshold, and kResolved is sticky (distinguishable from kHealthy).
  for (int i = 0; i < 60 && status.state == AlertState::kFiring; ++i) {
    status = tick(10, 0);
  }
  ASSERT_EQ(status.state, AlertState::kResolved);
  EXPECT_GT(status.resolved_at_s, status.fired_at_s);
  EXPECT_GE(status.transitions, 2u);
  EXPECT_EQ(slo.firing_count(), 0u);
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().GetGauge("obs/alerts_firing").value(), 0.0);

  // ToJson carries the lifecycle fields /alertz exposes.
  const JsonValue json = slo.ToJson();
  EXPECT_DOUBLE_EQ(json.Find("firing")->AsNumber(), 0.0);
  const JsonValue* first = &json.Find("objectives")->at(0);
  EXPECT_EQ(first->Find("name")->AsString(), "slot/availability");
  EXPECT_EQ(first->Find("state")->AsString(), "resolved");
}

TEST(SloEngineTest, PendingDwellDelaysFiring) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Counter& total = registry.GetCounter("slop/total");
  Counter& bad = registry.GetCounter("slop/bad");

  TimeSeriesStore store;
  SloConfig config;
  config.fast_window_s = 5.0;
  config.slow_window_s = 5.0;
  config.burn_threshold = 1.0;
  config.pending_for_s = 3.0;
  SloEngine slo(&store, config);
  SloObjective objective;
  objective.name = "slop/availability";
  objective.kind = SloObjective::Kind::kAvailability;
  objective.total_counter = "slop/total";
  objective.bad_counter = "slop/bad";
  objective.target = 0.9;
  slo.AddObjective(objective);

  double t = 0.0;
  auto tick = [&]() {
    t += 1.0;
    total.Increment(10);
    bad.Increment(10);
    store.SampleNow(t);
    slo.Evaluate(t);
    return slo.Snapshot().at(0);
  };
  tick();                     // t=1: a single sample, no burn yet
  SloStatus status = tick();  // t=2: burn over threshold -> pending
  EXPECT_EQ(status.state, AlertState::kPending);
  status = tick();  // t=3: dwell 1 s < 3 s
  EXPECT_EQ(status.state, AlertState::kPending);
  status = tick();  // t=4: dwell 2 s
  EXPECT_EQ(status.state, AlertState::kPending);
  status = tick();  // t=5: dwell 3 s >= pending_for_s -> firing
  EXPECT_EQ(status.state, AlertState::kFiring);
}

TEST(SloEngineTest, LatencyObjectiveRegistersThresholdSeries) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Histogram& latency = registry.GetHistogram("slol/ms");

  TimeSeriesStore store;
  SloConfig config;
  config.fast_window_s = 5.0;
  config.slow_window_s = 5.0;
  config.burn_threshold = 1.0;
  SloEngine slo(&store, config);
  SloObjective objective;
  objective.name = "slol/latency";
  objective.kind = SloObjective::Kind::kLatency;
  objective.histogram = "slol/ms";
  objective.threshold_ms = 25.0;
  objective.target = 0.5;
  slo.AddObjective(objective);

  double t = 0.0;
  auto tick = [&](double value_ms) {
    t += 1.0;
    for (int i = 0; i < 10; ++i) latency.Observe(value_ms);
    store.SampleNow(t);
    slo.Evaluate(t);
    return slo.Snapshot().at(0);
  };
  SloStatus status;
  for (int i = 0; i < 8; ++i) status = tick(1.0);  // all under threshold
  EXPECT_EQ(status.state, AlertState::kHealthy);
  for (int i = 0; i < 8 && status.state != AlertState::kFiring; ++i) {
    status = tick(400.0);  // all over threshold
  }
  EXPECT_EQ(status.state, AlertState::kFiring);
}

// ---------------------------------------------------------------------------
// RequestLog + ExemplarStore

WideEvent MakeEvent(uint64_t trace_id, const std::string& op,
                    uint64_t total_us) {
  WideEvent event;
  event.t_s = 1.5;
  event.trace_id = trace_id;
  event.op = op;
  event.batch_size = 4;
  event.cache_hit = true;
  event.queue_us = 100;
  event.encode_us = 200;
  event.score_us = 300;
  event.total_us = total_us;
  event.verdict = "power failure";
  event.ok = true;
  event.status = "ok";
  return event;
}

TEST(RequestLogTest, BoundedRingKeepsNewestFirst) {
  RequestLog log(3);
  for (uint64_t i = 1; i <= 5; ++i) {
    log.Record(MakeEvent(i, "rca", i * 1000));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_recorded(), 5u);
  const std::vector<WideEvent> events = log.Query({});
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].trace_id, 5u);
  EXPECT_EQ(events[1].trace_id, 4u);
  EXPECT_EQ(events[2].trace_id, 3u);
}

TEST(RequestLogTest, QueryFilters) {
  RequestLog log;
  log.Record(MakeEvent(0xaa, "rca", 2000));
  log.Record(MakeEvent(0xbb, "eap", 9000));
  log.Record(MakeEvent(0xcc, "rca", 40000));

  RequestLog::Filter by_trace;
  by_trace.trace_id = 0xbb;
  ASSERT_EQ(log.Query(by_trace).size(), 1u);
  EXPECT_EQ(log.Query(by_trace)[0].op, "eap");

  RequestLog::Filter by_op;
  by_op.op = "rca";
  EXPECT_EQ(log.Query(by_op).size(), 2u);

  RequestLog::Filter slow;
  slow.min_ms = 5.0;
  EXPECT_EQ(log.Query(slow).size(), 2u);

  RequestLog::Filter capped;
  capped.limit = 1;
  ASSERT_EQ(log.Query(capped).size(), 1u);
  EXPECT_EQ(log.Query(capped)[0].trace_id, 0xccu);
}

TEST(RequestLogTest, WideEventJsonRoundTrip) {
  const WideEvent event = MakeEvent(0x4fca12d9e01u, "fct", 12345);
  const JsonValue json = event.ToJson();
  // Trace ids travel as 16-hex strings, never JSON numbers.
  EXPECT_EQ(json.Find("trace_id")->AsString(), "000004fca12d9e01");

  WideEvent parsed;
  ASSERT_TRUE(WideEvent::FromJson(json, &parsed));
  EXPECT_EQ(parsed.trace_id, event.trace_id);
  EXPECT_EQ(parsed.op, event.op);
  EXPECT_EQ(parsed.batch_size, event.batch_size);
  EXPECT_EQ(parsed.cache_hit, event.cache_hit);
  EXPECT_EQ(parsed.queue_us, event.queue_us);
  EXPECT_EQ(parsed.encode_us, event.encode_us);
  EXPECT_EQ(parsed.score_us, event.score_us);
  EXPECT_EQ(parsed.total_us, event.total_us);
  EXPECT_EQ(parsed.verdict, event.verdict);
  EXPECT_EQ(parsed.ok, event.ok);
  EXPECT_EQ(parsed.status, event.status);

  // Strictness: a missing field fails instead of defaulting silently.
  JsonValue truncated = event.ToJson();
  truncated.Set("trace_id", JsonValue());
  WideEvent ignored;
  EXPECT_FALSE(WideEvent::FromJson(truncated, &ignored));
}

TEST(RequestLogTest, RoutedEventFieldsRoundTripAndStayOffServeEvents) {
  // A serve-side event (attempts == 0) serializes no routing fields, so
  // existing log consumers see an unchanged shape.
  const WideEvent plain = MakeEvent(0x1, "rca", 1000);
  EXPECT_EQ(plain.ToJson().Find("replica"), nullptr);
  EXPECT_EQ(plain.ToJson().Find("attempts"), nullptr);
  EXPECT_EQ(plain.ToJson().Find("hedge"), nullptr);

  WideEvent routed = MakeEvent(0x2, "encode", 2000);
  routed.replica = "127.0.0.1:7102";
  routed.attempts = 3;
  routed.hedge = "won";
  const JsonValue json = routed.ToJson();
  WideEvent parsed;
  ASSERT_TRUE(WideEvent::FromJson(json, &parsed));
  EXPECT_EQ(parsed.replica, "127.0.0.1:7102");
  EXPECT_EQ(parsed.attempts, 3);
  EXPECT_EQ(parsed.hedge, "won");

  // The routing story is all-or-nothing: attempts without its companions
  // is a malformed record, not a silent partial parse.
  JsonValue partial = json;
  partial.Set("replica", JsonValue());
  EXPECT_FALSE(WideEvent::FromJson(partial, &parsed));
}

TEST(RequestLogTest, NdjsonSinkRoundTripsThroughParser) {
  const std::string path = "obs_requestlog_test_sink.ndjson";
  std::remove(path.c_str());
  {
    RequestLog log;
    ASSERT_TRUE(log.SetSinkFile(path));
    EXPECT_EQ(log.sink_path(), path);
    log.Record(MakeEvent(0x111, "rca", 1500));
    log.Record(MakeEvent(0x222, "eap", 2500));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<WideEvent> parsed;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue value;
    std::string error;
    ASSERT_TRUE(JsonValue::Parse(line, &value, &error)) << error;
    WideEvent event;
    ASSERT_TRUE(WideEvent::FromJson(value, &event));
    parsed.push_back(event);
  }
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].trace_id, 0x111u);
  EXPECT_EQ(parsed[1].trace_id, 0x222u);
  std::remove(path.c_str());

  // An unopenable sink is reported, not fatal.
  RequestLog log;
  EXPECT_FALSE(log.SetSinkFile("/nonexistent-dir/sink.ndjson"));
}

TEST(RequestLogTest, HandleQueryFiltersAndValidates) {
  RequestLog::Global().Reset();
  RequestLog::Global().Record(MakeEvent(0xabc, "rca", 7000));
  RequestLog::Global().Record(MakeEvent(0xdef, "eap", 1000));

  HttpRequest request;
  request.method = "GET";
  request.path = "/requestz";
  request.query = "trace_id=abc";
  HttpResponse response = RequestLog::Global().HandleQuery(request);
  EXPECT_EQ(response.status, 200);
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(response.body, &parsed, &error)) << error;
  ASSERT_EQ(parsed.Find("events")->size(), 1u);
  EXPECT_EQ(parsed.Find("events")->at(0).Find("trace_id")->AsString(),
            "0000000000000abc");

  request.query = "min_ms=5";
  response = RequestLog::Global().HandleQuery(request);
  ASSERT_TRUE(JsonValue::Parse(response.body, &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("events")->size(), 1u);

  request.query = "trace_id=zzz";
  EXPECT_EQ(RequestLog::Global().HandleQuery(request).status, 400);
  request.query = "min_ms=abc";
  EXPECT_EQ(RequestLog::Global().HandleQuery(request).status, 400);
  request.query = "limit=0";
  EXPECT_EQ(RequestLog::Global().HandleQuery(request).status, 400);
  RequestLog::Global().Reset();
}

TEST(ExemplarStoreTest, LatestWinsPerBucketAndFindsByUpperBound) {
  ExemplarStore store;
  store.Record("tst/ex_ms", 23.7, 0x111);
  store.Record("tst/ex_ms", 23.9, 0x222);   // same bucket: replaces
  store.Record("tst/ex_ms", 500.0, 0x333);  // different bucket

  const double le = Histogram::BucketUpperMs(Histogram::BucketIndex(23.7));
  ExemplarStore::Exemplar exemplar;
  ASSERT_TRUE(store.Find("tst/ex_ms", le, &exemplar));
  EXPECT_EQ(exemplar.trace_id, 0x222u);
  EXPECT_DOUBLE_EQ(exemplar.value_ms, 23.9);
  EXPECT_GT(exemplar.unix_s, 0.0);

  EXPECT_FALSE(store.Find("tst/ex_ms", le * 4.0, &exemplar));
  EXPECT_FALSE(store.Find("tst/other_ms", le, &exemplar));
  store.Reset();
  EXPECT_FALSE(store.Find("tst/ex_ms", le, &exemplar));
}

// ---------------------------------------------------------------------------
// Concurrency (exercised under TSan by scripts/check_tier1.sh)

TEST(TimeSeriesStoreTest, SamplerRacesWritersAndReaders) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  TimeSeriesOptions options;
  options.interval_s = 0.001;
  options.capacity = 16;
  TimeSeriesStore store(options);
  SloConfig config;
  config.fast_window_s = 0.01;
  config.slow_window_s = 0.05;
  SloEngine slo(&store, config);
  SloObjective objective;
  objective.name = "race/availability";
  objective.kind = SloObjective::Kind::kAvailability;
  objective.total_counter = "race/total";
  objective.bad_counter = "race/bad";
  slo.AddObjective(objective);
  // The SLO engine re-enters the store from the sampler callback — the
  // deadlock/race shape the lock ordering is designed for.
  store.SetOnSample([&](double now_s) { slo.Evaluate(now_s); });
  store.Start();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Counter& total = registry.GetCounter("race/total");
    Histogram& latency = registry.GetHistogram("race/ms");
    uint64_t i = 0;
    while (!stop.load()) {
      total.Increment();
      latency.Observe(static_cast<double>(i % 40) + 0.5);
      ++i;
    }
  });
  std::thread reader([&] {
    while (!stop.load()) {
      store.QueryJson(1.0, 0.0, "race/");
      store.SeriesSamples("race/total");
      slo.Snapshot();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  stop.store(true);
  writer.join();
  reader.join();
  store.Stop();
  EXPECT_GE(store.samples_taken(), 2u);
  registry.Reset();
}

}  // namespace
}  // namespace obs
}  // namespace telekit
