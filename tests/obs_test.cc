// Tests for the telekit::obs observability layer: structured logging
// (level filtering, sink capture), the metrics registry (counter / gauge /
// histogram semantics, JSON snapshot round-trip), nested span aggregation
// and Chrome trace_event export, plus the disabled-logging overhead bound
// the ISSUE's acceptance criteria call for.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace telekit {
namespace obs {
namespace {

// Captures every dispatched record; restores the default sink and the
// info level on destruction so tests do not leak state into each other.
class SinkCapture {
 public:
  SinkCapture() {
    Logger::Global().SetSink(
        [this](const LogRecord& record) { records_.push_back(record); });
  }
  ~SinkCapture() {
    Logger::Global().SetSink(nullptr);
    Logger::Global().set_level(LogLevel::kInfo);
  }
  const std::vector<LogRecord>& records() const { return records_; }

 private:
  std::vector<LogRecord> records_;
};

TEST(LogTest, ParseLogLevel) {
  const auto parse = [](const char* text) {
    LogLevel level = LogLevel::kWarn;
    EXPECT_TRUE(TryParseLogLevel(text, &level)) << text;
    return level;
  };
  EXPECT_EQ(parse("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse("error"), LogLevel::kError);
  EXPECT_EQ(parse("off"), LogLevel::kOff);
  // Unknown input is rejected and leaves the level untouched.
  LogLevel level = LogLevel::kWarn;
  EXPECT_FALSE(TryParseLogLevel("bogus", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
}

// Sets TELEKIT_LOG_LEVEL (or unsets it for null) for one scope.
class ScopedLogLevelEnv {
 public:
  explicit ScopedLogLevelEnv(const char* value) {
    const char* old = std::getenv("TELEKIT_LOG_LEVEL");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr) {
      setenv("TELEKIT_LOG_LEVEL", value, 1);
    } else {
      unsetenv("TELEKIT_LOG_LEVEL");
    }
  }
  ~ScopedLogLevelEnv() {
    if (had_) {
      setenv("TELEKIT_LOG_LEVEL", saved_.c_str(), 1);
    } else {
      unsetenv("TELEKIT_LOG_LEVEL");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

TEST(LogTest, LevelFromEnvTakesEveryNameAndAlias) {
  {
    ScopedLogLevelEnv env(nullptr);
    EXPECT_EQ(LogLevelFromEnv(), LogLevel::kInfo);
  }
  const std::pair<const char*, LogLevel> cases[] = {
      {"debug", LogLevel::kDebug}, {"INFO", LogLevel::kInfo},
      {"warn", LogLevel::kWarn},   {"warning", LogLevel::kWarn},
      {"error", LogLevel::kError}, {"off", LogLevel::kOff},
      {"none", LogLevel::kOff}};
  for (const auto& [name, level] : cases) {
    ScopedLogLevelEnv env(name);
    EXPECT_EQ(LogLevelFromEnv(), level) << name;
  }
}

TEST(LogDeathTest, UnknownLevelInEnvExits64NamingTheVariable) {
  for (const char* bad : {"bogus", "", "infox"}) {
    EXPECT_EXIT(
        {
          setenv("TELEKIT_LOG_LEVEL", bad, 1);
          LogLevelFromEnv();
        },
        ::testing::ExitedWithCode(64),
        "bad value for TELEKIT_LOG_LEVEL: '.*' .want "
        "debug.info.warn.error.off")
        << "value '" << bad << "'";
  }
}

TEST(LogTest, LevelFiltering) {
  SinkCapture capture;
  Logger::Global().set_level(LogLevel::kWarn);
  TELEKIT_LOG(DEBUG) << "debug message";
  TELEKIT_LOG(INFO) << "info message";
  TELEKIT_LOG(WARN) << "warn message";
  TELEKIT_LOG(ERROR) << "error message";
  ASSERT_EQ(capture.records().size(), 2u);
  EXPECT_EQ(capture.records()[0].level, LogLevel::kWarn);
  EXPECT_EQ(capture.records()[0].message, "warn message");
  EXPECT_EQ(capture.records()[1].level, LogLevel::kError);
}

TEST(LogTest, OffSilencesEverything) {
  SinkCapture capture;
  Logger::Global().set_level(LogLevel::kOff);
  TELEKIT_LOG(ERROR) << "should not appear";
  EXPECT_TRUE(capture.records().empty());
}

TEST(LogTest, SinkCapturesStructuredFields) {
  SinkCapture capture;
  Logger::Global().set_level(LogLevel::kDebug);
  TELEKIT_LOG(INFO) << "step done" << F("step", 42) << F("loss", 0.5);
  ASSERT_EQ(capture.records().size(), 1u);
  const LogRecord& record = capture.records()[0];
  EXPECT_EQ(record.message, "step done");
  ASSERT_EQ(record.fields.size(), 2u);
  EXPECT_EQ(record.fields[0].first, "step");
  EXPECT_EQ(record.fields[0].second, "42");
  EXPECT_EQ(record.fields[1].first, "loss");
  EXPECT_EQ(record.fields[1].second, "0.5");
  EXPECT_EQ(record.Rendered(), "step done step=42 loss=0.5");
  EXPECT_STREQ(record.file, "obs_test.cc");
  EXPECT_GT(record.line, 0);
}

TEST(LogTest, DisabledLevelEvaluatesNothing) {
  SinkCapture capture;
  Logger::Global().set_level(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&evaluations]() {
    ++evaluations;
    return 1;
  };
  TELEKIT_LOG(DEBUG) << "x" << F("v", expensive());
  EXPECT_EQ(evaluations, 0);
  TELEKIT_LOG(ERROR) << "x" << F("v", expensive());
  EXPECT_EQ(evaluations, 1);
}

TEST(MetricsTest, CounterSemantics) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("test/counter");
  counter.Zero();
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  // Same name returns the same object.
  EXPECT_EQ(&registry.GetCounter("test/counter"), &counter);
  // Reset zeroes in place: cached references stay valid.
  registry.Reset();
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  EXPECT_EQ(registry.GetCounter("test/counter").value(), 1u);
}

// Many threads racing registration (same + distinct names) and updates:
// first-use creation must hand every thread the same object, and counts
// must not be lost. Run under -DTELEKIT_TSAN=ON for the data-race check.
TEST(MetricsTest, RegistryIsThreadSafeUnderContention) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  constexpr int kThreads = 8;
  constexpr int kIterations = 5000;
  registry.GetCounter("test/mt_counter").Zero();
  registry.GetHistogram("test/mt_histogram").Zero();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Per-thread metric: registration races with other names only.
      Counter& own =
          registry.GetCounter("test/mt_own_" + std::to_string(t));
      for (int i = 0; i < kIterations; ++i) {
        registry.GetCounter("test/mt_counter").Increment();
        registry.GetHistogram("test/mt_histogram")
            .Observe(static_cast<double>(i % 20));
        registry.GetGauge("test/mt_gauge").Set(static_cast<double>(i));
        own.Increment();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("test/mt_counter").value(),
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(registry.GetHistogram("test/mt_histogram").count(),
            static_cast<uint64_t>(kThreads) * kIterations);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.GetCounter("test/mt_own_" + std::to_string(t)).value(),
              static_cast<uint64_t>(kIterations));
  }
  // Snapshot while racing is exercised implicitly above; a final snapshot
  // must see every registered name.
  EXPECT_TRUE(registry.Snapshot().Find("counters")->Has("test/mt_counter"));
}

TEST(MetricsTest, GaugeSemantics) {
  Gauge& gauge = MetricsRegistry::Global().GetGauge("test/gauge");
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Add(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
  gauge.Zero();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(MetricsTest, HistogramSemantics) {
  Histogram histogram;
  histogram.Observe(0.5);
  histogram.Observe(1.0);
  histogram.Observe(7.0);
  histogram.Observe(1000.0);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 1008.5);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 1000.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 1008.5 / 4.0);
  EXPECT_EQ(histogram.bucket_count(Histogram::BucketIndex(7.0)), 1u);

  JsonValue json = histogram.ToJson();
  EXPECT_DOUBLE_EQ(json.Find("count")->AsNumber(), 4.0);
  const JsonValue* buckets = json.Find("buckets");
  ASSERT_NE(buckets, nullptr);
  // Sparse export: only non-empty buckets appear, in ascending `le`, and
  // each `le` is the bucket's numeric upper bound.
  ASSERT_EQ(buckets->size(), 4u);
  EXPECT_DOUBLE_EQ(buckets->at(3).Find("le")->AsNumber(),
                   Histogram::BucketUpperMs(Histogram::BucketIndex(1000.0)));

  histogram.Zero();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.bucket_count(Histogram::BucketIndex(7.0)), 0u);
}

TEST(MetricsTest, ScopedTimerObservesIntoHistogram) {
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("test/timer_ms");
  histogram.Zero();
  {
    ScopedTimer timer(histogram);
  }
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_GE(histogram.max(), 0.0);
}

TEST(MetricsTest, SnapshotJsonRoundTrip) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.GetCounter("rt/counter").Increment(7);
  registry.GetGauge("rt/gauge").Set(1.25);
  registry.GetHistogram("rt/hist_ms").Observe(3.0);

  const std::string dumped = registry.Snapshot().Dump();
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(dumped, &parsed, &error)) << error;
  EXPECT_DOUBLE_EQ(parsed.Find("counters")->Find("rt/counter")->AsNumber(),
                   7.0);
  EXPECT_DOUBLE_EQ(parsed.Find("gauges")->Find("rt/gauge")->AsNumber(), 1.25);
  const JsonValue* hist = parsed.Find("histograms")->Find("rt/hist_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(hist->Find("sum")->AsNumber(), 3.0);
}

TEST(JsonTest, DumpParseRoundTrip) {
  JsonValue object = JsonValue::Object();
  object.Set("string", JsonValue("line1\nline2 \"quoted\""));
  object.Set("int", JsonValue(42));
  object.Set("float", JsonValue(2.5));
  object.Set("negative", JsonValue(-17));
  object.Set("bool", JsonValue(true));
  object.Set("null", JsonValue());
  JsonValue array = JsonValue::Array();
  array.Append(JsonValue(1));
  array.Append(JsonValue("two"));
  JsonValue nested = JsonValue::Object();
  nested.Set("deep", JsonValue(3.0));
  array.Append(std::move(nested));
  object.Set("array", std::move(array));

  for (int indent : {0, 2}) {
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::Parse(object.Dump(indent), &parsed, &error))
        << error;
    EXPECT_EQ(parsed.Find("string")->AsString(), "line1\nline2 \"quoted\"");
    EXPECT_DOUBLE_EQ(parsed.Find("int")->AsNumber(), 42.0);
    EXPECT_DOUBLE_EQ(parsed.Find("float")->AsNumber(), 2.5);
    EXPECT_DOUBLE_EQ(parsed.Find("negative")->AsNumber(), -17.0);
    EXPECT_TRUE(parsed.Find("bool")->AsBool());
    EXPECT_TRUE(parsed.Find("null")->is_null());
    const JsonValue* parsed_array = parsed.Find("array");
    ASSERT_EQ(parsed_array->size(), 3u);
    EXPECT_EQ(parsed_array->at(1).AsString(), "two");
    EXPECT_DOUBLE_EQ(parsed_array->at(2).Find("deep")->AsNumber(), 3.0);
  }
}

TEST(JsonTest, ParseRejectsGarbage) {
  JsonValue out;
  EXPECT_FALSE(JsonValue::Parse("", &out));
  EXPECT_FALSE(JsonValue::Parse("{", &out));
  EXPECT_FALSE(JsonValue::Parse("[1,]", &out));
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing", &out));
  EXPECT_FALSE(JsonValue::Parse("nope", &out));
  std::string error;
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}", &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, ParseUnicodeEscape) {
  JsonValue out;
  ASSERT_TRUE(JsonValue::Parse("\"a\\u00e9b\"", &out));
  EXPECT_EQ(out.AsString(), "a\xc3\xa9" "b");
}

TEST(JsonTest, ParseSurrogatePairEscape) {
  JsonValue out;
  // U+1F600 (emoji) = \uD83D \uDE00, which must decode to one code point
  // and the 4-byte UTF-8 sequence F0 9F 98 80 — not two 3-byte CESU-8
  // halves.
  ASSERT_TRUE(JsonValue::Parse("\"\\ud83d\\ude00\"", &out));
  EXPECT_EQ(out.AsString(), "\xF0\x9F\x98\x80");
  ASSERT_TRUE(JsonValue::Parse("\"a\\uD83D\\uDE00b\"", &out));
  EXPECT_EQ(out.AsString(), "a\xF0\x9F\x98\x80" "b");
}

TEST(JsonTest, SurrogatePairDumpParseRoundTrip) {
  JsonValue out;
  ASSERT_TRUE(JsonValue::Parse("\"\\ud83d\\ude00\"", &out));
  const std::string dumped = JsonValue(out.AsString()).Dump();
  JsonValue again;
  ASSERT_TRUE(JsonValue::Parse(dumped, &again));
  EXPECT_EQ(again.AsString(), out.AsString());
}

TEST(JsonTest, RejectsLoneSurrogates) {
  JsonValue out;
  EXPECT_FALSE(JsonValue::Parse("\"\\ud83d\"", &out));         // lone high
  EXPECT_FALSE(JsonValue::Parse("\"\\ude00\"", &out));         // lone low
  EXPECT_FALSE(JsonValue::Parse("\"\\ud83dxx\"", &out));       // high + junk
  EXPECT_FALSE(JsonValue::Parse("\"\\ud83d\\u0041\"", &out));  // high + BMP
  std::string error;
  EXPECT_FALSE(JsonValue::Parse("\"\\ud83d\"", &out, &error));
  EXPECT_NE(error.find("surrogate"), std::string::npos);
}

// Burns ~a few hundred microseconds so span durations are nonzero.
uint64_t BusyWork(int iterations) {
  volatile uint64_t accumulator = 0;
  for (int i = 0; i < iterations; ++i) {
    accumulator = accumulator + static_cast<uint64_t>(i);
  }
  return accumulator;
}

TEST(TraceTest, NestedSpanAggregation) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Reset();
  collector.set_recording(true);
  {
    Span outer("test/outer");
    BusyWork(50000);
    {
      Span inner("test/inner");
      BusyWork(50000);
    }
    {
      Span inner("test/inner");
      BusyWork(50000);
    }
  }
  collector.set_recording(false);

  const auto aggregate = collector.Aggregate();
  ASSERT_EQ(aggregate.count("test/outer"), 1u);
  ASSERT_EQ(aggregate.count("test/inner"), 1u);
  const SpanStats& outer = aggregate.at("test/outer");
  const SpanStats& inner = aggregate.at("test/inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 2u);
  // Parent duration covers both children.
  EXPECT_GE(outer.total_us, inner.total_us);
  // Self time excludes direct children but keeps the parent's own work.
  EXPECT_LE(outer.self_us, outer.total_us);
  EXPECT_GE(outer.self_us + inner.total_us, outer.total_us);
  EXPECT_GE(inner.max_us, inner.total_us / 2);
}

TEST(TraceTest, TraceEventJsonIsChromeLoadable) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Reset();
  collector.set_recording(true);
  {
    Span outer("test/outer");
    Span inner("test/inner");
    BusyWork(10000);
  }
  collector.set_recording(false);

  EXPECT_EQ(collector.NumEvents(), 2u);
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(
      JsonValue::Parse(collector.TraceEventsJson().Dump(), &parsed, &error))
      << error;
  ASSERT_EQ(parsed.size(), 2u);
  // Spans close inner-first, so the inner span is recorded first.
  const JsonValue& inner = parsed.at(0);
  const JsonValue& outer = parsed.at(1);
  EXPECT_EQ(inner.Find("name")->AsString(), "test/inner");
  EXPECT_EQ(inner.Find("ph")->AsString(), "X");
  EXPECT_DOUBLE_EQ(inner.Find("args")->Find("depth")->AsNumber(), 1.0);
  EXPECT_EQ(outer.Find("name")->AsString(), "test/outer");
  EXPECT_DOUBLE_EQ(outer.Find("args")->Find("depth")->AsNumber(), 0.0);
  // The inner event starts no earlier and fits inside the outer event.
  EXPECT_GE(inner.Find("ts")->AsNumber(), outer.Find("ts")->AsNumber());
  EXPECT_LE(inner.Find("dur")->AsNumber(), outer.Find("dur")->AsNumber());
}

TEST(MetricsTest, HistogramQuantileAccuracy) {
  Histogram histogram;
  // Uniform 1..1000 ms: the true q-quantile is q * 1000.
  for (int i = 1; i <= 1000; ++i) {
    histogram.Observe(static_cast<double>(i));
  }
  EXPECT_EQ(histogram.count(), 1000u);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 1000.0);
  // Log bucketing bounds relative error by 2^(1/16) - 1 (~4.4%); allow a
  // little slack for interpolation at bucket edges.
  for (const double q : {0.50, 0.90, 0.95, 0.99}) {
    const double expected = q * 1000.0;
    EXPECT_NEAR(histogram.Quantile(q), expected, expected * 0.06)
        << "q=" << q;
  }
  // Quantiles never escape the observed range, even at the extremes.
  EXPECT_GE(histogram.Quantile(0.0), histogram.min());
  EXPECT_LE(histogram.Quantile(1.0), histogram.max());
}

TEST(MetricsTest, HistogramEdgeCases) {
  Histogram histogram;
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);  // empty
  // Out-of-range and non-finite observations clamp to the tracked range
  // instead of corrupting the buckets.
  histogram.Observe(0.0);
  histogram.Observe(-5.0);
  histogram.Observe(1e9);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_GE(histogram.Quantile(0.5), 0.0);
  histogram.Zero();
  EXPECT_EQ(histogram.count(), 0u);

  // A single observation: every quantile is that value (clamped exactly).
  histogram.Observe(3.7);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 3.7);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 3.7);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 3.7);
}

TEST(MetricsTest, HistogramBoundaryRanks) {
  Histogram histogram;
  // 10 fast + 90 slow samples: ranks 1..10 live in the fast bucket. The
  // boundary rank q = 0.10 (rank exactly 10, i.e. q*n equal to the fast
  // bucket's cumulative count) must resolve strictly inside the fast
  // bucket — the old fractional-rank walk pinned it to the bucket's upper
  // edge — and rank 11 (q = 0.11) must jump to the slow cluster.
  for (int i = 0; i < 10; ++i) histogram.Observe(2.0);
  for (int i = 0; i < 90; ++i) histogram.Observe(500.0);
  const double fast_upper =
      Histogram::BucketUpperMs(Histogram::BucketIndex(2.0));
  EXPECT_GE(histogram.Quantile(0.10), 2.0);
  EXPECT_LT(histogram.Quantile(0.10), fast_upper);
  EXPECT_NEAR(histogram.Quantile(0.11), 500.0, 500.0 * 0.06);
  // Extremes map to nearest ranks 1 and n, never below min or above max.
  EXPECT_NEAR(histogram.Quantile(0.0), 2.0, 2.0 * 0.06);
  EXPECT_NEAR(histogram.Quantile(1.0), 500.0, 500.0 * 0.06);
  EXPECT_GE(histogram.Quantile(0.0), histogram.min());
  EXPECT_LE(histogram.Quantile(1.0), histogram.max());
}

TEST(MetricsTest, HistogramRepeatedValueExactAtAllRanks) {
  Histogram histogram;
  // Eight identical samples: every rank lands in the same bucket and the
  // [min, max] clamp collapses the estimate to the exact value, including
  // at the rank boundaries q = k/8.
  for (int i = 0; i < 8; ++i) histogram.Observe(7.25);
  for (const double q : {0.0, 0.125, 0.5, 0.875, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.Quantile(q), 7.25) << "q=" << q;
  }
}

TEST(MetricsTest, HistogramConcurrentObserve) {
  Histogram histogram;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Observe(1.0 + static_cast<double>((t + i) % 100));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(histogram.Quantile(0.5), 1.0);
  EXPECT_LE(histogram.Quantile(0.99), 101.0);
}

// Regression: an empty histogram used to dump min=inf / max=-inf style
// sentinels; it must emit null so the artifact stays parseable and
// unambiguous. The snapshot has one histogram key.
TEST(MetricsTest, EmptyHistogramSnapshotHasNullMinMax) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.GetHistogram("empty/latency_ms");

  const std::string dumped = registry.Snapshot().Dump();
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(dumped, &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("latency_histograms"), nullptr);

  const JsonValue* latency =
      parsed.Find("histograms")->Find("empty/latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->Find("count")->AsNumber(), 0.0);
  ASSERT_NE(latency->Find("min"), nullptr);
  EXPECT_TRUE(latency->Find("min")->is_null());
  EXPECT_TRUE(latency->Find("max")->is_null());

  // Once observed, min/max become numbers again.
  registry.GetHistogram("empty/latency_ms").Observe(2.0);
  const JsonValue snapshot = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.Find("histograms")
                       ->Find("empty/latency_ms")
                       ->Find("min")
                       ->AsNumber(),
                   2.0);
  registry.Reset();
}

TEST(TraceTest, SaturationCountsDropsAndWarnsOnce) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Reset();
  collector.set_max_events(4);
  collector.set_recording(true);
  SinkCapture capture;
  for (int i = 0; i < 10; ++i) {
    Span span("test/drop");
  }
  collector.set_recording(false);

  EXPECT_EQ(collector.NumEvents(), 4u);
  EXPECT_EQ(collector.NumDropped(), 6u);
  // Aggregation still sees every span; only the event buffer is bounded.
  EXPECT_EQ(collector.Aggregate().at("test/drop").count, 10u);
  EXPECT_DOUBLE_EQ(
      collector.AggregateJson().Find("dropped_events")->AsNumber(), 6.0);

  // Exactly one WARNING at first saturation, not one per dropped span.
  int warnings = 0;
  for (const LogRecord& record : capture.records()) {
    if (record.level == LogLevel::kWarn &&
        record.message.find("saturated") != std::string::npos) {
      ++warnings;
    }
  }
  EXPECT_EQ(warnings, 1);

  collector.Reset();
  EXPECT_EQ(collector.NumDropped(), 0u);
  collector.set_max_events(TraceCollector::kMaxEvents);
}

TEST(TraceTest, TraceIdHexRoundTrip) {
  const uint64_t id = NextTraceId();
  EXPECT_NE(id, 0u);
  EXPECT_NE(NextTraceId(), id);  // ids are distinct
  const std::string hex = TraceIdToHex(id);
  EXPECT_EQ(hex.size(), 16u);
  uint64_t parsed = 0;
  ASSERT_TRUE(ParseTraceIdHex(hex, &parsed));
  EXPECT_EQ(parsed, id);

  uint64_t out = 0;
  EXPECT_TRUE(ParseTraceIdHex("deadBEEF", &out));
  EXPECT_EQ(out, 0xdeadbeefu);
  EXPECT_FALSE(ParseTraceIdHex("", &out));
  EXPECT_FALSE(ParseTraceIdHex("xyz", &out));
  EXPECT_FALSE(ParseTraceIdHex("0123456789abcdef0", &out));  // 17 digits
}

TEST(TraceTest, AggregationWorksWithRecordingOff) {
  TraceCollector& collector = TraceCollector::Global();
  collector.Reset();
  ASSERT_FALSE(collector.recording());
  {
    Span span("test/no_recording");
  }
  EXPECT_EQ(collector.NumEvents(), 0u);
  EXPECT_EQ(collector.Aggregate().at("test/no_recording").count, 1u);
}

// ---------------------------------------------------------------------------
// SpanStore: the bounded ring behind /spanz
// ---------------------------------------------------------------------------

TEST(SpanStoreTest, RecordAssignsIdsAndJsonRoundTrips) {
  SpanStore store(8);
  store.SetProcessLabel("test:1");
  SpanRecord span;
  span.trace_id = 0xabcu;
  span.parent_span = 0x77u;
  span.name = "route/attempt";
  span.replica = "127.0.0.1:7101";
  span.outcome = "won";
  span.attempt = 2;
  span.hedge = true;
  span.start_unix_us = 1.5e15;
  span.dur_us = 420;
  store.Record(span);  // span_id assigned, process filled from the label
  const std::vector<SpanRecord> held = store.Query(0xabcu);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_NE(held[0].span_id, 0u);
  EXPECT_EQ(held[0].process, "test:1");

  SpanRecord back;
  ASSERT_TRUE(SpanRecord::FromJson(held[0].ToJson(), &back));
  EXPECT_EQ(back.trace_id, 0xabcu);
  EXPECT_EQ(back.span_id, held[0].span_id);
  EXPECT_EQ(back.parent_span, 0x77u);
  EXPECT_EQ(back.name, "route/attempt");
  EXPECT_EQ(back.process, "test:1");
  EXPECT_EQ(back.replica, "127.0.0.1:7101");
  EXPECT_EQ(back.outcome, "won");
  EXPECT_EQ(back.attempt, 2);
  EXPECT_TRUE(back.hedge);
  EXPECT_TRUE(back.ok);
  EXPECT_DOUBLE_EQ(back.start_unix_us, 1.5e15);
  EXPECT_EQ(back.dur_us, 420u);

  // A root span's zero parent serializes as null and parses back as 0.
  SpanRecord root;
  root.trace_id = 1;
  root.name = "serve/request";
  store.Record(root);
  const std::vector<SpanRecord> roots = store.Query(1);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_TRUE(roots[0].ToJson().Find("parent_span")->is_null());
  SpanRecord root_back;
  ASSERT_TRUE(SpanRecord::FromJson(roots[0].ToJson(), &root_back));
  EXPECT_EQ(root_back.parent_span, 0u);
}

TEST(SpanStoreTest, BoundedRingEvictsOldestAndFiltersByTrace) {
  SpanStore store(4);
  for (uint64_t i = 1; i <= 6; ++i) {
    SpanRecord span;
    span.trace_id = 42;
    span.span_id = i;
    span.name = "s";
    span.start_unix_us = static_cast<double>(i);
    store.Record(span);
  }
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.total_recorded(), 6u);
  const std::vector<SpanRecord> held = store.Query(42);
  ASSERT_EQ(held.size(), 4u);
  // Oldest first; span ids 1 and 2 were overwritten.
  EXPECT_EQ(held.front().span_id, 3u);
  EXPECT_EQ(held.back().span_id, 6u);
  EXPECT_TRUE(store.Query(43).empty());

  store.set_enabled(false);
  SpanRecord dropped;
  dropped.trace_id = 42;
  store.Record(dropped);
  EXPECT_EQ(store.total_recorded(), 6u);
  store.set_enabled(true);
  store.Reset();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.total_recorded(), 0u);
}

TEST(SpanStoreTest, HandleQueryServesSummaryTraceAndBadId) {
  SpanStore store(8);
  store.SetProcessLabel("test:2");
  SpanRecord span;
  span.trace_id = 0xfeedu;
  span.name = "route/request";
  store.Record(span);

  HttpRequest summary;
  summary.path = "/spanz";
  const HttpResponse summary_reply = store.HandleQuery(summary);
  EXPECT_EQ(summary_reply.status, 200);
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(summary_reply.body, &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("process")->AsString(), "test:2");
  EXPECT_EQ(parsed.Find("size")->AsNumber(), 1.0);

  HttpRequest query;
  query.path = "/spanz";
  query.query = "trace_id=000000000000feed";
  const HttpResponse reply = store.HandleQuery(query);
  EXPECT_EQ(reply.status, 200);
  ASSERT_TRUE(JsonValue::Parse(reply.body, &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("count")->AsNumber(), 1.0);
  ASSERT_EQ(parsed.Find("spans")->size(), 1u);
  EXPECT_EQ(parsed.Find("spans")->at(0).Find("name")->AsString(),
            "route/request");

  HttpRequest bad;
  bad.path = "/spanz";
  bad.query = "trace_id=zz";
  EXPECT_EQ(store.HandleQuery(bad).status, 400);
}

TEST(ReportTest, WriteReportRoundTrips) {
  MetricsRegistry::Global().Reset();
  TraceCollector::Global().Reset();
  TraceCollector::Global().set_recording(true);
  MetricsRegistry::Global().GetCounter("report/counter").Increment(3);
  {
    Span span("report/span");
    BusyWork(10000);
  }
  TraceCollector::Global().set_recording(false);

  const std::string path = ::testing::TempDir() + "/obs_report_test.json";
  ASSERT_TRUE(WriteReport(path));
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(buffer.str(), &parsed, &error)) << error;
  EXPECT_DOUBLE_EQ(
      parsed.Find("metrics")->Find("counters")->Find("report/counter")
          ->AsNumber(),
      3.0);
  EXPECT_GE(parsed.Find("spans")->Find("report/span")->Find("total_ms")
                ->AsNumber(),
            0.0);
  ASSERT_TRUE(parsed.Find("traceEvents")->is_array());
  EXPECT_EQ(parsed.Find("traceEvents")->size(), 1u);
  std::remove(path.c_str());
}

// Acceptance criterion: logging must add < 5% wall-clock overhead at the
// default (info) level. Hot loops log at DEBUG, so the cost of a disabled
// statement — one relaxed atomic load and a branch — is what matters. We
// compare a floating-point workload against the same workload with a
// disabled log statement per iteration, taking the min of several runs to
// damp scheduler noise, and also accept any run where the absolute
// disabled-statement cost is below 30ns (three orders of magnitude under
// the ~0.1ms instrumented units: a training step is >10ms, an encode >1ms).
TEST(OverheadTest, DisabledLoggingUnderFivePercent) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "timing bound is meaningless under TSan instrumentation";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "timing bound is meaningless under TSan instrumentation";
#endif
#endif
  Logger::Global().set_level(LogLevel::kInfo);  // default level
  constexpr int kIterations = 200000;
  volatile double sink = 0.0;

  auto baseline_pass = [&sink]() {
    for (int i = 0; i < kIterations; ++i) {
      sink = sink + static_cast<double>(i) * 1.0000001;
    }
  };
  auto logged_pass = [&sink]() {
    for (int i = 0; i < kIterations; ++i) {
      TELEKIT_LOG(DEBUG) << "hot loop" << F("i", i);
      sink = sink + static_cast<double>(i) * 1.0000001;
    }
  };
  auto time_ns = [](auto&& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  int64_t baseline = INT64_MAX, logged = INT64_MAX;
  for (int run = 0; run < 5; ++run) {
    baseline = std::min(baseline, time_ns(baseline_pass));
    logged = std::min(logged, time_ns(logged_pass));
  }
  const double per_iteration_ns =
      static_cast<double>(logged - baseline) / kIterations;
  EXPECT_TRUE(logged <= baseline + baseline / 20 || per_iteration_ns < 30.0)
      << "baseline=" << baseline << "ns logged=" << logged
      << "ns per_iteration_overhead=" << per_iteration_ns << "ns";
}

}  // namespace
}  // namespace obs
}  // namespace telekit
