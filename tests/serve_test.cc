#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/model_zoo.h"
#include "core/qencode.h"
#include "obs/metrics.h"
#include "obs/requestlog.h"
#include "obs/spanstore.h"
#include "obs/trace.h"
#include "serve/daemon_kit.h"
#include "serve/embedding_cache.h"
#include "serve/engine.h"
#include "serve/line_io.h"
#include "serve/model_host.h"
#include "serve/ndjson_server.h"
#include "serve/protocol.h"
#include "serve/work_queue.h"
#include "tasks/scoring.h"
#include "tensor/compute_pool.h"
#include "tensor/simd.h"

namespace telekit {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// EmbeddingCache
// ---------------------------------------------------------------------------

TEST(EmbeddingCacheTest, PutGetEvict) {
  EmbeddingCache cache(/*capacity=*/4, /*num_shards=*/1);
  for (uint64_t k = 0; k < 4; ++k) {
    cache.Put(k, {static_cast<float>(k)});
  }
  std::vector<float> out;
  ASSERT_TRUE(cache.Get(0, &out));
  EXPECT_EQ(out, std::vector<float>({0.0f}));
  // Key 0 is now MRU; inserting a 5th entry evicts the LRU tail (key 1).
  cache.Put(99, {99.0f});
  EXPECT_FALSE(cache.Get(1, &out));
  EXPECT_TRUE(cache.Get(0, &out));
  EXPECT_TRUE(cache.Get(99, &out));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.size(), cache.capacity());
}

TEST(EmbeddingCacheTest, RefreshReplacesValue) {
  EmbeddingCache cache(4, 1);
  cache.Put(7, {1.0f});
  cache.Put(7, {2.0f});
  std::vector<float> out;
  ASSERT_TRUE(cache.Get(7, &out));
  EXPECT_EQ(out, std::vector<float>({2.0f}));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EmbeddingCacheTest, HashDependsOnIdsAndLength) {
  std::vector<int> a{5, 6, 7, 0, 0};
  std::vector<int> b{5, 6, 8, 0, 0};
  EXPECT_NE(EmbeddingCache::HashIds(a, 3), EmbeddingCache::HashIds(b, 3));
  // Padding beyond `length` is ignored...
  std::vector<int> c{5, 6, 7, 9, 9};
  EXPECT_EQ(EmbeddingCache::HashIds(a, 3), EmbeddingCache::HashIds(c, 3));
  // ...but the length itself is part of the key.
  EXPECT_NE(EmbeddingCache::HashIds(a, 3), EmbeddingCache::HashIds(a, 4));
}

TEST(EmbeddingCacheTest, SameLowHashDifferentHighDoesNotAlias) {
  // A 64-bit collision (same lo, different hi) must read as a miss, not
  // silently return the other input's vector.
  EmbeddingCache cache(8, 1);
  const CacheKey a{42, 1};
  const CacheKey b{42, 2};
  cache.Put(a, {1.0f});
  std::vector<float> out;
  EXPECT_FALSE(cache.Get(b, &out));
  ASSERT_TRUE(cache.Get(a, &out));
  EXPECT_EQ(out, std::vector<float>({1.0f}));
}

TEST(EmbeddingCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  EmbeddingCache cache(64, 5);
  EXPECT_EQ(cache.num_shards(), 8);
}

// Hammer one cache from many threads; under TSan this is the memory-safety
// test, without it it still checks the accounting invariants.
TEST(EmbeddingCacheTest, ConcurrentMixedLoadKeepsInvariants) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr uint64_t kKeySpace = 96;
  EmbeddingCache cache(/*capacity=*/64, /*num_shards=*/8);
  std::atomic<uint64_t> gets{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &gets, t] {
      std::vector<float> out;
      uint64_t state = 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t key = (state >> 33) % kKeySpace;
        if ((state & 3) == 0) {
          cache.Put(key, {static_cast<float>(key)});
        } else {
          gets.fetch_add(1);
          if (cache.Get(key, &out)) {
            // A hit must return the value Put stored for this key.
            ASSERT_EQ(out.size(), 1u);
            ASSERT_EQ(out[0], static_cast<float>(key));
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_EQ(cache.hits() + cache.misses(), gets.load());
  EXPECT_GT(cache.hits(), 0u);
}

// ---------------------------------------------------------------------------
// WorkQueue
// ---------------------------------------------------------------------------

TEST(WorkQueueTest, PopTakesOneItemWhileSeveralWait) {
  WorkQueue<int> queue(16);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.Push(std::move(i)));
  EXPECT_EQ(queue.Pop(), std::optional<int>(0));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.Pop(), std::optional<int>(1));
  EXPECT_EQ(queue.size(), 2u);
}

TEST(WorkQueueTest, BackpressureAndClose) {
  WorkQueue<int> queue(2);
  int v = 0;
  EXPECT_TRUE(queue.Push(std::move(v)));
  EXPECT_TRUE(queue.Push(std::move(v)));
  EXPECT_FALSE(queue.Push(std::move(v)));  // full
  queue.Close();
  EXPECT_FALSE(queue.Push(std::move(v)));  // closed
  EXPECT_TRUE(queue.Pop().has_value());    // drains after close
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_FALSE(queue.Pop().has_value());   // closed + drained
}

// Regression: with several consumers on trickle traffic, two consumers
// could pass the first wait on the same single item; the loser of the pop
// race then timed out over a drained-but-open queue and returned empty,
// which callers treat as "closed" (ServeEngine workers exit on it).
TEST(WorkQueueTest, EmptyPopMeansClosedUnderManyConsumers) {
  WorkQueue<int> queue(1024);
  std::atomic<bool> closing{false};
  std::atomic<int> popped{0};
  std::atomic<int> premature_empty{0};
  std::vector<std::thread> consumers;
  for (int t = 0; t < 4; ++t) {
    consumers.emplace_back([&] {
      while (true) {
        if (!queue.Pop().has_value()) {
          if (!closing.load()) premature_empty.fetch_add(1);
          return;
        }
        popped.fetch_add(1);
      }
    });
  }
  constexpr int kItems = 300;
  for (int i = 0; i < kItems; ++i) {
    int item = i;
    ASSERT_TRUE(queue.Push(std::move(item)));
    if (i % 3 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  closing.store(true);
  queue.Close();
  for (auto& thread : consumers) thread.join();
  EXPECT_EQ(premature_empty.load(), 0);
  EXPECT_EQ(popped.load(), kItems);
}

/// Blocks until `queue` has `count` parked consumers (fails after 10 s).
void WaitParked(const WorkQueue<int>& queue, size_t count) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (queue.parked() != count) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "parked " << queue.parked() << ", want " << count;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

// LIFO wake: the consumer that parked last gets the item, so light traffic
// stays on one warm consumer instead of rotating through all of them.
TEST(WorkQueueTest, PushWakesTheNewestParkedConsumer) {
  WorkQueue<int> queue(16);
  std::optional<int> got_a;
  std::optional<int> got_b;
  std::thread a([&] { got_a = queue.Pop(); });
  WaitParked(queue, 1);
  std::thread b([&] { got_b = queue.Pop(); });
  WaitParked(queue, 2);
  EXPECT_TRUE(queue.Push(42));
  b.join();
  EXPECT_EQ(got_b, std::optional<int>(42));
  EXPECT_EQ(queue.parked(), 1u);  // A is still parked
  queue.Close();
  a.join();
  EXPECT_FALSE(got_a.has_value());
}

TEST(WorkQueueTest, CloseWakesEveryParkedConsumer) {
  WorkQueue<int> queue(16);
  std::atomic<int> returned_empty{0};
  std::vector<std::thread> consumers;
  for (int t = 0; t < 4; ++t) {
    consumers.emplace_back([&] {
      if (!queue.Pop().has_value()) returned_empty.fetch_add(1);
    });
  }
  WaitParked(queue, 4);
  queue.Close();
  for (auto& thread : consumers) thread.join();
  EXPECT_EQ(returned_empty.load(), 4);
  EXPECT_EQ(queue.parked(), 0u);
}

// ---------------------------------------------------------------------------
// Scoring
// ---------------------------------------------------------------------------

TEST(ScoringTest, TopKByCosineRanksAndClamps) {
  std::vector<std::string> names{"a", "b", "c"};
  std::vector<std::vector<float>> embeddings{
      {1.0f, 0.0f}, {0.7f, 0.7f}, {-1.0f, 0.0f}};
  const std::vector<float> query{1.0f, 0.0f};
  auto top = tasks::TopKByCosine(query, names, embeddings, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].name, "a");
  EXPECT_NEAR(top[0].score, 1.0f, 1e-6);
  EXPECT_EQ(top[1].name, "b");
  // k <= 0 returns the full ranking.
  EXPECT_EQ(tasks::TopKByCosine(query, names, embeddings, 0).size(), 3u);
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ProtocolTest, ParsesFullRequest) {
  Request request;
  const Status status = ParseRequestLine(
      R"({"op":"rca","text":"link down","mode":"entity_attr",)"
      R"("top_k":3,"deadline_ms":50})",
      &request);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(request.op, TaskOp::kRca);
  EXPECT_EQ(request.text, "link down");
  EXPECT_EQ(request.mode, core::ServiceMode::kEntityWithAttr);
  EXPECT_EQ(request.top_k, 3);
  EXPECT_DOUBLE_EQ(request.deadline_ms, 50.0);
}

TEST(ProtocolTest, RejectsBadRequests) {
  Request request;
  EXPECT_FALSE(ParseRequestLine("not json", &request).ok());
  EXPECT_FALSE(ParseRequestLine("[1,2]", &request).ok());
  EXPECT_FALSE(ParseRequestLine(R"({"op":"rca"})", &request).ok());
  EXPECT_FALSE(ParseRequestLine(R"({"text":""})", &request).ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"nope","text":"x"})", &request).ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"text":"x","deadline_ms":-1})", &request).ok());
  // Numbers an int or a steady_clock deadline cannot hold (1e400 parses
  // as inf): INVALID_ARGUMENT, naming the field.
  const std::pair<const char*, const char*> out_of_range[] = {
      {R"({"text":"x","deadline_ms":1e13})", "deadline_ms"},
      {R"({"text":"x","deadline_ms":1e300})", "deadline_ms"},
      {R"({"text":"x","deadline_ms":1e400})", "deadline_ms"},
      {R"({"text":"x","top_k":3e9})", "top_k"},
      {R"({"text":"x","top_k":-3e9})", "top_k"},
      {R"({"text":"x","top_k":1e400})", "top_k"},
      {R"({"text":"x","ef_search":3e9})", "ef_search"},
      {R"({"text":"x","ef_search":1e400})", "ef_search"},
  };
  for (const auto& [line, field] : out_of_range) {
    const Status status = ParseRequestLine(line, &request);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(status.message().find(field), std::string::npos)
        << status.message();
  }
  ASSERT_TRUE(
      ParseRequestLine(R"({"text":"x","deadline_ms":1e9})", &request).ok());
  EXPECT_EQ(request.deadline_ms, kMaxDeadlineMs);
}

TEST(ProtocolTest, ResponseRoundTripsThroughJson) {
  Request request;
  request.op = TaskOp::kEap;
  Response response;
  response.results.push_back({"alarm A", 0.75f});
  response.cache_hit = true;
  obs::JsonValue id(std::string("req-1"));
  const obs::JsonValue json = ResponseToJson(request, response, &id);
  EXPECT_TRUE(json.Find("ok")->AsBool());
  EXPECT_EQ(json.Find("id")->AsString(), "req-1");
  EXPECT_EQ(json.Find("op")->AsString(), "eap");
  EXPECT_EQ(json.Find("results")->size(), 1u);
  EXPECT_TRUE(json.Find("cache_hit")->AsBool());
  EXPECT_EQ(json.Find("batch_size"), nullptr);

  Response failed;
  failed.status = Status::DeadlineExceeded("late");
  const obs::JsonValue error = ResponseToJson(request, failed, nullptr);
  EXPECT_FALSE(error.Find("ok")->AsBool());
  EXPECT_EQ(error.Find("error")->Find("message")->AsString(), "late");
}

TEST(ProtocolTest, ParsesTraceField) {
  Request request;
  // Hex string: supplies the id and opts into timing echo.
  ASSERT_TRUE(
      ParseRequestLine(R"({"text":"x","trace":"deadbeef"})", &request).ok());
  EXPECT_EQ(request.trace_id, 0xdeadbeefu);
  EXPECT_TRUE(request.echo_timing);
  // Boolean true: server assigns the id, timing still echoed.
  ASSERT_TRUE(ParseRequestLine(R"({"text":"x","trace":true})", &request).ok());
  EXPECT_EQ(request.trace_id, 0u);
  EXPECT_TRUE(request.echo_timing);
  ASSERT_TRUE(
      ParseRequestLine(R"({"text":"x","trace":false})", &request).ok());
  EXPECT_FALSE(request.echo_timing);
  // Anything else is a protocol error.
  EXPECT_FALSE(
      ParseRequestLine(R"({"text":"x","trace":"zz"})", &request).ok());
  EXPECT_FALSE(ParseRequestLine(R"({"text":"x","trace":12})", &request).ok());
}

TEST(ProtocolTest, ParsesParentSpanField) {
  Request request;
  // The router's per-attempt hop span, parenting this replica's spans.
  ASSERT_TRUE(
      ParseRequestLine(R"({"text":"x","parent_span":"beef"})", &request)
          .ok());
  EXPECT_EQ(request.parent_span, 0xbeefu);
  // Absent or null: this process is the trace root.
  ASSERT_TRUE(ParseRequestLine(R"({"text":"x"})", &request).ok());
  EXPECT_EQ(request.parent_span, 0u);
  ASSERT_TRUE(
      ParseRequestLine(R"({"text":"x","parent_span":null})", &request).ok());
  EXPECT_EQ(request.parent_span, 0u);
  EXPECT_FALSE(
      ParseRequestLine(R"({"text":"x","parent_span":"zz"})", &request).ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"text":"x","parent_span":7})", &request).ok());
}

TEST(ProtocolTest, ResponsesEchoTraceOnEveryPath) {
  Request request;
  request.op = TaskOp::kEncode;
  Response response;
  response.trace_id = 0xabcu;
  response.vector = {1.0f};

  // Success path: trace rides as a 16-hex-digit string.
  const obs::JsonValue ok = ResponseToJson(request, response, nullptr);
  EXPECT_EQ(ok.Find("trace")->AsString(), "0000000000000abc");
  EXPECT_EQ(ok.Find("timing"), nullptr);  // not requested

  // Timing echo, opt-in via the request.
  request.echo_timing = true;
  response.queue_ms = 1.5;
  response.batch_ms = 2.0;
  response.encode_ms = 1.0;
  response.score_ms = 0.25;
  response.total_ms = 4.0;
  const obs::JsonValue timed = ResponseToJson(request, response, nullptr);
  const obs::JsonValue* timing = timed.Find("timing");
  ASSERT_NE(timing, nullptr);
  EXPECT_DOUBLE_EQ(timing->Find("queue_us")->AsNumber(), 1500.0);
  EXPECT_DOUBLE_EQ(timing->Find("batch_us")->AsNumber(), 2000.0);
  EXPECT_DOUBLE_EQ(timing->Find("encode_us")->AsNumber(), 1000.0);
  EXPECT_DOUBLE_EQ(timing->Find("score_us")->AsNumber(), 250.0);
  EXPECT_DOUBLE_EQ(timing->Find("total_us")->AsNumber(), 4000.0);

  // Engine error path: trace (and requested timing) still come back.
  Response failed;
  failed.trace_id = 0xdeadbeefu;
  failed.status = Status::DeadlineExceeded("late");
  failed.queue_ms = 3.0;
  failed.total_ms = 3.0;
  const obs::JsonValue error = ResponseToJson(request, failed, nullptr);
  EXPECT_FALSE(error.Find("ok")->AsBool());
  EXPECT_EQ(error.Find("trace")->AsString(), "00000000deadbeef");
  ASSERT_NE(error.Find("timing"), nullptr);
  EXPECT_DOUBLE_EQ(error.Find("timing")->Find("queue_us")->AsNumber(),
                   3000.0);

  // Parse-failure path: a salvaged trace id is echoed, absence is null.
  const obs::JsonValue with_trace =
      ErrorToJson(Status::InvalidArgument("bad"), nullptr, 0x12u);
  EXPECT_EQ(with_trace.Find("trace")->AsString(), "0000000000000012");
  const obs::JsonValue without_trace =
      ErrorToJson(Status::InvalidArgument("bad"), nullptr);
  EXPECT_TRUE(without_trace.Find("trace")->is_null());
  EXPECT_TRUE(without_trace.Find("id")->is_null());
}

// ---------------------------------------------------------------------------
// Batched-forward determinism + engine end-to-end (shared tiny zoo)
// ---------------------------------------------------------------------------

core::ZooConfig TinyServeConfig() {
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

// One fully-built zoo shared by every test below (magic static: built on
// first use, concurrently-safe). shared_ptr-backed so the model-host tests
// can hand it to BuildModelBundle without a second build.
std::shared_ptr<core::ModelZoo> SharedZooPtr() {
  static std::shared_ptr<core::ModelZoo>* zoo = [] {
    auto z = std::make_shared<core::ModelZoo>(TinyServeConfig());
    z->Build();
    return new std::shared_ptr<core::ModelZoo>(std::move(z));
  }();
  return *zoo;
}

const core::ModelZoo& SharedZoo() { return *SharedZooPtr(); }

TEST(BatchedForwardTest, ServiceEncoderBatchMatchesSingle) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  std::vector<std::string> names;
  for (size_t i = 0; i < 6; ++i) names.push_back(zoo.world().alarms()[i].name);
  for (core::ServiceMode mode :
       {core::ServiceMode::kOnlyName, core::ServiceMode::kEntityNoAttr,
        core::ServiceMode::kEntityWithAttr}) {
    const auto batched = service.EncodeBatch(names, mode);
    ASSERT_EQ(batched.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(batched[i], service.Encode(names[i], mode));
    }
  }
}

// The batched encoder path must produce bit-identical embeddings whether the
// ComputePool runs serial or with 4 workers, and still agree with the
// single-sequence path under threads > 1.
TEST(BatchedForwardTest, EncodeInputsBitIdenticalAcrossComputeThreads) {
  const core::ModelZoo& zoo = SharedZoo();
  const core::TeleBert& model = zoo.telebert();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  const auto& inputs = zoo.retrain_data().causal_sentences;
  ASSERT_GE(inputs.size(), 5u);
  std::vector<const text::EncodedInput*> batch;
  for (size_t i = 0; i < 5; ++i) batch.push_back(&inputs[i]);

  const int previous = tensor::ComputeThreads();
  tensor::SetComputeThreads(1);
  const auto serial = service.EncodeInputs(batch);
  ASSERT_EQ(serial.size(), 5u);

  tensor::SetComputeThreads(4);
  const auto parallel = service.EncodeInputs(batch);
  ASSERT_EQ(parallel.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    // Determinism contract: the fixed chunk grid makes the parallel batched
    // forward bit-identical to the serial one, not merely close.
    EXPECT_EQ(parallel[i], serial[i]) << "sequence " << i;
    // And the batched path gives the single-sequence path's bits.
    EXPECT_EQ(parallel[i], model.ServiceVector(inputs[i])) << "sequence " << i;
  }
  tensor::SetComputeThreads(previous);
}

// --- The tape-free inference forward ------------------------------------------

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Runs `check` on the scalar and the detected SIMD backend at 1, 2 and 4
// compute threads, then restores both.
void ForEachBackendAndThreadCount(
    const std::function<void(const std::string&)>& check) {
  const tensor::simd::Backend backend = tensor::simd::ActiveBackend();
  const int threads = tensor::ComputeThreads();
  for (tensor::simd::Backend b :
       {tensor::simd::Backend::kScalar, tensor::simd::DetectBackend()}) {
    tensor::simd::ForceBackend(b);
    for (int t : {1, 2, 4}) {
      tensor::SetComputeThreads(t);
      check(std::string(tensor::simd::BackendName(b)) +
            " threads=" + std::to_string(t));
    }
  }
  tensor::simd::ForceBackend(backend);
  tensor::SetComputeThreads(threads);
}

// The longest inputs first, so the projections are large enough for the
// compute pool to split them into several chunks.
std::vector<const text::EncodedInput*> LongestFirst(
    const std::vector<text::EncodedInput>& inputs, size_t count) {
  std::vector<const text::EncodedInput*> out;
  for (const auto& input : inputs) out.push_back(&input);
  std::stable_sort(out.begin(), out.end(), [](const auto* a, const auto* b) {
    return a->length > b->length;
  });
  out.resize(std::min(out.size(), count));
  return out;
}

TEST(InferenceForwardTest, TeleBertServiceVectorIsTheEvalForwardBitForBit) {
  const core::TeleBert& model = SharedZoo().telebert();
  const auto inputs =
      LongestFirst(SharedZoo().retrain_data().causal_sentences, 6);
  ASSERT_GE(inputs.front()->length, 16);
  ForEachBackendAndThreadCount([&](const std::string& where) {
    for (const text::EncodedInput* input : inputs) {
      Rng unused(0);
      const tensor::Tensor cls =
          model.EncodeCls(*input, unused, /*training=*/false);
      EXPECT_TRUE(SameBits(model.ServiceVector(*input), cls.data()))
          << where << " length=" << input->length;
    }
  });
}

TEST(InferenceForwardTest, KTeleBertWithNumericSlotsIsTheEvalForwardBitForBit) {
  const core::KTeleBert& model =
      SharedZoo().ktelebert(core::ModelKind::kKTeleBertStl);
  const auto inputs = LongestFirst(SharedZoo().retrain_data().machine_logs, 6);
  size_t slots = 0;
  for (const auto* input : inputs) slots += input->numeric_slots.size();
  ASSERT_GT(slots, 0u) << "machine logs should carry numeric slots";
  ForEachBackendAndThreadCount([&](const std::string& where) {
    for (const text::EncodedInput* input : inputs) {
      Rng unused(0);
      const tensor::Tensor cls =
          model.EncodeCls(*input, unused, /*training=*/false);
      EXPECT_TRUE(SameBits(model.ServiceVector(*input), cls.data()))
          << where << " length=" << input->length;
    }
  });
}

TEST(InferenceForwardTest, EncodeInputsDispatchesNoTensorOps) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  core::QuantizedEncoder quantized(zoo.telebert().encoder());
  const auto inputs = LongestFirst(zoo.retrain_data().causal_sentences, 8);
  quantized.Calibrate(inputs);
  const obs::Counter& dispatched =
      obs::MetricsRegistry::Global().GetCounter("tensor/ops_dispatched");
  const uint64_t before = dispatched.value();
  EXPECT_EQ(service.EncodeInputs(inputs).size(), inputs.size());
  EXPECT_EQ(dispatched.value(), before) << "fp32";
  EXPECT_EQ(quantized.EncodeBatch(inputs).size(), inputs.size());
  EXPECT_EQ(dispatched.value(), before) << "int8";
}

TEST(ServeEngineTest, EndToEndMixedOps) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  EngineOptions options;
  options.num_workers = 4;
  ServeEngine engine(&service, options);
  std::vector<std::string> names;
  for (const auto& alarm : zoo.world().alarms()) names.push_back(alarm.name);
  ASSERT_TRUE(engine.LoadCatalog(TaskOp::kRca, names).ok());
  ASSERT_TRUE(engine.LoadCatalog(TaskOp::kEap, names).ok());
  EXPECT_EQ(engine.CatalogSize(TaskOp::kRca), names.size());
  EXPECT_EQ(engine.CatalogSize(TaskOp::kFct), 0u);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 24; ++i) {
    Request request;
    request.op = (i % 3 == 0) ? TaskOp::kEncode
                              : (i % 3 == 1 ? TaskOp::kRca : TaskOp::kEap);
    request.text = names[static_cast<size_t>(i) % 6];
    request.top_k = 3;
    futures.push_back(engine.Submit(request));
  }
  int cache_hits = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    Response response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    if (i % 3 == 0) {
      EXPECT_EQ(static_cast<int>(response.vector.size()), service.dim());
    } else {
      ASSERT_EQ(response.results.size(), 3u);
      // The query text is itself a catalogue entry: it must rank first.
      EXPECT_EQ(response.results[0].name, names[i % 6]);
      EXPECT_GT(response.results[0].score, 0.99f);
    }
    cache_hits += response.cache_hit ? 1 : 0;
  }
  // LoadCatalog warmed the cache, and the 24 requests reuse 6 texts.
  EXPECT_GT(cache_hits, 0);
  EXPECT_GT(engine.cache().hits(), 0u);

  // Tasks without a catalogue fail cleanly.
  Request fct;
  fct.op = TaskOp::kFct;
  fct.text = names[0];
  EXPECT_EQ(engine.Submit(fct).get().status.code(),
            StatusCode::kFailedPrecondition);
}

// Reloading one op's catalogue while requests for another op are in
// flight is allowed by the engine contract; under TSan this test is the
// data-race check for the catalogue map, without it it checks results
// stay coherent.
TEST(ServeEngineTest, CatalogReloadDuringTraffic) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  EngineOptions options;
  options.num_workers = 2;
  ServeEngine engine(&service, options);
  std::vector<std::string> names;
  for (const auto& alarm : zoo.world().alarms()) names.push_back(alarm.name);
  ASSERT_TRUE(engine.LoadCatalog(TaskOp::kRca, names).ok());

  std::thread reloader([&] {
    for (int round = 0; round < 4; ++round) {
      ASSERT_TRUE(engine.LoadCatalog(TaskOp::kEap, names).ok());
    }
  });
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    Request request;
    request.op = TaskOp::kRca;
    request.text = names[static_cast<size_t>(i) % names.size()];
    request.top_k = 2;
    futures.push_back(engine.Submit(request));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const Response response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_EQ(response.results.size(), 2u);
    EXPECT_EQ(response.results[0].name, names[i % names.size()]);
  }
  reloader.join();
  EXPECT_EQ(engine.CatalogSize(TaskOp::kEap), names.size());
}

// A worker runs Process's per-request code, so both paths give the same
// reply bit for bit, for every op at both precisions.
TEST(ServeEngineTest, ProcessMatchesSubmit) {
  EngineOptions options;
  options.num_workers = 2;
  options.enable_cache = false;  // force real forwards on both paths
  BundleIndexOptions index_options;
  index_options.enable = true;
  index_options.num_tickets = 8;
  auto built =
      BuildModelBundle("telebert", SharedZooPtr(), options, index_options);
  ASSERT_TRUE(built.ok()) << built.status().message();
  ServeEngine& engine = *built.value()->engine;
  for (Precision precision : {Precision::kFp32, Precision::kInt8}) {
    for (TaskOp op : {TaskOp::kEncode, TaskOp::kRca, TaskOp::kEap,
                      TaskOp::kFct, TaskOp::kRetrieve,
                      TaskOp::kTroubleshoot}) {
      Request request;
      request.op = op;
      request.text = SharedZoo().world().alarms()[2].name;
      request.precision = precision;
      request.top_k = 3;
      const Response sync = engine.Process(request);
      const Response queued = engine.Submit(request).get();
      const std::string where =
          TaskOpName(op) + " " + PrecisionName(precision);
      ASSERT_TRUE(sync.status.ok()) << where << ": " << sync.status.ToString();
      EXPECT_EQ(queued.status.code(), sync.status.code()) << where;
      EXPECT_EQ(queued.status.message(), sync.status.message()) << where;
      EXPECT_EQ(queued.vector, sync.vector) << where;
      ASSERT_EQ(queued.results.size(), sync.results.size()) << where;
      for (size_t i = 0; i < sync.results.size(); ++i) {
        EXPECT_EQ(queued.results[i].name, sync.results[i].name) << where;
        EXPECT_EQ(queued.results[i].score, sync.results[i].score) << where;
      }
      ASSERT_EQ(queued.docs.size(), sync.docs.size()) << where;
      for (size_t i = 0; i < sync.docs.size(); ++i) {
        EXPECT_EQ(queued.docs[i].doc_id, sync.docs[i].doc_id) << where;
        EXPECT_EQ(queued.docs[i].title, sync.docs[i].title) << where;
        EXPECT_EQ(queued.docs[i].kind, sync.docs[i].kind) << where;
        EXPECT_EQ(queued.docs[i].score, sync.docs[i].score) << where;
      }
      EXPECT_EQ(queued.cache_hit, sync.cache_hit) << where;
    }
  }
}

// Every completed request leaves a "serve/request" span (plus stage
// children) in the process-global SpanStore, parented to the caller's hop
// span — that is what the router's /tracezd assembler stitches into the
// cross-process tree.
TEST(ServeEngineTest, RecordsSpansParentedToCallerHop) {
  obs::SpanStore::Global().Reset();
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  EngineOptions options;
  options.num_workers = 1;
  options.enable_cache = false;
  ServeEngine engine(&service, options);
  Request request;
  request.op = TaskOp::kEncode;
  request.text = zoo.world().alarms()[0].name;
  request.trace_id = 0x1234u;
  request.parent_span = 0x99u;
  const Response response = engine.Process(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();

  const std::vector<obs::SpanRecord> spans =
      obs::SpanStore::Global().Query(0x1234u);
  ASSERT_FALSE(spans.empty());
  const obs::SpanRecord* root = nullptr;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "serve/request") root = &span;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_span, 0x99u);
  EXPECT_TRUE(root->ok);
  EXPECT_EQ(root->outcome, "ok");
  EXPECT_GT(root->dur_us, 0u);
  // Stage children hang off the serve root and start inside its window.
  int children = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "serve/request") continue;
    EXPECT_EQ(span.parent_span, root->span_id) << span.name;
    EXPECT_GE(span.start_unix_us, root->start_unix_us - 1.0) << span.name;
    EXPECT_LE(span.start_unix_us + static_cast<double>(span.dur_us),
              root->start_unix_us + static_cast<double>(root->dur_us) + 1.0)
        << span.name;
    ++children;
  }
  EXPECT_GE(children, 1);  // a real forward always spends encode time
  obs::SpanStore::Global().Reset();
}

TEST(ServeEngineTest, BackpressureRejectsWhenQueueFull) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  EngineOptions options;
  options.num_workers = 0;  // nothing drains the queue
  options.queue_capacity = 2;
  ServeEngine engine(&service, options);
  Request request;
  request.text = zoo.world().alarms()[0].name;
  auto f1 = engine.Submit(request);
  auto f2 = engine.Submit(request);
  auto f3 = engine.Submit(request);  // over capacity: rejected immediately
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f3.get().status.code(), StatusCode::kUnavailable);
  engine.Stop();  // fails the two queued requests
  EXPECT_EQ(f1.get().status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(f2.get().status.code(), StatusCode::kUnavailable);
  // Submitting after Stop is rejected, not lost.
  EXPECT_EQ(engine.Submit(request).get().status.code(),
            StatusCode::kUnavailable);
}

TEST(ServeEngineTest, LapsedDeadlineFailsBeforeEncoding) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  EngineOptions options;
  options.num_workers = 0;
  ServeEngine engine(&service, options);
  Request request;
  request.text = zoo.world().alarms()[0].name;
  request.deadline_ms = 1e-6;  // lapses immediately
  auto future = engine.Submit(request);
  // Give the deadline time to pass, then start a worker-equivalent drain by
  // stopping: Stop() fails queued requests as Unavailable, but a live
  // worker fails them as DeadlineExceeded — simulate that path directly.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  engine.Stop();
  const Response response = future.get();
  EXPECT_FALSE(response.status.ok());
}

TEST(ServeEngineTest, DeadlineExceededThroughWorker) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  EngineOptions options;
  options.num_workers = 1;
  ServeEngine engine(&service, options);
  Request request;
  request.text = zoo.world().alarms()[1].name;
  request.deadline_ms = 1e-6;
  const Response response = engine.Submit(request).get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.vector.empty());
}

TEST(ServeEngineTest, CompletionFiresOnceOnEveryPath) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  struct Outcome {
    std::atomic<int> calls{0};
    StatusCode code = StatusCode::kOk;
    std::thread::id thread;
  };
  const auto record = [](Outcome* outcome) {
    return [outcome](Response response) {
      outcome->code = response.status.code();
      outcome->thread = std::this_thread::get_id();
      outcome->calls.fetch_add(1);
    };
  };
  const auto settled = [](const Outcome& outcome) {
    for (int i = 0; i < 5000 && outcome.calls.load() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return outcome.calls.load() > 0;
  };
  Request request;
  request.text = zoo.world().alarms()[0].name;
  Outcome served, lapsed, rejected, stopped, after_stop;
  {
    EngineOptions options;
    options.num_workers = 1;
    ServeEngine engine(&service, options);
    // Success and a lapsed deadline: the worker calls back.
    engine.Submit(request, record(&served));
    Request late = request;
    late.deadline_ms = 1e-6;
    engine.Submit(late, record(&lapsed));
    ASSERT_TRUE(settled(served));
    ASSERT_TRUE(settled(lapsed));
    EXPECT_EQ(served.code, StatusCode::kOk);
    EXPECT_NE(served.thread, std::this_thread::get_id());
    EXPECT_EQ(lapsed.code, StatusCode::kDeadlineExceeded);
    EXPECT_NE(lapsed.thread, std::this_thread::get_id());
  }
  {
    EngineOptions options;
    options.num_workers = 0;  // nothing drains the queue
    options.queue_capacity = 1;
    ServeEngine engine(&service, options);
    engine.Submit(request, record(&stopped));
    // Queue full: answered on this thread before Submit returns.
    engine.Submit(request, record(&rejected));
    EXPECT_EQ(rejected.calls.load(), 1);
    EXPECT_EQ(rejected.code, StatusCode::kUnavailable);
    EXPECT_EQ(rejected.thread, std::this_thread::get_id());
    EXPECT_EQ(stopped.calls.load(), 0);
    // Stop answers what is still queued, and Submit after Stop is refused.
    engine.Stop();
    EXPECT_EQ(stopped.calls.load(), 1);
    EXPECT_EQ(stopped.code, StatusCode::kUnavailable);
    engine.Submit(request, record(&after_stop));
    EXPECT_EQ(after_stop.calls.load(), 1);
    EXPECT_EQ(after_stop.code, StatusCode::kUnavailable);
  }
  // The engines are gone: no path called back twice.
  for (const Outcome* outcome :
       {&served, &lapsed, &rejected, &stopped, &after_stop}) {
    EXPECT_EQ(outcome->calls.load(), 1);
  }
}

// A lone request on an idle engine is not held back: a parked worker takes
// it at once.
TEST(ServeEngineTest, LoneRequestIsNotHeldForABatch) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  ServeEngine engine(&service, EngineOptions{});
  Request request;
  request.text = zoo.world().alarms()[2].name;
  std::vector<double> queue_ms;
  for (int i = 0; i < 20; ++i) {
    const Response response = engine.Submit(request).get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    queue_ms.push_back(response.queue_ms);
  }
  std::nth_element(queue_ms.begin(), queue_ms.begin() + 10, queue_ms.end());
  EXPECT_LT(queue_ms[10], 1.0);

  // Idle again: every worker parks, so none counts as busy.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.GetStats().busy_workers != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(engine.GetStats().busy_workers, 0);
}

TEST(ServeEngineTest, TraceIdsCorrelateRequestAndResponse) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  EngineOptions options;
  options.num_workers = 2;
  ServeEngine engine(&service, options);

  // Caller-supplied id comes back verbatim on the happy path.
  Request request;
  request.op = TaskOp::kEncode;
  request.text = zoo.world().alarms()[0].name;
  request.trace_id = 0x1234u;
  EXPECT_EQ(engine.Submit(request).get().trace_id, 0x1234u);
  // Absent id: the engine assigns one (Submit and Process both).
  request.trace_id = 0;
  EXPECT_NE(engine.Submit(request).get().trace_id, 0u);
  EXPECT_NE(engine.Process(request).trace_id, 0u);

  // Engine-failure paths still carry the id.
  Request fct;
  fct.op = TaskOp::kFct;  // no catalogue loaded
  fct.text = request.text;
  fct.trace_id = 0x77u;
  const Response failed = engine.Submit(fct).get();
  EXPECT_FALSE(failed.status.ok());
  EXPECT_EQ(failed.trace_id, 0x77u);
}

TEST(ServeEngineTest, RejectionPathsEchoTraceId) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  EngineOptions options;
  options.num_workers = 0;  // nothing drains the queue
  options.queue_capacity = 1;
  ServeEngine engine(&service, options);
  Request request;
  request.text = zoo.world().alarms()[0].name;
  request.trace_id = 0xa1u;
  auto queued = engine.Submit(request);
  request.trace_id = 0xa2u;
  auto rejected = engine.Submit(request);  // over capacity
  const Response rejected_response = rejected.get();
  EXPECT_EQ(rejected_response.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(rejected_response.trace_id, 0xa2u);
  engine.Stop();  // fails the queued request as Unavailable
  const Response stopped_response = queued.get();
  EXPECT_EQ(stopped_response.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(stopped_response.trace_id, 0xa1u);
}

TEST(ServeEngineTest, StageTimingsAndSlowRequestCapture) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  EngineOptions options;
  options.num_workers = 2;
  options.enable_cache = false;        // force real encode time
  options.slow_request_ms = 1e-6;      // everything counts as slow
  ServeEngine engine(&service, options);
  const obs::Counter& slow_requests =
      obs::MetricsRegistry::Global().GetCounter("serve/slow_requests");
  const uint64_t slow_before = slow_requests.value();
  obs::TraceCollector::Global().Reset();

  Request request;
  request.op = TaskOp::kEncode;
  request.text = zoo.world().alarms()[3].name;
  request.trace_id = 0xfeedu;
  const Response response = engine.Submit(request).get();
  ASSERT_TRUE(response.status.ok());
  // Stage timings are filled and consistent: the time after the queue
  // (batch_ms) covers encode and scoring, and the total covers the queue
  // plus that.
  EXPECT_GT(response.batch_ms, 0.0);
  EXPECT_GT(response.encode_ms, 0.0);
  EXPECT_GE(response.batch_ms, response.score_ms);
  EXPECT_GE(response.total_ms, response.queue_ms);
  EXPECT_GE(response.total_ms, response.batch_ms);

  // The slow-request threshold counted it, and /tracez finds it in the
  // request log with a filter at that threshold.
  EXPECT_EQ(slow_requests.value(), slow_before + 1);
  obs::HttpRequest tracez;
  tracez.path = "/tracez";
  tracez.query = "trace_id=000000000000feed&min_ms=0.000001";
  const obs::HttpResponse reply =
      obs::RequestLog::Global().HandleTraceQuery(tracez);
  ASSERT_EQ(reply.status, 200);
  obs::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(reply.body, &parsed, &error)) << error;
  const obs::JsonValue& slices = *parsed.Find("traceEvents");
  ASSERT_GT(slices.size(), 0u);
  EXPECT_EQ(slices.at(0).Find("name")->AsString(), "encode/request");
  EXPECT_EQ(slices.at(0).Find("args")->Find("trace")->AsString(),
            "000000000000feed");
  // A served request records its timing in the request log and the span
  // store, not as TraceCollector spans.
  EXPECT_TRUE(obs::TraceCollector::Global().Aggregate().empty());
}

TEST(ServeEngineTest, GetStatsReflectsQueueAndCache) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  EngineOptions options;
  options.num_workers = 0;  // queue state is fully deterministic
  options.queue_capacity = 2;
  ServeEngine engine(&service, options);
  EngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.queue_capacity, 2u);
  EXPECT_EQ(stats.num_workers, 0);
  EXPECT_EQ(stats.busy_workers, 0);
  EXPECT_FALSE(stats.saturated);

  Request request;
  request.text = zoo.world().alarms()[0].name;
  auto f1 = engine.Submit(request);
  auto f2 = engine.Submit(request);
  stats = engine.GetStats();
  EXPECT_EQ(stats.queue_depth, 2u);
  EXPECT_TRUE(stats.saturated);  // the next Submit would be rejected
  engine.Stop();
  f1.get();
  f2.get();
}

// ---------------------------------------------------------------------------
// Concurrency satellites: tokenizer + ModelZoo single-flight
// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, TokenizerEncodesConcurrently) {
  const core::ModelZoo& zoo = SharedZoo();
  const text::Tokenizer& tokenizer = zoo.tokenizer();
  std::vector<std::string> sentences;
  for (size_t i = 0; i < 8; ++i) {
    sentences.push_back(zoo.world().alarms()[i].name);
  }
  std::vector<text::EncodedInput> reference;
  for (const auto& s : sentences) {
    reference.push_back(tokenizer.EncodeSentence(s));
  }
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 200; ++round) {
        const size_t i = static_cast<size_t>(t + round) % sentences.size();
        const text::EncodedInput got = tokenizer.EncodeSentence(sentences[i]);
        if (got.ids != reference[i].ids ||
            got.length != reference[i].length) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ModelZooBuildSingleFlights) {
  core::ZooConfig config = TinyServeConfig();
  config.pretrain.steps = 2;
  core::ModelZoo zoo(config);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&zoo] { zoo.BuildPretrained(); });
  }
  for (auto& thread : threads) thread.join();
  // All callers observe one materialized stack.
  const auto* world = &zoo.world();
  const auto* model = &zoo.telebert();
  zoo.BuildPretrained();  // idempotent re-entry
  EXPECT_EQ(world, &zoo.world());
  EXPECT_EQ(model, &zoo.telebert());
  EXPECT_GT(zoo.tokenizer().vocab().size(), 0u);
}

// ---------------------------------------------------------------------------
// Model host: variant table, generation bumps, zero-drop hot swap
// ---------------------------------------------------------------------------

TEST(ModelHostTest, ServeModelNameRoundTrips) {
  const std::vector<std::string> names = {"telebert", "ktelebert_stl",
                                          "ktelebert_pmtl", "ktelebert_imtl"};
  for (const std::string& name : names) {
    core::ModelKind kind;
    ASSERT_TRUE(ParseServeModel(name, &kind)) << name;
    EXPECT_EQ(ServeModelName(kind), name);
  }
  core::ModelKind kind;
  EXPECT_FALSE(ParseServeModel("bert_large", &kind));
  // "" is the wire default and resolves to TeleBERT.
  ASSERT_TRUE(ParseServeModel("", &kind));
  EXPECT_EQ(kind, core::ModelKind::kTeleBert);
}

TEST(ProtocolTest, ModelFieldParsesAndRejectsNonStrings) {
  obs::JsonValue json;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(
      R"({"op":"encode","text":"x","model":"ktelebert_stl"})", &json,
      &error));
  Request request;
  ASSERT_TRUE(ParseRequest(json, &request).ok());
  EXPECT_EQ(request.model, "ktelebert_stl");

  ASSERT_TRUE(obs::JsonValue::Parse(R"({"text":"x","model":7})", &json,
                                    &error));
  const Status status = ParseRequest(json, &request);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

EngineOptions TinyEngineOptions() {
  EngineOptions options;
  options.num_workers = 2;
  options.cache_capacity = 64;
  return options;
}

TEST(ModelHostTest, InstallAssignsGenerationsAndResolvesDefault) {
  ModelHost host("telebert");
  EXPECT_EQ(host.Resolve(""), nullptr);

  auto first = BuildModelBundle("telebert", SharedZooPtr(),
                                TinyEngineOptions());
  ASSERT_TRUE(first.ok()) << first.status().message();
  host.Install(std::move(first).value());
  ModelHost::BundlePtr resolved = host.Resolve("");
  ASSERT_NE(resolved, nullptr);
  EXPECT_EQ(resolved->model, "telebert");
  EXPECT_EQ(resolved->generation, 1u);
  EXPECT_EQ(host.Resolve("telebert"), resolved);
  EXPECT_EQ(host.Resolve("no_such_model"), nullptr);

  auto second = BuildModelBundle("telebert", SharedZooPtr(),
                                 TinyEngineOptions());
  ASSERT_TRUE(second.ok());
  host.Install(std::move(second).value());
  EXPECT_EQ(host.Resolve("")->generation, 2u);
  EXPECT_EQ(host.installs(), 2u);
  // The swapped-out generation is still alive through our pointer.
  EXPECT_EQ(resolved->generation, 1u);

  const obs::JsonValue status = host.StatusJson();
  EXPECT_EQ(status.Find("default")->AsString(), "telebert");
  ASSERT_EQ(status.Find("models")->size(), 1u);
  EXPECT_EQ(status.Find("models")->at(0).Find("generation")->AsNumber(), 2);
}

/// Dispatches one line through `handler`; the future holds its reply.
std::future<std::string> Dispatch(const LineHandler& handler,
                                  std::string line) {
  auto reply = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = reply->get_future();
  handler(std::move(line), [reply](std::string out) {
    reply->set_value(std::move(out));
  });
  return future;
}

TEST(ModelHostTest, LineHandlerStampsModelAndSurvivesHotSwap) {
  ModelHost host("telebert");
  auto bundle = BuildModelBundle("telebert", SharedZooPtr(),
                                 TinyEngineOptions());
  ASSERT_TRUE(bundle.ok());
  host.Install(std::move(bundle).value());
  std::atomic<bool> draining{false};
  const LineHandler handler = MakeServeLineHandler(&host, &draining);

  // A request admitted on generation 1...
  std::future<std::string> in_flight = Dispatch(
      handler, R"({"op":"encode","text":"hot swap survivor","id":"r1"})");
  // ...is not dropped by a swap to generation 2 (the old engine answers
  // what it admitted before it dies).
  auto next = BuildModelBundle("telebert", SharedZooPtr(),
                               TinyEngineOptions());
  ASSERT_TRUE(next.ok());
  host.Install(std::move(next).value());

  obs::JsonValue response;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(in_flight.get(), &response, &error));
  ASSERT_TRUE(response.Find("ok")->AsBool()) << response.Dump();
  EXPECT_EQ(response.Find("model")->AsString(), "telebert");
  EXPECT_EQ(response.Find("generation")->AsNumber(), 1);

  // New requests land on the new generation.
  ASSERT_TRUE(obs::JsonValue::Parse(
      Dispatch(handler, R"({"op":"encode","text":"after swap"})").get(),
      &response, &error));
  EXPECT_EQ(response.Find("generation")->AsNumber(), 2);

  // Unknown model: NOT_FOUND, not a retryable UNAVAILABLE.
  ASSERT_TRUE(obs::JsonValue::Parse(
      Dispatch(handler, R"({"op":"encode","text":"x","model":"nope"})").get(),
      &response, &error));
  ASSERT_FALSE(response.Find("ok")->AsBool());
  EXPECT_EQ(static_cast<int>(response.Find("error")->Find("code")->AsNumber()),
            static_cast<int>(StatusCode::kNotFound));

  // Draining: UNAVAILABLE so the router retries elsewhere.
  draining.store(true);
  ASSERT_TRUE(obs::JsonValue::Parse(
      Dispatch(handler, R"({"op":"encode","text":"x"})").get(), &response,
      &error));
  EXPECT_EQ(static_cast<int>(response.Find("error")->Find("code")->AsNumber()),
            static_cast<int>(StatusCode::kUnavailable));
}

// ---------------------------------------------------------------------------
// Precision (--precision=int8 quantized encode path)
// ---------------------------------------------------------------------------

double Cosine(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  return dot / (std::sqrt(na) * std::sqrt(nb) + 1e-12);
}

TEST(ProtocolTest, ParsesPrecisionField) {
  Request request;
  ASSERT_TRUE(
      ParseRequestLine(R"({"text":"x","precision":"int8"})", &request).ok());
  EXPECT_EQ(request.precision, Precision::kInt8);
  ASSERT_TRUE(
      ParseRequestLine(R"({"text":"x","precision":"fp32"})", &request).ok());
  EXPECT_EQ(request.precision, Precision::kFp32);
  // Omitted: kDefault, so the server's --precision flag decides.
  ASSERT_TRUE(ParseRequestLine(R"({"text":"x"})", &request).ok());
  EXPECT_EQ(request.precision, Precision::kDefault);
  EXPECT_FALSE(
      ParseRequestLine(R"({"text":"x","precision":"fp16"})", &request).ok());
}

TEST(EmbeddingCacheTest, HashSaltPartitionsKeySpace) {
  const std::vector<int> ids{5, 6, 7};
  const CacheKey fp32_key = EmbeddingCache::HashIds(ids, 3, /*salt=*/0);
  const CacheKey int8_key = EmbeddingCache::HashIds(ids, 3, /*salt=*/1);
  // Same ids + length under different salts must not collide — otherwise an
  // int8 request could be answered from the fp32 cache partition.
  EXPECT_NE(fp32_key, int8_key);
  // Default salt is 0 (the fp32 partition).
  EXPECT_EQ(EmbeddingCache::HashIds(ids, 3), fp32_key);
}

TEST(ServeEngineTest, Int8WithoutQuantizedEncoderFailsPrecondition) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  EngineOptions options;
  options.num_workers = 1;
  ServeEngine engine(&service, options);  // no int8 twin
  Request request;
  request.op = TaskOp::kEncode;
  request.text = zoo.world().alarms()[0].name;
  request.precision = Precision::kInt8;
  EXPECT_EQ(engine.Submit(request).get().status.code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Process(request).status.code(),
            StatusCode::kFailedPrecondition);
  // fp32 requests on the same engine still work.
  request.precision = Precision::kFp32;
  EXPECT_TRUE(engine.Process(request).status.ok());
}

TEST(ServeEngineTest, Int8RequestsServeFromQuantizedEncoder) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  core::QuantizedEncoder quantized(zoo.telebert().encoder());
  EngineOptions options;
  options.num_workers = 2;
  ServeEngine engine(&service, options, &quantized);
  obs::Counter& int8_requests = obs::MetricsRegistry::Global().GetCounter(
      "serve/precision_int8_requests");
  const uint64_t before = int8_requests.value();

  Request request;
  request.op = TaskOp::kEncode;
  request.text = zoo.world().alarms()[1].name;
  const Response fp32 = engine.Submit(request).get();
  ASSERT_TRUE(fp32.status.ok()) << fp32.status.ToString();

  request.precision = Precision::kInt8;
  const Response int8 = engine.Submit(request).get();
  ASSERT_TRUE(int8.status.ok()) << int8.status.ToString();
  ASSERT_EQ(static_cast<int>(int8.vector.size()), service.dim());
  EXPECT_EQ(int8_requests.value(), before + 1);

  // Same text, different precision: the salted cache keys keep the
  // partitions apart, so the int8 answer is the quantized forward — close
  // to fp32 in angle but not the cached fp32 bits.
  EXPECT_NE(int8.vector, fp32.vector);
  EXPECT_GE(Cosine(int8.vector, fp32.vector), 0.98);

  // A repeat hits the int8 cache partition and returns the same bits.
  const Response again = engine.Process(request);
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.vector, int8.vector);
}

TEST(ServeEngineTest, DefaultPrecisionOptionAppliesToUnspecifiedRequests) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service =
      zoo.MakeServiceEncoder(core::ModelKind::kTeleBert);
  core::QuantizedEncoder quantized(zoo.telebert().encoder());
  EngineOptions options;
  options.num_workers = 1;
  options.default_precision = Precision::kInt8;  // --precision=int8
  ServeEngine engine(&service, options, &quantized);
  obs::Counter& int8_requests = obs::MetricsRegistry::Global().GetCounter(
      "serve/precision_int8_requests");
  const uint64_t before = int8_requests.value();

  Request request;
  request.op = TaskOp::kEncode;
  request.text = zoo.world().alarms()[3].name;  // kDefault precision
  ASSERT_TRUE(engine.Process(request).status.ok());
  EXPECT_EQ(int8_requests.value(), before + 1);

  // An explicit fp32 request overrides the server default.
  request.precision = Precision::kFp32;
  ASSERT_TRUE(engine.Process(request).status.ok());
  EXPECT_EQ(int8_requests.value(), before + 1);
}

TEST(ModelHostTest, BundleServesInt8Requests) {
  auto built = BuildModelBundle("telebert", SharedZooPtr(),
                                TinyEngineOptions());
  ASSERT_TRUE(built.ok()) << built.status().message();
  std::shared_ptr<ModelBundle> bundle = std::move(built).value();
  ASSERT_NE(bundle->quantized, nullptr);

  Request request;
  request.op = TaskOp::kRca;
  request.text = SharedZoo().world().alarms()[0].name;
  request.precision = Precision::kInt8;
  request.top_k = 3;
  const Response response = bundle->engine->Process(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.results.size(), 3u);

  // KTeleBERT bundles carry a quantized twin too (ANEnc hook included).
  auto kbuilt = BuildModelBundle("ktelebert_stl", SharedZooPtr(),
                                 TinyEngineOptions());
  ASSERT_TRUE(kbuilt.ok()) << kbuilt.status().message();
  std::shared_ptr<ModelBundle> kbundle = std::move(kbuilt).value();
  ASSERT_NE(kbundle->quantized, nullptr);
  Request krequest;
  krequest.op = TaskOp::kEncode;
  krequest.text = SharedZoo().world().alarms()[2].name;
  krequest.precision = Precision::kInt8;
  const Response kresponse = kbundle->engine->Process(krequest);
  ASSERT_TRUE(kresponse.status.ok()) << kresponse.status.ToString();
  EXPECT_EQ(static_cast<int>(kresponse.vector.size()),
            kbundle->service->dim());
}

TEST(ProtocolTest, ParsesRetrievalOpsAndEfSearch) {
  obs::JsonValue json;
  std::string error;
  Request request;
  ASSERT_TRUE(obs::JsonValue::Parse(
      R"({"op":"retrieve","text":"x","top_k":4,"ef_search":64})", &json,
      &error));
  ASSERT_TRUE(ParseRequest(json, &request).ok());
  EXPECT_EQ(request.op, TaskOp::kRetrieve);
  EXPECT_EQ(request.top_k, 4);
  EXPECT_EQ(request.ef_search, 64);

  ASSERT_TRUE(obs::JsonValue::Parse(R"({"op":"troubleshoot","text":"x"})",
                                    &json, &error));
  ASSERT_TRUE(ParseRequest(json, &request).ok());
  EXPECT_EQ(request.op, TaskOp::kTroubleshoot);
  EXPECT_EQ(request.ef_search, 0);  // omitted -> the index default

  ASSERT_TRUE(obs::JsonValue::Parse(R"({"text":"x","ef_search":-1})", &json,
                                    &error));
  EXPECT_EQ(ParseRequest(json, &request).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(obs::JsonValue::Parse(R"({"text":"x","ef_search":"wide"})",
                                    &json, &error));
  EXPECT_EQ(ParseRequest(json, &request).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, ResponseCarriesDocsForRetrievalOps) {
  Request request;
  request.op = TaskOp::kRetrieve;
  request.text = "q";
  Response response;
  response.status = Status::Ok();
  response.docs.push_back({7, "ALM-7", "alarm", 0.9f});
  response.docs.push_back({3, "TKT-3", "ticket", 0.8f});
  const obs::JsonValue out = ResponseToJson(request, response, nullptr);
  ASSERT_NE(out.Find("docs"), nullptr);
  EXPECT_EQ(out.Find("docs")->size(), 2u);
  EXPECT_EQ(out.Find("docs")->at(0).Find("doc_id")->AsNumber(), 7);
  EXPECT_EQ(out.Find("docs")->at(0).Find("kind")->AsString(), "alarm");
  // retrieve answers with docs only; results is the RCA-style field.
  EXPECT_EQ(out.Find("results"), nullptr);

  request.op = TaskOp::kTroubleshoot;
  response.results.push_back({"root cause", 0.95f});
  const obs::JsonValue both = ResponseToJson(request, response, nullptr);
  ASSERT_NE(both.Find("docs"), nullptr);
  ASSERT_NE(both.Find("results"), nullptr);
  EXPECT_EQ(both.Find("results")->at(0).Find("name")->AsString(),
            "root cause");
}

TEST(ServeEngineTest, RetrievalOpsWithoutIndexFailPrecondition) {
  const core::ModelZoo& zoo = SharedZoo();
  core::ServiceEncoder service = zoo.MakeServiceEncoder(
      core::ModelKind::kKTeleBertStl);
  ServeEngine engine(&service, TinyEngineOptions());

  Request request;
  request.op = TaskOp::kRetrieve;
  request.text = "any query";
  EXPECT_EQ(engine.Process(request).status.code(),
            StatusCode::kFailedPrecondition);
  request.op = TaskOp::kTroubleshoot;
  EXPECT_EQ(engine.Process(request).status.code(),
            StatusCode::kFailedPrecondition);
}

BundleIndexOptions TinyIndexOptions() {
  BundleIndexOptions options;
  options.enable = true;
  options.num_tickets = 8;
  return options;
}

TEST(ModelHostTest, BundleServesRetrieveAndTroubleshoot) {
  auto built = BuildModelBundle("telebert", SharedZooPtr(),
                                TinyEngineOptions(), TinyIndexOptions());
  ASSERT_TRUE(built.ok()) << built.status().message();
  std::shared_ptr<ModelBundle> bundle = std::move(built).value();
  ASSERT_NE(bundle->index, nullptr);
  EXPECT_GT(bundle->index->size(), 0u);

  Request request;
  request.op = TaskOp::kRetrieve;
  request.text = "customers report service degradation";
  request.top_k = 5;
  const Response response = bundle->engine->Process(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.docs.size(), 5u);
  for (size_t i = 0; i < response.docs.size(); ++i) {
    EXPECT_FALSE(response.docs[i].title.empty());
    EXPECT_FALSE(response.docs[i].kind.empty());
    if (i > 0) {
      EXPECT_LE(response.docs[i].score, response.docs[i - 1].score);
    }
  }
  EXPECT_GE(response.search_ms, 0.0);

  // Per-request ef_search override still answers with k docs.
  request.ef_search = 128;
  EXPECT_EQ(bundle->engine->Process(request).docs.size(), 5u);

  // troubleshoot: retrieved context plus an RCA verdict over the union of
  // the docs' evidence alarms.
  Request diagnose;
  diagnose.op = TaskOp::kTroubleshoot;
  diagnose.text = "trouble ticket: repeated alarms and kpi deviation";
  diagnose.top_k = 3;
  const Response verdict = bundle->engine->Process(diagnose);
  ASSERT_TRUE(verdict.status.ok()) << verdict.status.ToString();
  EXPECT_EQ(verdict.docs.size(), 3u);
  ASSERT_FALSE(verdict.results.empty());
  // The verdict names come from the world's alarm catalogue.
  std::vector<std::string> catalogue;
  for (const auto& alarm : SharedZoo().world().alarms()) {
    catalogue.push_back(alarm.name);
  }
  for (const auto& candidate : verdict.results) {
    EXPECT_NE(std::find(catalogue.begin(), catalogue.end(), candidate.name),
              catalogue.end())
        << "verdict cites unknown alarm: " << candidate.name;
  }
}

// ---------------------------------------------------------------------------
// DaemonKit
// ---------------------------------------------------------------------------

/// One HTTP/1.0 GET on loopback; the raw reply (status line to body).
std::string AdminGet(int port, const std::string& path) {
  const int fd = ConnectTcp("127.0.0.1", port, 2000.0);
  if (fd < 0) return "";
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  SendAll(fd, request.data(), request.size());
  std::string reply;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST(DaemonKitTest, QuitquitquitDrainsAndReleasesTheWaitingMain) {
  DaemonFlags flags;
  flags.admin_port = 0;  // ephemeral
  DaemonKit kit("kit_test", flags);
  kit.HandleQuit();
  ASSERT_TRUE(kit.Start());
  NdjsonServer server;
  ASSERT_TRUE(server.Start(0, [](std::string line, LineReply reply) {
    reply(std::move(line));
  }));
  std::atomic<bool> released{false};
  std::thread main_thread([&] {
    kit.ServeUntilQuit(&server);
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(released.load());
  EXPECT_FALSE(kit.draining().load());

  const std::string reply = AdminGet(kit.admin().port(), "/quitquitquit");
  EXPECT_EQ(reply.rfind("HTTP/1.0 200", 0), 0u) << reply;
  EXPECT_NE(reply.find("\r\n\r\ndraining\n"), std::string::npos) << reply;
  main_thread.join();  // hangs here if /quitquitquit never releases it
  EXPECT_TRUE(released.load());
  EXPECT_TRUE(kit.draining().load());
  kit.Finish();
}

}  // namespace
}  // namespace serve
}  // namespace telekit
