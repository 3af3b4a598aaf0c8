#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/spanstore.h"
#include "obs/trace.h"
#include "route/fleet_metrics.h"
#include "route/health.h"
#include "route/ring.h"
#include "route/router.h"
#include "route/trace_assembler.h"
#include "serve/line_io.h"
#include "serve/ndjson_server.h"
#include "serve/protocol.h"

namespace telekit {
namespace route {
namespace {

// ---------------------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------------------

TEST(HashRingTest, DeterministicAndInRange) {
  const HashRing ring({"a", "b", "c"}, 64);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const size_t owner = ring.Pick(key);
    EXPECT_LT(owner, 3u);
    EXPECT_EQ(owner, ring.Pick(key)) << key;
  }
  // A second ring with the same membership agrees completely.
  const HashRing twin({"a", "b", "c"}, 64);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(ring.Pick(key), twin.Pick(key));
  }
}

TEST(HashRingTest, VirtualNodesBalanceLoad) {
  const HashRing ring({"a", "b", "c", "d"}, 128);
  const std::vector<double> shares = ring.LoadShares(20000);
  for (double share : shares) {
    // Perfect balance is 0.25; vnodes keep every node within ~2x.
    EXPECT_GT(share, 0.10);
    EXPECT_LT(share, 0.45);
  }
}

TEST(HashRingTest, WalkOrderCoversAllNodesStartingAtOwner) {
  const HashRing ring({"a", "b", "c", "d"}, 32);
  for (int i = 0; i < 30; ++i) {
    const std::string key = "walk-" + std::to_string(i);
    const std::vector<size_t> order = ring.WalkOrder(key);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], ring.Pick(key));
    std::vector<bool> seen(4, false);
    for (size_t node : order) {
      ASSERT_LT(node, 4u);
      EXPECT_FALSE(seen[node]);  // distinct
      seen[node] = true;
    }
  }
}

TEST(HashRingTest, RemovingOneNodeMovesOnlyItsShare) {
  // Consistency property: keys not owned by the removed node stay put.
  const HashRing three({"a", "b", "c"}, 128);
  const HashRing two({"a", "b"}, 128);
  int moved = 0, kept = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "stable-" + std::to_string(i);
    const size_t before = three.Pick(key);
    const size_t after = two.Pick(key);
    if (before == 2) continue;  // owned by the removed node; must move
    if (three.nodes()[before] == two.nodes()[after]) {
      ++kept;
    } else {
      ++moved;
    }
  }
  // A mod-N hash would reshuffle ~half; the ring moves (nearly) none.
  EXPECT_LT(moved, (moved + kept) / 20);
}

// ---------------------------------------------------------------------------
// LineReader framing (the NDJSON partial-read/partial-write regression)
// ---------------------------------------------------------------------------

/// ReadFn that serves a fixed byte stream in caller-chosen segment sizes.
class ScriptedStream {
 public:
  ScriptedStream(std::string data, std::vector<size_t> segments)
      : data_(std::move(data)), segments_(std::move(segments)) {}

  serve::LineReader::ReadFn AsReadFn() {
    return [this](char* buffer, size_t n) -> long {
      if (offset_ >= data_.size()) return 0;  // EOF
      size_t want = segments_.empty()
                        ? data_.size() - offset_
                        : segments_[std::min(segment_, segments_.size() - 1)];
      ++segment_;
      want = std::min({want, n, data_.size() - offset_});
      std::memcpy(buffer, data_.data() + offset_, want);
      offset_ += want;
      return static_cast<long>(want);
    };
  }

 private:
  std::string data_;
  std::vector<size_t> segments_;
  size_t offset_ = 0;
  size_t segment_ = 0;
};

TEST(LineReaderTest, ByteAtATimeDelivery) {
  ScriptedStream stream("{\"a\":1}\n{\"b\":2}\n", {1});
  serve::LineReader reader(stream.AsReadFn());
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "{\"a\":1}");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "{\"b\":2}");
  EXPECT_FALSE(reader.ReadLine(&line));
}

TEST(LineReaderTest, CoalescedLinesInOneSegment) {
  ScriptedStream stream("one\ntwo\nthree\n", {});
  serve::LineReader reader(stream.AsReadFn());
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "one");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "two");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "three");
  EXPECT_FALSE(reader.ReadLine(&line));
}

TEST(LineReaderTest, LineSplitAcrossArbitrarySegments) {
  // '\n' lands mid-segment, lines span segments, and a segment carries the
  // tail of one line plus the head of the next.
  ScriptedStream stream("hello world\nsecond line\nlast\n", {3, 9, 1, 7, 5});
  serve::LineReader reader(stream.AsReadFn());
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "hello world");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "second line");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "last");
  EXPECT_FALSE(reader.ReadLine(&line));
}

TEST(LineReaderTest, CrlfAndFinalUnterminatedLine) {
  ScriptedStream stream("dos\r\nunix\nno-newline", {4});
  serve::LineReader reader(stream.AsReadFn());
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "dos");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "unix");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "no-newline");
  EXPECT_FALSE(reader.ReadLine(&line));
}

TEST(LineReaderTest, OverflowGuardStopsUnboundedLines) {
  ScriptedStream stream(std::string(1000, 'x'), {100});
  serve::LineReader reader(stream.AsReadFn(), /*max_line=*/256);
  std::string line;
  EXPECT_FALSE(reader.ReadLine(&line));
  EXPECT_TRUE(reader.overflowed());
}

// Regression: a recv *error* (e.g. EAGAIN from SO_RCVTIMEO) is not EOF.
// Flushing a partially-buffered line as if it were complete handed the
// router a truncated upstream response as a success.
TEST(LineReaderTest, ReadErrorDoesNotFlushPartialLine) {
  int calls = 0;
  serve::LineReader reader([&calls](char* buffer, size_t) -> long {
    ++calls;
    if (calls == 1) {
      std::memcpy(buffer, "{\"a\":1", 6);  // partial line, no '\n'
      return 6;
    }
    errno = EAGAIN;  // receive timeout mid-response
    return -1;
  });
  std::string line = "sentinel";
  EXPECT_FALSE(reader.ReadLine(&line));
  EXPECT_EQ(line, "sentinel");  // the fragment was never surfaced
  EXPECT_TRUE(reader.failed());
  EXPECT_FALSE(reader.overflowed());
  // The stream is poisoned: later calls fail without touching the fd.
  EXPECT_FALSE(reader.ReadLine(&line));
  EXPECT_EQ(calls, 2);
}

TEST(LineReaderTest, ReadErrorAfterCompleteLineStillFramesIt) {
  int calls = 0;
  serve::LineReader reader([&calls](char* buffer, size_t) -> long {
    ++calls;
    if (calls == 1) {
      std::memcpy(buffer, "done\npart", 9);
      return 9;
    }
    errno = ECONNRESET;
    return -1;
  });
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "done");
  EXPECT_FALSE(reader.ReadLine(&line));  // "part" is not a line
  EXPECT_TRUE(reader.failed());
}

// ---------------------------------------------------------------------------
// HealthProber state machine (fake probe, no real time)
// ---------------------------------------------------------------------------

TEST(HealthProberTest, EjectsAfterConsecutiveFailuresAndReadmits) {
  std::atomic<bool> up{true};
  ProberOptions options;
  options.eject_after = 3;
  options.readmit_after = 2;
  HealthProber prober(
      1, options, [&up](size_t, double) { return up.load(); });

  EXPECT_EQ(prober.Health(0), ReplicaHealth::kHealthy);
  up = false;
  prober.ProbeOnce();
  EXPECT_EQ(prober.Health(0), ReplicaHealth::kSuspect);
  EXPECT_TRUE(prober.IsRoutable(0));  // suspect still takes traffic
  prober.ProbeOnce();
  prober.ProbeOnce();
  EXPECT_EQ(prober.Health(0), ReplicaHealth::kEjected);
  EXPECT_FALSE(prober.IsRoutable(0));
  EXPECT_EQ(prober.ejections(), 1u);
  EXPECT_EQ(prober.num_routable(), 0u);

  // One good probe is not enough to readmit...
  up = true;
  prober.ProbeOnce();
  EXPECT_EQ(prober.Health(0), ReplicaHealth::kEjected);
  // ...two consecutive are.
  prober.ProbeOnce();
  EXPECT_EQ(prober.Health(0), ReplicaHealth::kHealthy);
  EXPECT_EQ(prober.readmissions(), 1u);
  EXPECT_EQ(prober.num_routable(), 1u);
}

TEST(HealthProberTest, SuccessResetsFailureStreak) {
  std::atomic<bool> up{false};
  ProberOptions options;
  options.eject_after = 3;
  HealthProber prober(
      1, options, [&up](size_t, double) { return up.load(); });
  prober.ProbeOnce();
  prober.ProbeOnce();
  up = true;
  prober.ProbeOnce();  // streak broken at 2
  up = false;
  prober.ProbeOnce();
  prober.ProbeOnce();
  EXPECT_EQ(prober.Health(0), ReplicaHealth::kSuspect);
  EXPECT_EQ(prober.ejections(), 0u);
}

TEST(HealthProberTest, DataPlaneFailuresEjectWithoutProbe) {
  ProberOptions options;
  options.eject_after = 2;
  HealthProber prober(2, options, [](size_t, double) { return true; });
  prober.ReportFailure(1);
  prober.ReportFailure(1);
  EXPECT_EQ(prober.Health(1), ReplicaHealth::kEjected);
  EXPECT_EQ(prober.Health(0), ReplicaHealth::kHealthy);
  EXPECT_EQ(prober.num_routable(), 1u);
  const obs::JsonValue status = prober.StatusJson();
  ASSERT_EQ(status.size(), 2u);
  EXPECT_EQ(status.at(1).Find("health")->AsString(), "ejected");
}

// ---------------------------------------------------------------------------
// ParseReplicaSpec
// ---------------------------------------------------------------------------

TEST(ReplicaSpecTest, ParsesAllForms) {
  ReplicaSpec spec;
  ASSERT_TRUE(ParseReplicaSpec("7101", &spec));
  EXPECT_EQ(spec.host, "127.0.0.1");
  EXPECT_EQ(spec.port, 7101);
  EXPECT_EQ(spec.admin_port, 0);

  ASSERT_TRUE(ParseReplicaSpec("7101:7201", &spec));
  EXPECT_EQ(spec.port, 7101);
  EXPECT_EQ(spec.admin_port, 7201);

  ASSERT_TRUE(ParseReplicaSpec("10.0.0.5:7101", &spec));
  EXPECT_EQ(spec.host, "10.0.0.5");
  EXPECT_EQ(spec.port, 7101);

  ASSERT_TRUE(ParseReplicaSpec("10.0.0.5:7101:7201", &spec));
  EXPECT_EQ(spec.host, "10.0.0.5");
  EXPECT_EQ(spec.admin_port, 7201);
  EXPECT_EQ(spec.name, "10.0.0.5:7101");

  EXPECT_FALSE(ParseReplicaSpec("", &spec));
  EXPECT_FALSE(ParseReplicaSpec("host:", &spec));
  EXPECT_FALSE(ParseReplicaSpec("host:port", &spec));
  EXPECT_FALSE(ParseReplicaSpec("0", &spec));
  EXPECT_FALSE(ParseReplicaSpec("70000", &spec));
}

TEST(ReplicaSpecTest, RejectsAtoiTruncatedPorts) {
  // Before the strict parser, "7101x" atoi'd to 7101 and an over-long
  // digit string was undefined behavior in atoi.
  ReplicaSpec spec;
  EXPECT_FALSE(ParseReplicaSpec("7101x", &spec));
  EXPECT_FALSE(ParseReplicaSpec("host:7101x", &spec));
  EXPECT_FALSE(ParseReplicaSpec("host:7101:72o1", &spec));
  EXPECT_FALSE(ParseReplicaSpec("99999999999999999999", &spec));
  EXPECT_FALSE(ParseReplicaSpec("host:0", &spec));
  EXPECT_FALSE(ParseReplicaSpec("host:-1", &spec));
}

// ---------------------------------------------------------------------------
// Router against scripted fake replicas
// ---------------------------------------------------------------------------

/// A fake telekit_serve: an NdjsonServer whose handler is scripted per
/// test. Responses use the real wire shapes so the router's retry logic
/// sees what production would send.
class FakeReplica {
 public:
  explicit FakeReplica(serve::LineHandler handler) {
    EXPECT_TRUE(server_.Start(0, std::move(handler)));
  }
  int port() const { return server_.port(); }
  void Kill() { server_.Stop(); }

 private:
  serve::NdjsonServer server_;
};

/// Replies {"ok": true, "replica": name} after `delay_ms`.
serve::LineHandler ScriptedHandler(std::string name, double delay_ms = 0.0,
                                   std::atomic<int>* hits = nullptr) {
  return [name = std::move(name), delay_ms, hits](std::string,
                                                   serve::LineReply reply) {
    if (hits != nullptr) hits->fetch_add(1);
    std::thread([name, delay_ms, reply = std::move(reply)] {
      if (delay_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
      }
      obs::JsonValue out = obs::JsonValue::Object();
      out.Set("ok", obs::JsonValue(true));
      out.Set("replica", obs::JsonValue(name));
      reply(out.Dump());
    }).detach();
  };
}

/// Replies the serve-protocol error for `status` immediately.
serve::LineHandler ErrorHandler(Status status) {
  return [status](std::string, serve::LineReply reply) {
    reply(serve::ErrorToJson(status, nullptr).Dump());
  };
}

RouterOptions TestOptions() {
  RouterOptions options;
  options.hedge = false;  // individual tests opt in
  options.probe_override = [](size_t, double) { return true; };
  options.prober.eject_after = 3;
  return options;
}

std::vector<ReplicaSpec> Specs(const std::vector<int>& ports) {
  std::vector<ReplicaSpec> specs;
  for (int port : ports) {
    ReplicaSpec spec;
    spec.port = port;
    spec.name = "127.0.0.1:" + std::to_string(port);
    specs.push_back(spec);
  }
  return specs;
}

obs::JsonValue MustParse(const std::string& line) {
  obs::JsonValue json;
  std::string error;
  EXPECT_TRUE(obs::JsonValue::Parse(line, &json, &error)) << error;
  return json;
}

std::string RequestLine(const std::string& text, double deadline_ms = 0.0) {
  obs::JsonValue json = obs::JsonValue::Object();
  json.Set("op", obs::JsonValue("encode"));
  json.Set("text", obs::JsonValue(text));
  json.Set("id", obs::JsonValue(text));
  if (deadline_ms > 0.0) {
    json.Set("deadline_ms", obs::JsonValue(deadline_ms));
  }
  return json.Dump();
}

/// A key whose consistent-hash owner is `want_primary` among `names`.
std::string KeyOwnedBy(const std::vector<std::string>& names,
                       size_t want_primary, int vnodes) {
  const HashRing ring(names, vnodes);
  for (int i = 0; i < 10000; ++i) {
    const std::string key = "affinity-key-" + std::to_string(i);
    if (ring.Pick(key) == want_primary) return key;
  }
  ADD_FAILURE() << "no key found for primary " << want_primary;
  return "";
}

TEST(RouterTest, RoutesByHashWithStableAffinity) {
  std::atomic<int> hits_a{0}, hits_b{0};
  FakeReplica a(ScriptedHandler("A", 0.0, &hits_a));
  FakeReplica b(ScriptedHandler("B", 0.0, &hits_b));
  Router router(Specs({a.port(), b.port()}), TestOptions());

  // The same text always lands on the same replica; the response carries
  // the routing stamp.
  std::string first_replica;
  for (int i = 0; i < 6; ++i) {
    const obs::JsonValue response =
        MustParse(router.Handle(RequestLine("stable text")));
    ASSERT_TRUE(response.Find("ok")->AsBool());
    const obs::JsonValue* routed = response.Find("routed");
    ASSERT_NE(routed, nullptr);
    EXPECT_EQ(routed->Find("attempts")->AsNumber(), 1);
    EXPECT_FALSE(routed->Find("hedged")->AsBool());
    if (first_replica.empty()) {
      first_replica = routed->Find("replica")->AsString();
    }
    EXPECT_EQ(routed->Find("replica")->AsString(), first_replica);
  }
  EXPECT_EQ(hits_a.load() + hits_b.load(), 6);
  EXPECT_TRUE(hits_a.load() == 0 || hits_b.load() == 0);
}

TEST(RouterTest, RetriesOnUpstreamUnavailable) {
  // The primary for the key drains; the router must fail over and the
  // client must never see the retryable error.
  FakeReplica draining(ErrorHandler(Status::Unavailable("draining")));
  FakeReplica healthy(ScriptedHandler("healthy"));
  const std::vector<int> ports = {draining.port(), healthy.port()};
  RouterOptions options = TestOptions();
  Router router(Specs(ports), options);
  const std::string key =
      KeyOwnedBy({"127.0.0.1:" + std::to_string(ports[0]),
                  "127.0.0.1:" + std::to_string(ports[1])},
                 0, options.vnodes);

  const obs::JsonValue response = MustParse(router.Handle(RequestLine(key)));
  ASSERT_TRUE(response.Find("ok")->AsBool()) << response.Dump();
  EXPECT_EQ(response.Find("replica")->AsString(), "healthy");
  EXPECT_EQ(response.Find("routed")->Find("attempts")->AsNumber(), 2);
}

TEST(RouterTest, NonRetryableUpstreamErrorsPassThrough) {
  FakeReplica broken(ErrorHandler(Status::NotFound("unknown model: x")));
  FakeReplica healthy(ScriptedHandler("healthy"));
  const std::vector<int> ports = {broken.port(), healthy.port()};
  RouterOptions options = TestOptions();
  Router router(Specs(ports), options);
  const std::string key =
      KeyOwnedBy({"127.0.0.1:" + std::to_string(ports[0]),
                  "127.0.0.1:" + std::to_string(ports[1])},
                 0, options.vnodes);

  const obs::JsonValue response = MustParse(router.Handle(RequestLine(key)));
  ASSERT_FALSE(response.Find("ok")->AsBool());
  EXPECT_EQ(static_cast<int>(response.Find("error")->Find("code")->AsNumber()),
            static_cast<int>(StatusCode::kNotFound));
}

TEST(RouterTest, TransportFailureFailsOverAndEventuallyEjects) {
  FakeReplica dead(ScriptedHandler("dead"));
  FakeReplica alive(ScriptedHandler("alive"));
  const int dead_port = dead.port();
  dead.Kill();  // connection refused from now on
  const std::vector<int> ports = {dead_port, alive.port()};
  RouterOptions options = TestOptions();
  options.prober.eject_after = 3;
  Router router(Specs(ports), options);
  const std::string key =
      KeyOwnedBy({"127.0.0.1:" + std::to_string(ports[0]),
                  "127.0.0.1:" + std::to_string(ports[1])},
                 0, options.vnodes);

  for (int i = 0; i < 4; ++i) {
    const obs::JsonValue response =
        MustParse(router.Handle(RequestLine(key)));
    ASSERT_TRUE(response.Find("ok")->AsBool()) << response.Dump();
    EXPECT_EQ(response.Find("replica")->AsString(), "alive");
  }
  // Three data-plane failures ejected the dead replica; later requests
  // skip it entirely (attempts == 1).
  EXPECT_EQ(router.prober().Health(0), ReplicaHealth::kEjected);
  const obs::JsonValue response = MustParse(router.Handle(RequestLine(key)));
  EXPECT_EQ(response.Find("routed")->Find("attempts")->AsNumber(), 1);
}

TEST(RouterTest, BudgetExhaustionIsDeadlineExceededNotUnavailable) {
  // Replicas are alive but slow: the budget lapses while waiting, which
  // must surface as DEADLINE_EXCEEDED (code 7), not UNAVAILABLE (code 6).
  FakeReplica slow_a(ScriptedHandler("a", 400.0));
  FakeReplica slow_b(ScriptedHandler("b", 400.0));
  RouterOptions options = TestOptions();
  options.per_try_ms = 1000.0;
  Router router(Specs({slow_a.port(), slow_b.port()}), options);

  const obs::JsonValue response = MustParse(
      router.Handle(RequestLine("slow request", /*deadline_ms=*/60.0)));
  ASSERT_FALSE(response.Find("ok")->AsBool());
  EXPECT_EQ(static_cast<int>(response.Find("error")->Find("code")->AsNumber()),
            static_cast<int>(StatusCode::kDeadlineExceeded));
  EXPECT_EQ(response.Find("id")->AsString(), "slow request");
  router.Stop();  // reap the still-sleeping attempt before teardown
}

TEST(RouterTest, AllReplicasDownIsUnavailable) {
  FakeReplica a(ScriptedHandler("a"));
  FakeReplica b(ScriptedHandler("b"));
  const std::vector<int> ports = {a.port(), b.port()};
  a.Kill();
  b.Kill();
  Router router(Specs(ports), TestOptions());

  const obs::JsonValue response =
      MustParse(router.Handle(RequestLine("doomed")));
  ASSERT_FALSE(response.Find("ok")->AsBool());
  EXPECT_EQ(static_cast<int>(response.Find("error")->Find("code")->AsNumber()),
            static_cast<int>(StatusCode::kUnavailable));

  // Once both are ejected the router answers without attempting.
  for (int i = 0; i < 6; ++i) router.Handle(RequestLine("doomed"));
  EXPECT_EQ(router.prober().num_routable(), 0u);
  const obs::JsonValue fast =
      MustParse(router.Handle(RequestLine("doomed")));
  EXPECT_EQ(static_cast<int>(fast.Find("error")->Find("code")->AsNumber()),
            static_cast<int>(StatusCode::kUnavailable));
}

TEST(RouterTest, HedgeWinsOverSlowPrimaryAndLoserIsDiscarded) {
  FakeReplica slow(ScriptedHandler("slow", 250.0));
  FakeReplica fast(ScriptedHandler("fast", 0.0));
  const std::vector<int> ports = {slow.port(), fast.port()};
  RouterOptions options = TestOptions();
  options.hedge = true;
  options.hedge_delay_ms = 15.0;  // fixed trigger: tests must not depend
                                  // on the live latency quantile
  Router router(Specs(ports), options);
  const std::string key =
      KeyOwnedBy({"127.0.0.1:" + std::to_string(ports[0]),
                  "127.0.0.1:" + std::to_string(ports[1])},
                 0, options.vnodes);

  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t discarded_before =
      registry.GetCounter("route/hedge_discarded").value();
  const uint64_t wins_before =
      registry.GetCounter("route/hedge_wins").value();

  const auto start = std::chrono::steady_clock::now();
  const std::string raw = router.Handle(RequestLine(key));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  const obs::JsonValue response = MustParse(raw);
  ASSERT_TRUE(response.Find("ok")->AsBool()) << raw;
  // Exactly one response, from the hedge, well before the primary's 250ms.
  EXPECT_EQ(response.Find("replica")->AsString(), "fast");
  EXPECT_TRUE(response.Find("routed")->Find("hedged")->AsBool());
  EXPECT_LT(elapsed_ms, 200.0);
  EXPECT_EQ(registry.GetCounter("route/hedge_wins").value(),
            wins_before + 1);

  // The slow primary's late response is suppressed as a duplicate.
  router.Stop();  // joins the losing attempt
  EXPECT_EQ(registry.GetCounter("route/hedge_discarded").value(),
            discarded_before + 1);
}

TEST(RouterTest, HedgeNotTriggeredWhenPrimaryIsFast) {
  FakeReplica a(ScriptedHandler("a", 0.0));
  FakeReplica b(ScriptedHandler("b", 0.0));
  RouterOptions options = TestOptions();
  options.hedge = true;
  options.hedge_delay_ms = 200.0;
  Router router(Specs({a.port(), b.port()}), options);
  const obs::JsonValue response =
      MustParse(router.Handle(RequestLine("quick")));
  ASSERT_TRUE(response.Find("ok")->AsBool());
  EXPECT_FALSE(response.Find("routed")->Find("hedged")->AsBool());
  EXPECT_EQ(response.Find("routed")->Find("attempts")->AsNumber(), 1);
}

// ---------------------------------------------------------------------------
// Distributed tracing: span propagation, assembly, trace-id echo
// ---------------------------------------------------------------------------

/// A fake replica that behaves like a traced telekit_serve: it parses the
/// forwarded trace/parent_span and records a "serve/request" span under a
/// distinct process label before answering, so assembly tests exercise a
/// real cross-process tree (the in-process fleet shares the global store;
/// the assembler's span-id dedup is built for exactly that topology).
serve::LineHandler SpanRecordingHandler(std::string name) {
  return [name](std::string line, serve::LineReply reply) {
    obs::JsonValue request;
    std::string error;
    uint64_t trace_id = 0;
    uint64_t parent = 0;
    if (obs::JsonValue::Parse(line, &request, &error)) {
      if (const obs::JsonValue* trace = request.Find("trace");
          trace != nullptr && trace->is_string()) {
        obs::ParseTraceIdHex(trace->AsString(), &trace_id);
      }
      if (const obs::JsonValue* span = request.Find("parent_span");
          span != nullptr && span->is_string()) {
        obs::ParseTraceIdHex(span->AsString(), &parent);
      }
    }
    obs::SpanRecord span;
    span.trace_id = trace_id;
    span.parent_span = parent;
    span.name = "serve/request";
    span.process = "fake_serve:" + name;
    span.outcome = "ok";
    span.start_unix_us = obs::UnixNowUs();
    span.dur_us = 50;
    obs::SpanStore::Global().Record(std::move(span));
    obs::JsonValue out = obs::JsonValue::Object();
    out.Set("ok", obs::JsonValue(true));
    out.Set("replica", obs::JsonValue(name));
    // Real replicas echo the trace id on every response (SetTrace).
    out.Set("trace", trace_id != 0
                         ? obs::JsonValue(obs::TraceIdToHex(trace_id))
                         : obs::JsonValue());
    reply(out.Dump());
  };
}

const obs::JsonValue* ChildNamed(const obs::JsonValue& node,
                                 const std::string& name) {
  const obs::JsonValue* children = node.Find("children");
  if (children == nullptr) return nullptr;
  for (size_t i = 0; i < children->size(); ++i) {
    if (children->at(i).Find("name")->AsString() == name) {
      return &children->at(i);
    }
  }
  return nullptr;
}

TEST(RouterTraceTest, RetriedRequestAssemblesOneTraceWithHopPerAttempt) {
  obs::SpanStore::Global().Reset();
  FakeReplica draining(ErrorHandler(Status::Unavailable("draining")));
  FakeReplica healthy(SpanRecordingHandler("healthy"));
  const std::vector<int> ports = {draining.port(), healthy.port()};
  RouterOptions options = TestOptions();
  Router router(Specs(ports), options);
  const std::string key =
      KeyOwnedBy({"127.0.0.1:" + std::to_string(ports[0]),
                  "127.0.0.1:" + std::to_string(ports[1])},
                 0, options.vnodes);

  obs::JsonValue line = MustParse(RequestLine(key));
  line.Set("trace", obs::JsonValue("00000000000abcde"));
  const obs::JsonValue response = MustParse(router.Handle(line.Dump()));
  ASSERT_TRUE(response.Find("ok")->AsBool()) << response.Dump();
  EXPECT_EQ(response.Find("trace")->AsString(), "00000000000abcde");
  ASSERT_EQ(response.Find("routed")->Find("attempts")->AsNumber(), 2);
  // Attempt spans are recorded after delivery, on the attempt thread;
  // Stop() joins those threads so assembly sees both hops.
  router.Stop();

  // Assemble with no remote sources: the in-process fleet already shares
  // the local store.
  const CollectedSpans collected = CollectSpans(0xabcdeu, {}, 100.0);
  const obs::JsonValue trace = AssembleTraceJson(0xabcdeu, collected);
  EXPECT_EQ(trace.Find("hops")->AsNumber(), 2.0);  // one hop per attempt
  ASSERT_EQ(trace.Find("spans")->size(), 1u);      // a single tree
  const obs::JsonValue& root = trace.Find("spans")->at(0);
  EXPECT_EQ(root.Find("name")->AsString(), "route/request");
  EXPECT_TRUE(root.Find("parent_span")->is_null());
  const obs::JsonValue* attempts = root.Find("children");
  ASSERT_NE(attempts, nullptr);
  ASSERT_EQ(attempts->size(), 2u);
  // The first leg failed against the draining replica; the retry won.
  EXPECT_EQ(attempts->at(0).Find("outcome")->AsString(), "failed");
  EXPECT_EQ(attempts->at(0).Find("attempt")->AsNumber(), 1.0);
  EXPECT_FALSE(attempts->at(0).Find("ok")->AsBool());
  EXPECT_EQ(attempts->at(1).Find("outcome")->AsString(), "won");
  EXPECT_EQ(attempts->at(1).Find("attempt")->AsNumber(), 2.0);
  // The replica's serve-side span joined the tree under the winning hop,
  // annotated with the cross-process clock story.
  const obs::JsonValue* serve_span =
      ChildNamed(attempts->at(1), "serve/request");
  ASSERT_NE(serve_span, nullptr);
  EXPECT_NE(serve_span->Find("send_skew_us"), nullptr);
  EXPECT_NE(serve_span->Find("recv_skew_us"), nullptr);
  EXPECT_EQ(ChildNamed(attempts->at(0), "serve/request"), nullptr);
  obs::SpanStore::Global().Reset();
}

TEST(RouterTraceTest, HedgedRequestMarksTheLosingLeg) {
  obs::SpanStore::Global().Reset();
  FakeReplica slow(ScriptedHandler("slow", 250.0));
  FakeReplica fast(ScriptedHandler("fast", 0.0));
  const std::vector<int> ports = {slow.port(), fast.port()};
  RouterOptions options = TestOptions();
  options.hedge = true;
  options.hedge_delay_ms = 15.0;
  Router router(Specs(ports), options);
  const std::string key =
      KeyOwnedBy({"127.0.0.1:" + std::to_string(ports[0]),
                  "127.0.0.1:" + std::to_string(ports[1])},
                 0, options.vnodes);

  obs::JsonValue line = MustParse(RequestLine(key));
  line.Set("trace", obs::JsonValue("0000000000000ced"));
  const obs::JsonValue response = MustParse(router.Handle(line.Dump()));
  ASSERT_TRUE(response.Find("ok")->AsBool()) << response.Dump();
  EXPECT_TRUE(response.Find("routed")->Find("hedged")->AsBool());
  router.Stop();  // joins the losing leg so its span is recorded

  const std::vector<obs::SpanRecord> spans =
      obs::SpanStore::Global().Query(0xcedu);
  int won = 0, lost = 0, hedged = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "route/attempt") continue;
    if (span.outcome == "won") ++won;
    if (span.outcome == "lost") ++lost;
    if (span.hedge) ++hedged;
  }
  EXPECT_EQ(won, 1);
  EXPECT_EQ(lost, 1);  // the slow primary's late duplicate
  EXPECT_EQ(hedged, 1);
  const obs::JsonValue trace =
      AssembleTraceJson(0xcedu, CollectSpans(0xcedu, {}, 100.0));
  EXPECT_EQ(trace.Find("hops")->AsNumber(), 2.0);
  ASSERT_EQ(trace.Find("spans")->size(), 1u);
  obs::SpanStore::Global().Reset();
}

TEST(RouterTraceTest, ErrorRepliesEchoTraceOnEveryPath) {
  // No routable replica: the inbound trace id must come back verbatim.
  FakeReplica gone(ScriptedHandler("gone"));
  const int gone_port = gone.port();
  gone.Kill();
  Router router(Specs({gone_port}), TestOptions());
  obs::JsonValue line = MustParse(RequestLine("doomed"));
  line.Set("trace", obs::JsonValue("00000000deadbeef"));
  const obs::JsonValue unavailable = MustParse(router.Handle(line.Dump()));
  ASSERT_FALSE(unavailable.Find("ok")->AsBool());
  // The leg failed with budget to spare: its transport error stands.
  EXPECT_EQ(
      static_cast<int>(unavailable.Find("error")->Find("code")->AsNumber()),
      static_cast<int>(StatusCode::kUnavailable));
  EXPECT_EQ(unavailable.Find("trace")->AsString(), "00000000deadbeef");
  EXPECT_EQ(unavailable.Find("id")->AsString(), "doomed");

  // Untraced requests get a router-assigned id (never null) so even a
  // failure can be pulled from /tracezd after the fact.
  const obs::JsonValue assigned =
      MustParse(router.Handle(RequestLine("doomed")));
  ASSERT_FALSE(assigned.Find("trace")->is_null());
  uint64_t parsed = 0;
  ASSERT_TRUE(
      obs::ParseTraceIdHex(assigned.Find("trace")->AsString(), &parsed));
  EXPECT_NE(parsed, 0u);

  // Deadline exhaustion echoes the trace too.
  FakeReplica slow(ScriptedHandler("slow", 400.0));
  RouterOptions slow_options = TestOptions();
  slow_options.per_try_ms = 1000.0;
  Router slow_router(Specs({slow.port()}), slow_options);
  obs::JsonValue slow_line =
      MustParse(RequestLine("late", /*deadline_ms=*/60.0));
  slow_line.Set("trace", obs::JsonValue("0000000000001a7e"));
  const obs::JsonValue late = MustParse(slow_router.Handle(slow_line.Dump()));
  ASSERT_FALSE(late.Find("ok")->AsBool());
  EXPECT_EQ(static_cast<int>(late.Find("error")->Find("code")->AsNumber()),
            static_cast<int>(StatusCode::kDeadlineExceeded));
  EXPECT_EQ(late.Find("trace")->AsString(), "0000000000001a7e");
  slow_router.Stop();  // reap the still-sleeping attempt
}

TEST(RouterDeadlineTest, LapsedBudgetRepliesDeadlineExceeded) {
  // One replica that answers a little late: each request's budget runs
  // out while its only leg is still waiting, so the reply must be
  // DEADLINE_EXCEEDED, never the leg's transport error, and the late
  // replica must not be ejected for the client's impatience.
  FakeReplica late(ScriptedHandler("late", 15.0));
  Router router(Specs({late.port()}), TestOptions());
  const obs::Counter& lapsed =
      obs::MetricsRegistry::Global().GetCounter("route/deadline_exceeded");
  const uint64_t lapsed_before = lapsed.value();
  constexpr int kRequests = 100;
  for (int i = 0; i < kRequests; ++i) {
    const obs::JsonValue reply = MustParse(router.Handle(
        RequestLine("late " + std::to_string(i), /*deadline_ms=*/5.0)));
    ASSERT_FALSE(reply.Find("ok")->AsBool());
    ASSERT_EQ(static_cast<int>(reply.Find("error")->Find("code")->AsNumber()),
              static_cast<int>(StatusCode::kDeadlineExceeded))
        << "request " << i << ": " << reply.Dump();
  }
  EXPECT_EQ(lapsed.value() - lapsed_before, static_cast<uint64_t>(kRequests));
  router.Stop();  // reap the attempts still waiting on the replica
}

TEST(RouterDeadlineTest, HugeDeadlineReachesTheReplicaAndIsRejected) {
  // A deadline_ms beyond what a steady_clock deadline holds must not
  // overflow the router's budget into an instant DEADLINE_EXCEEDED: the
  // line reaches the replica, whose parser answers INVALID_ARGUMENT.
  std::atomic<int> hits{0};
  FakeReplica replica([&hits](std::string line, serve::LineReply reply) {
    hits.fetch_add(1);
    serve::Request request;
    const Status status = serve::ParseRequestLine(line, &request);
    reply(status.ok() ? R"({"ok":true})"
                      : serve::ErrorToJson(status, nullptr).Dump());
  });
  Router router(Specs({replica.port()}), TestOptions());
  const obs::JsonValue reply =
      MustParse(router.Handle(RequestLine("huge", /*deadline_ms=*/1e13)));
  ASSERT_FALSE(reply.Find("ok")->AsBool());
  EXPECT_EQ(static_cast<int>(reply.Find("error")->Find("code")->AsNumber()),
            static_cast<int>(StatusCode::kInvalidArgument))
      << reply.Dump();
  EXPECT_EQ(hits.load(), 1);
}

// ---------------------------------------------------------------------------
// Fleet metrics: exposition parse + cross-replica aggregation
// ---------------------------------------------------------------------------

TEST(FleetMetricsTest, ParsesCountersGaugesHistogramsAndExemplars) {
  const std::string text =
      "# HELP telekit_requests_total requests\n"
      "# TYPE telekit_requests_total counter\n"
      "telekit_requests_total 7\n"
      "# TYPE telekit_queue_depth gauge\n"
      "telekit_queue_depth 3\n"
      "# TYPE telekit_request_ms histogram\n"
      "telekit_request_ms_bucket{le=\"1\"} 2 # {trace_id=\"abc\"} 0.5 1e9\n"
      "telekit_request_ms_bucket{le=\"5\"} 4\n"
      "telekit_request_ms_bucket{le=\"+Inf\"} 5\n"
      "telekit_request_ms_sum 11.5\n"
      "telekit_request_ms_count 5\n";
  const std::map<std::string, FleetMetric> metrics =
      ParsePrometheusText(text);
  ASSERT_EQ(metrics.count("telekit_requests_total"), 1u);
  EXPECT_EQ(metrics.at("telekit_requests_total").type, "counter");
  EXPECT_DOUBLE_EQ(metrics.at("telekit_requests_total").value, 7.0);
  EXPECT_DOUBLE_EQ(metrics.at("telekit_queue_depth").value, 3.0);
  ASSERT_EQ(metrics.count("telekit_request_ms"), 1u);
  const FleetMetric& histogram = metrics.at("telekit_request_ms");
  EXPECT_TRUE(histogram.has_histogram);
  // The +Inf bucket is implied by _count; the exemplar suffix is ignored.
  ASSERT_EQ(histogram.buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(histogram.buckets[0].first, 1.0);
  EXPECT_DOUBLE_EQ(histogram.buckets[0].second, 2.0);
  EXPECT_DOUBLE_EQ(histogram.buckets[1].first, 5.0);
  EXPECT_DOUBLE_EQ(histogram.buckets[1].second, 4.0);
  EXPECT_DOUBLE_EQ(histogram.sum, 11.5);
  EXPECT_DOUBLE_EQ(histogram.count, 5.0);
}

TEST(FleetMetricsTest, AggregatesSumsCountersMergesHistogramsLabelsGauges) {
  ReplicaScrape a;
  a.replica = "127.0.0.1:7101";
  a.ok = true;
  a.exposition =
      "# TYPE telekit_requests_total counter\n"
      "telekit_requests_total 7\n"
      "# TYPE telekit_queue_depth gauge\n"
      "telekit_queue_depth 3\n"
      "# TYPE telekit_request_ms histogram\n"
      "telekit_request_ms_bucket{le=\"1\"} 2\n"
      "telekit_request_ms_bucket{le=\"5\"} 4\n"
      "telekit_request_ms_bucket{le=\"+Inf\"} 5\n"
      "telekit_request_ms_sum 10\n"
      "telekit_request_ms_count 5\n";
  ReplicaScrape b;
  b.replica = "127.0.0.1:7102";
  b.ok = true;
  b.exposition =
      "# TYPE telekit_requests_total counter\n"
      "telekit_requests_total 5\n"
      "# TYPE telekit_queue_depth gauge\n"
      "telekit_queue_depth 9\n"
      "# TYPE telekit_request_ms histogram\n"
      "telekit_request_ms_bucket{le=\"2\"} 1\n"
      "telekit_request_ms_bucket{le=\"+Inf\"} 3\n"
      "telekit_request_ms_sum 9\n"
      "telekit_request_ms_count 3\n";
  ReplicaScrape down;
  down.replica = "127.0.0.1:7103";
  const std::string merged = AggregateFleetMetrics({a, b, down});

  // Fleet meta-gauges lead the exposition.
  EXPECT_NE(merged.find("telekit_fleet_replicas 3\n"), std::string::npos);
  EXPECT_NE(merged.find(
                "telekit_fleet_replica_up{replica=\"127.0.0.1:7101\"} 1\n"),
            std::string::npos);
  EXPECT_NE(merged.find(
                "telekit_fleet_replica_up{replica=\"127.0.0.1:7103\"} 0\n"),
            std::string::npos);
  // Counters: one fleet-wide sum under the unchanged name.
  EXPECT_NE(merged.find("telekit_requests_total 12\n"), std::string::npos);
  // Gauges: one series per replica (a sum would hide the hot replica).
  EXPECT_NE(merged.find("telekit_queue_depth{replica=\"127.0.0.1:7101\"} 3\n"),
            std::string::npos);
  EXPECT_NE(merged.find("telekit_queue_depth{replica=\"127.0.0.1:7102\"} 9\n"),
            std::string::npos);
  // Histograms: cumulative counts merged on the union le grid.
  EXPECT_NE(merged.find("telekit_request_ms_bucket{le=\"1\"} 2\n"),
            std::string::npos);  // a:2 + b:0
  EXPECT_NE(merged.find("telekit_request_ms_bucket{le=\"2\"} 3\n"),
            std::string::npos);  // a:2 (step holds) + b:1
  EXPECT_NE(merged.find("telekit_request_ms_bucket{le=\"5\"} 5\n"),
            std::string::npos);  // a:4 + b:1
  EXPECT_NE(merged.find("telekit_request_ms_bucket{le=\"+Inf\"} 8\n"),
            std::string::npos);
  EXPECT_NE(merged.find("telekit_request_ms_sum 19\n"), std::string::npos);
  EXPECT_NE(merged.find("telekit_request_ms_count 8\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency: prober + forwarders under load (TSan coverage)
// ---------------------------------------------------------------------------

TEST(RouteConcurrencyTest, ProberAndForwardersRaceCleanly) {
  FakeReplica a(ScriptedHandler("a", 1.0));
  FakeReplica b(ScriptedHandler("b", 1.0));
  RouterOptions options = TestOptions();
  options.hedge = true;
  options.hedge_delay_ms = 2.0;
  options.prober.interval_ms = 1.0;
  std::atomic<bool> flaky{true};
  // The probe signal flips while forwarders run, exercising the
  // eject/readmit transitions concurrently with PlanAttempts.
  options.probe_override = [&flaky](size_t replica, double) {
    return replica == 0 ? true : flaky.load();
  };
  Router router(Specs({a.port(), b.port()}), options);
  router.Start();

  std::vector<std::thread> clients;
  std::atomic<int> responses{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&router, &responses, t] {
      for (int i = 0; i < 25; ++i) {
        const std::string line = router.Handle(
            RequestLine("client-" + std::to_string(t) + "-" +
                        std::to_string(i)));
        if (!line.empty()) responses.fetch_add(1);
      }
    });
  }
  std::thread flipper([&flaky] {
    for (int i = 0; i < 20; ++i) {
      flaky.store(!flaky.load());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    flaky.store(true);
  });
  std::thread observer([&router] {
    for (int i = 0; i < 30; ++i) {
      router.FleetJson();
      router.prober().StatusJson();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& t : clients) t.join();
  flipper.join();
  observer.join();
  router.Stop();
  EXPECT_EQ(responses.load(), 100);
}

// /spanz scrapes (store queries + trace assembly) race traced traffic and
// the recording writers; run under TSan via scripts/check_tier1.sh.
TEST(RouteConcurrencyTest, SpanScrapesRaceTracedTraffic) {
  obs::SpanStore::Global().Reset();
  FakeReplica a(ScriptedHandler("a", 1.0));
  FakeReplica b(ScriptedHandler("b", 1.0));
  RouterOptions options = TestOptions();
  options.hedge = true;
  options.hedge_delay_ms = 2.0;
  Router router(Specs({a.port(), b.port()}), options);
  router.Start();

  std::atomic<bool> stop{false};
  std::thread scraper([&stop] {
    obs::HttpRequest summary;
    summary.path = "/spanz";
    obs::HttpRequest query;
    query.path = "/spanz";
    query.query = "trace_id=00000000000000aa";
    while (!stop.load()) {
      obs::SpanStore::Global().HandleQuery(summary);
      obs::SpanStore::Global().HandleQuery(query);
      AssembleTraceJson(0xaau, CollectSpans(0xaau, {}, 10.0));
    }
  });
  std::vector<std::thread> clients;
  std::atomic<int> responses{0};
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&router, &responses, t] {
      for (int i = 0; i < 20; ++i) {
        obs::JsonValue line = MustParse(
            RequestLine("traced-" + std::to_string(t) + "-" +
                        std::to_string(i)));
        line.Set("trace", obs::JsonValue("00000000000000aa"));
        if (!router.Handle(line.Dump()).empty()) responses.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true);
  scraper.join();
  router.Stop();
  EXPECT_EQ(responses.load(), 60);
  EXPECT_GT(obs::SpanStore::Global().total_recorded(), 0u);
  obs::SpanStore::Global().Reset();
}

// ---------------------------------------------------------------------------
// NdjsonServer over real sockets: byte-at-a-time and coalesced writes
// ---------------------------------------------------------------------------

TEST(NdjsonServerTest, SurvivesArbitraryWriteSegmentation) {
  serve::NdjsonServer server;
  ASSERT_TRUE(server.Start(0, [](std::string line, serve::LineReply reply) {
    reply("echo:" + line);
  }));

  const int fd = serve::ConnectTcp("127.0.0.1", server.port(), 1000.0);
  ASSERT_GE(fd, 0);
  // One line dribbled byte-by-byte, then two lines in a single send.
  const std::string dribble = "{\"n\":1}\n";
  for (char c : dribble) {
    ASSERT_TRUE(serve::SendAll(fd, &c, 1));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::string coalesced = "{\"n\":2}\n{\"n\":3}\n";
  ASSERT_TRUE(serve::SendAll(fd, coalesced.data(), coalesced.size()));
  ::shutdown(fd, SHUT_WR);

  serve::LineReader reader(fd);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "echo:{\"n\":1}");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "echo:{\"n\":2}");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "echo:{\"n\":3}");
  EXPECT_FALSE(reader.ReadLine(&line));
  ::close(fd);
  server.Stop();
}

TEST(NdjsonServerTest, DrainStopsAcceptingButFinishesSessions) {
  serve::NdjsonServer server;
  ASSERT_TRUE(server.Start(0, [](std::string line, serve::LineReply reply) {
    reply("ok:" + line);
  }));
  const int fd = serve::ConnectTcp("127.0.0.1", server.port(), 1000.0);
  ASSERT_GE(fd, 0);
  // Round-trip once so the session is accepted before the listener dies
  // (a queued-but-unaccepted connection is torn down with the listener).
  serve::LineReader reader(fd);
  std::string line;
  ASSERT_TRUE(serve::SendLine(fd, "early"));
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "ok:early");

  server.Drain();
  // New connections are refused (the listener is shut down)...
  const int rejected = serve::ConnectTcp("127.0.0.1", server.port(), 200.0);
  if (rejected >= 0) ::close(rejected);  // backlog race; never served
  // ...but the existing session still answers.
  ASSERT_TRUE(serve::SendLine(fd, "late"));
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "ok:late");
  ::close(fd);
  server.Stop();
}

// Regression: accepted sockets used to inherit the listener's 1-s receive
// timeout, so a session idle for longer than that was dropped and the
// client read EOF on its next request.
TEST(NdjsonServerTest, IdleConnectionOutlivesOneSecond) {
  serve::NdjsonServer server;
  ASSERT_TRUE(server.Start(0, [](std::string line, serve::LineReply reply) {
    reply("echo:" + line);
  }));
  const int fd = serve::ConnectTcp("127.0.0.1", server.port(), 1000.0);
  ASSERT_GE(fd, 0);
  serve::LineReader reader(fd);
  std::string line;
  ASSERT_TRUE(serve::SendLine(fd, "first"));
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "echo:first");
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  ASSERT_TRUE(serve::SendLine(fd, "second"));
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "echo:second");
  ::close(fd);
  server.Stop();
}

// Regression: finished sessions must be reaped while the server runs — a
// long-running daemon must not hold one fd + thread per disconnected
// client until Stop() (fd exhaustion kills the accept loop).
TEST(NdjsonServerTest, ReapsFinishedConnections) {
  serve::NdjsonServer server;
  ASSERT_TRUE(server.Start(0, [](std::string line, serve::LineReply reply) {
    reply("echo:" + line);
  }));

  for (int i = 0; i < 3; ++i) {
    const int fd = serve::ConnectTcp("127.0.0.1", server.port(), 1000.0);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve::SendLine(fd, "ping"));
    serve::LineReader reader(fd);
    std::string line;
    ASSERT_TRUE(reader.ReadLine(&line));
    ::close(fd);
  }
  // The accept loop sweeps at least once a second (poll timeout), so
  // every closed session is joined + closed well within the deadline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.tracked_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(server.tracked_connections(), 0u);
  server.Stop();
}

/// Polls `done` every 5 ms until it holds or `seconds` pass.
template <typename Predicate>
bool WaitFor(Predicate done, double seconds = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// A receive timeout, so a wedged server fails the test instead of
/// hanging it.
void SetRecvTimeout(int fd, int ms) {
  timeval tv{ms / 1000, (ms % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// A loopback client with a pinned 4 KB receive buffer, so replies it does
/// not read back up into the server after a few kilobytes.
int ConnectNonReader(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int bytes = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// An engine stand-in with one worker: answers the lines of every
/// connection in arrival order on one thread, each reply padded to
/// `reply_bytes`. A worker blocked writing to one client would stall all
/// the others.
class OneWorker {
 public:
  explicit OneWorker(size_t reply_bytes)
      : padding_(reply_bytes, 'x'), thread_([this] { Loop(); }) {}
  ~OneWorker() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  OneWorker(const OneWorker&) = delete;
  OneWorker& operator=(const OneWorker&) = delete;

  serve::LineHandler Handler() {
    return [this](std::string line, serve::LineReply reply) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.emplace_back(std::move(line), std::move(reply));
      }
      cv_.notify_one();
    };
  }
  int answered() const { return answered_.load(); }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;
      auto [line, reply] = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      reply(line + ":" + padding_);
      answered_.fetch_add(1);
      lock.lock();
    }
  }

  const std::string padding_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::string, serve::LineReply>> queue_;
  bool closed_ = false;
  std::atomic<int> answered_{0};
  std::thread thread_;
};

TEST(NdjsonServerTest, RepliesKeepRequestOrderWhenLaterLinesFinishFirst) {
  // Line i is answered from its own thread after kDelayMs[i], so most
  // lines finish before the ones sent ahead of them.
  static constexpr int kDelayMs[] = {60, 0, 30, 0, 10, 0, 45, 5};
  serve::NdjsonServer server;
  ASSERT_TRUE(server.Start(0, [](std::string line, serve::LineReply reply) {
    std::thread([line = std::move(line), reply = std::move(reply)] {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kDelayMs[std::stoi(line)]));
      reply("r" + line);
    }).detach();
  }));
  const int fd = serve::ConnectTcp("127.0.0.1", server.port(), 1000.0);
  ASSERT_GE(fd, 0);
  SetRecvTimeout(fd, 5000);
  std::string lines;
  for (size_t i = 0; i < std::size(kDelayMs); ++i) {
    lines += std::to_string(i) + "\n";
  }
  ASSERT_TRUE(serve::SendAll(fd, lines.data(), lines.size()));
  serve::LineReader reader(fd);
  std::string line;
  for (size_t i = 0; i < std::size(kDelayMs); ++i) {
    ASSERT_TRUE(reader.ReadLine(&line)) << i;
    EXPECT_EQ(line, "r" + std::to_string(i));
  }
  ::close(fd);
  server.Stop();
  EXPECT_EQ(server.in_flight(), 0);
}

TEST(NdjsonServerTest, UnwrittenRepliesCapTheReader) {
  // "hold" lines stay unanswered until the test releases them, so each
  // one dispatched is a reply the connection has not written.
  std::mutex mutex;
  std::vector<std::pair<std::string, serve::LineReply>> held;
  bool release = false;
  std::atomic<size_t> calls{0};
  serve::NdjsonServer server;
  ASSERT_TRUE(server.Start(0, [&](std::string line, serve::LineReply reply) {
    if (line.rfind("hold", 0) != 0) {
      reply("echo:" + line);
      return;
    }
    calls.fetch_add(1);
    std::lock_guard<std::mutex> lock(mutex);
    if (release) {
      reply(std::move(line));
    } else {
      held.emplace_back(std::move(line), std::move(reply));
    }
  }));

  // A client pipelines 300 lines past the cap and reads nothing.
  const size_t cap = serve::kMaxUnwrittenReplies;
  const size_t total = cap + 300;
  const int flood = serve::ConnectTcp("127.0.0.1", server.port(), 1000.0);
  ASSERT_GE(flood, 0);
  SetRecvTimeout(flood, 5000);
  std::string lines;
  for (size_t i = 0; i < total; ++i) lines += "hold:" + std::to_string(i) + "\n";
  ASSERT_TRUE(serve::SendAll(flood, lines.data(), lines.size()));
  ASSERT_TRUE(WaitFor([&] { return calls.load() >= cap; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(calls.load(), cap);
  EXPECT_EQ(server.in_flight(), static_cast<int64_t>(cap));

  // Another connection is still answered at once.
  const int other = serve::ConnectTcp("127.0.0.1", server.port(), 1000.0);
  ASSERT_GE(other, 0);
  SetRecvTimeout(other, 2000);
  ASSERT_TRUE(serve::SendLine(other, "ping"));
  serve::LineReader other_reader(other);
  std::string line;
  ASSERT_TRUE(other_reader.ReadLine(&line));
  EXPECT_EQ(line, "echo:ping");
  ::close(other);

  // Once the held lines are answered the reader goes on, and every line
  // is answered once, in order.
  std::vector<std::pair<std::string, serve::LineReply>> answers;
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
    answers.swap(held);
  }
  for (auto& [text, reply] : answers) reply(std::move(text));
  serve::LineReader reader(flood);
  for (size_t i = 0; i < total; ++i) {
    ASSERT_TRUE(reader.ReadLine(&line)) << i;
    ASSERT_EQ(line, "hold:" + std::to_string(i));
  }
  EXPECT_EQ(calls.load(), total);
  ::close(flood);
  EXPECT_TRUE(WaitFor([&] { return server.in_flight() == 0; }));
  server.Stop();
}

TEST(NdjsonServerTest, ClientThatNeverReadsDoesNotDelayAnotherConnection) {
  // 300 replies of 64 KB: far more than the socket buffers between the
  // server and a client with a 4 KB receive buffer.
  OneWorker worker(64 << 10);
  serve::NdjsonServer server;
  ASSERT_TRUE(server.Start(0, worker.Handler()));
  const int stuck = ConnectNonReader(server.port());
  ASSERT_GE(stuck, 0);
  std::string lines;
  for (int i = 0; i < 300; ++i) lines += "s" + std::to_string(i) + "\n";
  ASSERT_TRUE(serve::SendAll(stuck, lines.data(), lines.size()));
  // The one worker answers every line although nobody reads the replies.
  EXPECT_TRUE(WaitFor([&] { return worker.answered() == 300; }))
      << worker.answered();

  // The same worker answers another connection at once.
  const int other = serve::ConnectTcp("127.0.0.1", server.port(), 1000.0);
  ASSERT_GE(other, 0);
  SetRecvTimeout(other, 2000);
  ASSERT_TRUE(serve::SendLine(other, "ping"));
  serve::LineReader reader(other);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line.substr(0, 5), "ping:");
  ::close(other);

  // Closing with the replies unread drops them; nothing stays in flight.
  EXPECT_GT(server.in_flight(), 0);
  ::close(stuck);
  EXPECT_TRUE(WaitFor([&] { return server.in_flight() == 0; }))
      << server.in_flight();
  server.Stop();
}

TEST(NdjsonServerTest, ClientClosingMidStreamLeavesNothingInFlight) {
  serve::NdjsonServer server;
  ASSERT_TRUE(server.Start(0, ScriptedHandler("late", /*delay_ms=*/50.0)));
  const int fd = serve::ConnectTcp("127.0.0.1", server.port(), 1000.0);
  ASSERT_GE(fd, 0);
  std::string lines;
  for (int i = 0; i < 20; ++i) lines += "{}\n";
  ASSERT_TRUE(serve::SendAll(fd, lines.data(), lines.size()));
  ASSERT_TRUE(WaitFor([&] { return server.in_flight() == 20; }));
  // Gone before any reply is ready: the replies have nowhere to go.
  ::close(fd);
  EXPECT_TRUE(WaitFor([&] { return server.in_flight() == 0; }))
      << server.in_flight();
  EXPECT_TRUE(WaitFor([&] { return server.tracked_connections() == 0; }));
  server.Stop();
}

TEST(ConnectTcpTest, ResolvesHostnames) {
  serve::NdjsonServer server;
  ASSERT_TRUE(server.Start(0, [](std::string line, serve::LineReply reply) {
    reply("hi:" + line);
  }));
  // "localhost" exercises getaddrinfo (and the fall-through past any ::1
  // candidate — the server listens on 127.0.0.1 only).
  const int fd = serve::ConnectTcp("localhost", server.port(), 2000.0);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(serve::SendLine(fd, "there"));
  serve::LineReader reader(fd);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "hi:there");
  ::close(fd);
  server.Stop();
}

TEST(RouterTest, ReloadAllRejectsUnknownModelWithoutFanOut) {
  FakeReplica a(ScriptedHandler("a"));
  Router router(Specs({a.port()}), TestOptions());
  // '&' would corrupt the query string fanned out to every replica.
  const obs::JsonValue rejected = router.ReloadAll("bad&model=x", 1);
  ASSERT_NE(rejected.Find("error"), nullptr);
  EXPECT_EQ(rejected.Find("replicas")->size(), 0u);
  // A known wire name passes validation and reaches the per-replica loop
  // (here reporting the spec's missing admin plane, not a rejection).
  const obs::JsonValue accepted = router.ReloadAll("telebert", 1);
  EXPECT_EQ(accepted.Find("error"), nullptr);
  ASSERT_EQ(accepted.Find("replicas")->size(), 1u);
  EXPECT_NE(accepted.Find("replicas")->at(0).Find("error"), nullptr);
}

}  // namespace
}  // namespace route
}  // namespace telekit
