// Tests for the admin HTTP server and the Prometheus text exposition:
// liveness/readiness flows, route dispatch, exposition well-formedness
// (monotone cumulative buckets terminated by +Inf == _count), /tracez
// Chrome-trace output, and concurrent scrapes racing metric traffic (the
// case the TSan gate exists for).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace telekit {
namespace obs {
namespace {

struct HttpReply {
  int status = 0;
  std::string headers;
  std::string body;
};

/// Loopback TCP connection to `port`, or -1. A positive `rcvbuf` shrinks
/// the receive buffer before connecting (the kernel then stops growing it).
int Connect(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Raw-socket HTTP/1.0 client, deliberately independent of the server's
/// own parsing code. A reply that has not arrived within 5 s reads as
/// status 0, so a wedged server fails a test instead of hanging it.
HttpReply HttpRaw(int port, const std::string& request) {
  HttpReply reply;
  const int fd = Connect(port);
  if (fd < 0) return reply;
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string raw;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    raw.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return reply;
  reply.headers = raw.substr(0, header_end);
  reply.body = raw.substr(header_end + 4);
  // "HTTP/1.0 200 OK"
  const size_t space = reply.headers.find(' ');
  if (space != std::string::npos) {
    reply.status = std::atoi(reply.headers.c_str() + space + 1);
  }
  return reply;
}

HttpReply HttpGet(int port, const std::string& path,
                  const std::string& method = "GET") {
  return HttpRaw(port, method + " " + path + " HTTP/1.0\r\n\r\n");
}

TEST(AdminServerTest, HealthzBeforeAndAfterStop) {
  AdminServer server;
  ASSERT_TRUE(server.Start(0));  // ephemeral port
  const int port = server.port();
  ASSERT_GT(port, 0);
  EXPECT_TRUE(server.running());

  const HttpReply reply = HttpGet(port, "/healthz");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "ok\n");

  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  // A dead server answers nothing.
  EXPECT_EQ(HttpGet(port, "/healthz").status, 0);
}

TEST(AdminServerTest, IndexListsRoutesAndUnknownIs404) {
  AdminServer server;
  ASSERT_TRUE(server.Start(0));
  const HttpReply index = HttpGet(server.port(), "/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/healthz"), std::string::npos);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);

  const HttpReply missing = HttpGet(server.port(), "/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("/healthz"), std::string::npos);
}

TEST(AdminServerTest, RejectsNonGetAndMalformedRequests) {
  AdminServer server;
  ASSERT_TRUE(server.Start(0));
  EXPECT_EQ(HttpGet(server.port(), "/healthz", "POST").status, 405);
  // HEAD is allowed and must carry no body.
  const HttpReply head = HttpGet(server.port(), "/healthz", "HEAD");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());
  EXPECT_NE(head.headers.find("Content-Length: 3"), std::string::npos);
  // Unknown methods are refused even with a well-formed request line.
  EXPECT_EQ(HttpGet(server.port(), "/healthz", "GARBAGE").status, 405);
  // A request line without method/target/version is malformed.
  EXPECT_EQ(HttpRaw(server.port(), "junk\r\n\r\n").status, 400);
}

TEST(AdminServerTest, StartFailsWhenPortTaken) {
  AdminServer first;
  ASSERT_TRUE(first.Start(0));
  AdminServer second;
  EXPECT_FALSE(second.Start(first.port()));
  // Double-start of a running server is refused too.
  EXPECT_FALSE(first.Start(0));
}

// The /readyz contract telekit_serve implements: 503 while loading, 200
// when ready, back to 503 when the queue saturates. The handler override
// mechanism (later registration wins) is what makes this possible.
TEST(AdminServerTest, ReadyzFlipsWithServerState) {
  std::atomic<bool> ready{false};
  std::atomic<bool> saturated{false};
  AdminServer server;
  server.Handle("/readyz", [&](const HttpRequest&) {
    if (!ready.load()) return HttpResponse::Text(503, "loading\n");
    if (saturated.load()) {
      return HttpResponse::Text(503, "queue saturated\n");
    }
    return HttpResponse::Text(200, "ready\n");
  });
  ASSERT_TRUE(server.Start(0));

  EXPECT_EQ(HttpGet(server.port(), "/readyz").status, 503);
  ready.store(true);
  EXPECT_EQ(HttpGet(server.port(), "/readyz").status, 200);
  saturated.store(true);
  const HttpReply reply = HttpGet(server.port(), "/readyz");
  EXPECT_EQ(reply.status, 503);
  EXPECT_EQ(reply.body, "queue saturated\n");
}

TEST(AdminServerTest, MetricsExpositionIsWellFormed) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.GetCounter("admtest/requests").Increment(5);
  registry.GetGauge("admtest/depth").Set(2.5);
  Histogram& latency = registry.GetHistogram("admtest/latency_ms");
  for (int i = 1; i <= 50; ++i) latency.Observe(static_cast<double>(i));
  latency.Observe(1e9);  // past the tracked range: the top bucket

  AdminServer server;
  ASSERT_TRUE(server.Start(0));
  const HttpReply reply = HttpGet(server.port(), "/metrics");
  ASSERT_EQ(reply.status, 200);
  EXPECT_NE(reply.headers.find("version=0.0.4"), std::string::npos);

  const std::string& text = reply.body;
  EXPECT_NE(text.find("# TYPE telekit_admtest_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("telekit_admtest_requests 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE telekit_admtest_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("telekit_admtest_depth 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE telekit_admtest_latency_ms histogram"),
            std::string::npos);

  // The _bucket series must be cumulative (monotone non-decreasing) and
  // terminate with le="+Inf" equal to _count.
  const std::string metric = "telekit_admtest_latency_ms";
  std::istringstream lines(text);
  std::string line;
  long long last = -1;
  long long inf_value = -1;
  long long count_value = -2;
  bool saw_bucket = false;
  while (std::getline(lines, line)) {
    if (line.rfind(metric + "_bucket{", 0) == 0) {
      saw_bucket = true;
      const long long value =
          std::atoll(line.substr(line.rfind(' ') + 1).c_str());
      EXPECT_GE(value, last) << line;
      last = value;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_value = value;
    } else if (line.rfind(metric + "_count ", 0) == 0) {
      count_value = std::atoll(line.substr(line.rfind(' ') + 1).c_str());
    }
  }
  EXPECT_TRUE(saw_bucket);
  EXPECT_EQ(inf_value, 51);
  EXPECT_EQ(count_value, 51);
  registry.Reset();
}

// /tracez is the request log in Chrome form: the same filters as /requestz,
// one lane of request/queue/encode/score slices per matching wide event.
TEST(AdminServerTest, TracezReturnsChromeTraceJson) {
  RequestLog::Global().Reset();
  WideEvent slow;
  slow.t_s = 2.0;
  slow.trace_id = 0xabcdef12u;
  slow.op = "rca";
  slow.queue_us = 500;
  slow.encode_us = 1200;
  slow.score_us = 100;
  slow.total_us = 1800;
  slow.status = "ok";
  RequestLog::Global().Record(slow);
  WideEvent fast = slow;
  fast.trace_id = 0x5u;
  fast.total_us = 300;
  RequestLog::Global().Record(fast);

  AdminServer server;
  ASSERT_TRUE(server.Start(0));
  const HttpReply reply = HttpGet(server.port(), "/tracez?min_ms=1");
  ASSERT_EQ(reply.status, 200);
  EXPECT_NE(reply.headers.find("application/json"), std::string::npos);

  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(reply.body, &parsed, &error)) << error;
  const JsonValue* events = parsed.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // min_ms=1 keeps the 1.8 ms request and drops the 0.3 ms one.
  ASSERT_EQ(events->size(), 4u);
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& slice = events->at(i);
    EXPECT_EQ(slice.Find("ph")->AsString(), "X");
    EXPECT_EQ(slice.Find("args")->Find("trace")->AsString(),
              "00000000abcdef12");
  }
  // The request slice ends when the event was recorded (t_s = 2 s).
  EXPECT_EQ(events->at(0).Find("name")->AsString(), "rca/request");
  EXPECT_DOUBLE_EQ(events->at(0).Find("ts")->AsNumber(), 2e6 - 1800);
  EXPECT_DOUBLE_EQ(events->at(0).Find("dur")->AsNumber(), 1800);
  EXPECT_DOUBLE_EQ(parsed.Find("count")->AsNumber(), 1.0);

  EXPECT_EQ(HttpGet(server.port(), "/tracez?min_ms=fast").status, 400);
  EXPECT_EQ(HttpGet(server.port(), "/tracez").status, 200);
  RequestLog::Global().Reset();
}

// Every daemon's admin plane answers /spanz out of the box — the router's
// /tracezd assembler depends on that to fan out across the fleet.
TEST(AdminServerTest, SpanzIsBuiltInAndServesRecordedSpans) {
  SpanStore& store = SpanStore::Global();
  store.Reset();
  SpanRecord span;
  span.trace_id = 0xf00du;
  span.name = "serve/request";
  span.outcome = "ok";
  store.Record(span);

  AdminServer server;
  ASSERT_TRUE(server.Start(0));
  const HttpReply reply =
      HttpGet(server.port(), "/spanz?trace_id=000000000000f00d");
  ASSERT_EQ(reply.status, 200);
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(reply.body, &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("trace_id")->AsString(), "000000000000f00d");
  ASSERT_EQ(parsed.Find("spans")->size(), 1u);
  EXPECT_EQ(parsed.Find("spans")->at(0).Find("name")->AsString(),
            "serve/request");
  EXPECT_EQ(HttpGet(server.port(), "/spanz?trace_id=nope").status, 400);
  EXPECT_EQ(HttpGet(server.port(), "/spanz").status, 200);  // summary
  server.Stop();
  store.Reset();
}

// Scrapes race metric writers and the request log; run under TSan via
// scripts/check_tier1.sh. Every reply must still be well-formed.
TEST(AdminServerTest, ConcurrentScrapesUnderMetricTraffic) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  AdminServer server;
  ASSERT_TRUE(server.Start(0));
  const int port = server.port();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Counter& counter = registry.GetCounter("admtest/race_requests");
    Histogram& latency = registry.GetHistogram("admtest/race_ms");
    uint64_t i = 0;
    while (!stop.load()) {
      counter.Increment();
      latency.Observe(static_cast<double>(i % 50) + 0.5);
      if (i % 64 == 0) {
        WideEvent event;
        event.trace_id = i + 1;
        event.op = "rca";
        event.total_us = i;
        RequestLog::Global().Record(std::move(event));
      }
      ++i;
    }
  });

  std::vector<std::thread> scrapers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&, t] {
      const char* paths[] = {"/metrics", "/healthz", "/tracez"};
      for (int i = 0; i < 8; ++i) {
        const HttpReply reply = HttpGet(port, paths[(t + i) % 3]);
        if (reply.status != 200) failures.fetch_add(1);
      }
    });
  }
  for (auto& scraper : scrapers) scraper.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  RequestLog::Global().Reset();
  registry.Reset();
}

/// Seconds a /healthz GET takes; `*status` gets its status (0 = none).
double TimedHealthz(int port, int* status) {
  const auto start = std::chrono::steady_clock::now();
  *status = HttpGet(port, "/healthz").status;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// A client that asks for a reply larger than the socket buffers and never
// reads it must not hold the serial admin loop past its deadline.
TEST(AdminServerTest, ClientThatNeverReadsDoesNotHoldTheLoop) {
  AdminServer server;
  server.Handle("/big", [](const HttpRequest&) {
    return HttpResponse::Text(200, std::string(16 << 20, 'x'));
  });
  ASSERT_TRUE(server.Start(0));
  const int stalled = Connect(server.port(), /*rcvbuf=*/4096);
  ASSERT_GE(stalled, 0);
  const std::string request = "GET /big HTTP/1.0\r\n\r\n";
  ::send(stalled, request.data(), request.size(), MSG_NOSIGNAL);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  int status = 0;
  const double elapsed_s = TimedHealthz(server.port(), &status);
  EXPECT_EQ(status, 200);
  EXPECT_LT(elapsed_s, 1.5);
  ::close(stalled);
}

// A client that dribbles its request line one byte at a time must be cut
// off at the same deadline.
TEST(AdminServerTest, DribblingClientDoesNotHoldTheLoop) {
  AdminServer server;
  ASSERT_TRUE(server.Start(0));
  const int dribbler = Connect(server.port());
  ASSERT_GE(dribbler, 0);
  std::atomic<bool> stop{false};
  std::thread dribble([&] {
    const std::string start = "GET /";
    for (size_t i = 0; !stop.load(); ++i) {
      const char byte = i < start.size() ? start[i] : 'a';
      if (::send(dribbler, &byte, 1, MSG_NOSIGNAL) != 1) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  int status = 0;
  const double elapsed_s = TimedHealthz(server.port(), &status);
  EXPECT_EQ(status, 200);
  EXPECT_LT(elapsed_s, 1.5);
  stop.store(true);
  dribble.join();
  ::close(dribbler);
}

TEST(AdminServerTest, LoglevelzReadsAndSetsLiveLevel) {
  const LogLevel saved = Logger::Global().level();
  AdminServer server;
  ASSERT_TRUE(server.Start(0));
  const int port = server.port();

  HttpReply reply = HttpGet(port, "/loglevelz");
  ASSERT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find(LogLevelName(saved)), std::string::npos);

  reply = HttpGet(port, "/loglevelz?set=debug");
  ASSERT_EQ(reply.status, 200);
  EXPECT_EQ(Logger::Global().level(), LogLevel::kDebug);
  EXPECT_NE(reply.body.find("\"previous\""), std::string::npos);
  EXPECT_NE(reply.body.find("DEBUG"), std::string::npos);

  // Typos are rejected and leave the live level untouched.
  reply = HttpGet(port, "/loglevelz?set=loud");
  EXPECT_EQ(reply.status, 400);
  EXPECT_NE(reply.body.find("unknown level"), std::string::npos);
  EXPECT_EQ(Logger::Global().level(), LogLevel::kDebug);

  Logger::Global().set_level(saved);
}

// A live /loglevelz?set races TELEKIT_LOG emission on another thread; the
// level is one relaxed atomic, so every set must succeed and TSan must
// stay quiet. The sink swap keeps the spin loop off stderr.
TEST(AdminServerTest, ConcurrentLogLevelSetsRaceEmission) {
  const LogLevel saved = Logger::Global().level();
  std::atomic<uint64_t> sunk{0};
  Logger::Global().SetSink(
      [&sunk](const LogRecord&) { sunk.fetch_add(1); });
  AdminServer server;
  ASSERT_TRUE(server.Start(0));
  const int port = server.port();

  std::atomic<bool> stop{false};
  std::thread emitter([&] {
    while (!stop.load()) {
      TELEKIT_LOG(INFO) << "level race probe";
    }
  });
  int failures = 0;
  const char* levels[] = {"debug", "warn", "info", "off", "error"};
  for (int i = 0; i < 25; ++i) {
    const std::string path = std::string("/loglevelz?set=") + levels[i % 5];
    if (HttpGet(port, path).status != 200) ++failures;
  }
  stop.store(true);
  emitter.join();
  EXPECT_EQ(failures, 0);
  Logger::Global().SetSink(nullptr);
  Logger::Global().set_level(saved);
}

// Every response -- success, handler-level 400s, 404, 405, and malformed
// 400s -- must advertise a Content-Type, a Content-Length, and close the
// connection (the server speaks one-shot HTTP/1.0).
TEST(AdminServerTest, AllResponsesCarryContentTypeAndConnectionClose) {
  AdminServer server;
  ASSERT_TRUE(server.Start(0));
  const int port = server.port();
  struct Case {
    std::string request;
    int status;
  };
  const std::vector<Case> cases = {
      {"GET / HTTP/1.0\r\n\r\n", 200},
      {"GET /healthz HTTP/1.0\r\n\r\n", 200},
      {"GET /metrics HTTP/1.0\r\n\r\n", 200},
      {"GET /tracez HTTP/1.0\r\n\r\n", 200},
      {"GET /requestz HTTP/1.0\r\n\r\n", 200},
      {"GET /loglevelz HTTP/1.0\r\n\r\n", 200},
      {"GET /loglevelz?set=bogus HTTP/1.0\r\n\r\n", 400},
      {"GET /requestz?min_ms=abc HTTP/1.0\r\n\r\n", 400},
      {"GET /nope HTTP/1.0\r\n\r\n", 404},
      {"POST /healthz HTTP/1.0\r\n\r\n", 405},
      {"junk\r\n\r\n", 400},
  };
  for (const Case& test_case : cases) {
    const HttpReply reply = HttpRaw(port, test_case.request);
    EXPECT_EQ(reply.status, test_case.status) << test_case.request;
    EXPECT_NE(reply.headers.find("Content-Type: "), std::string::npos)
        << test_case.request;
    EXPECT_NE(reply.headers.find("Content-Length: "), std::string::npos)
        << test_case.request;
    EXPECT_NE(reply.headers.find("Connection: close"), std::string::npos)
        << test_case.request;
  }
}

TEST(AdminServerTest, MetricsBucketLinesCarryExemplars) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  ExemplarStore::Global().Reset();
  registry.GetHistogram("admtest/exm_ms").Observe(23.7);
  ExemplarStore::Global().Record("admtest/exm_ms", 23.7, 0x4d2);

  AdminServer server;
  ASSERT_TRUE(server.Start(0));
  const HttpReply reply = HttpGet(server.port(), "/metrics");
  ASSERT_EQ(reply.status, 200);
  const std::string needle = "# {trace_id=\"00000000000004d2\"} 23.7";
  EXPECT_NE(reply.body.find(needle), std::string::npos);
  // The exemplar must ride a bucket line of the observed histogram, not a
  // free-floating comment.
  std::istringstream lines(reply.body);
  std::string line;
  bool on_bucket_line = false;
  while (std::getline(lines, line)) {
    if (line.find(needle) == std::string::npos) continue;
    on_bucket_line =
        line.rfind("telekit_admtest_exm_ms_bucket{le=\"", 0) == 0;
  }
  EXPECT_TRUE(on_bucket_line);
  ExemplarStore::Global().Reset();
  registry.Reset();
}

TEST(AdminServerTest, RequestzOverHttpFiltersByTraceId) {
  RequestLog::Global().Reset();
  WideEvent event;
  event.trace_id = 0xabcu;
  event.op = "rca";
  event.total_us = 1500;
  event.verdict = "surface";
  event.status = "ok";
  RequestLog::Global().Record(event);
  WideEvent other;
  other.trace_id = 0xdefu;
  other.op = "eap";
  other.total_us = 900;
  other.status = "ok";
  RequestLog::Global().Record(other);

  AdminServer server;
  ASSERT_TRUE(server.Start(0));
  const HttpReply reply = HttpGet(server.port(), "/requestz?trace_id=abc");
  ASSERT_EQ(reply.status, 200);
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(reply.body, &parsed, &error)) << error;
  const JsonValue* events = parsed.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ(events->at(0).Find("trace_id")->AsString(), "0000000000000abc");
  EXPECT_EQ(events->at(0).Find("op")->AsString(), "rca");
  // Non-hex trace ids are rejected at the HTTP layer.
  EXPECT_EQ(HttpGet(server.port(), "/requestz?trace_id=xyz").status, 400);
  RequestLog::Global().Reset();
}

}  // namespace
}  // namespace obs
}  // namespace telekit
