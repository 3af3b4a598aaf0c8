// telekit_router: NDJSON front end for a fleet of telekit_serve replicas.
//
// Speaks the same wire protocol as telekit_serve, so clients point at the
// router unchanged. Requests are sharded over the fleet by consistent
// hash of the request text (EmbeddingCache affinity), with health-aware
// failover, bounded retries, per-request deadline budgets, and optional
// tail hedging. Admin endpoints: /fleetz (replica health), /reloadz
// (hot-reload fan-out to every replica), /readyz (200 iff at least one
// replica is routable), /quitquitquit (graceful drain), /tracezd
// (cross-process trace assembly: local spans + every replica's /spanz
// merged into one tree; format=chrome for a trace_event export), and
// /fleetmetricz (every replica's /metrics scraped and aggregated into
// one fleet exposition).
//
//   telekit_serve --port=7101 --admin-port=7201 &
//   telekit_serve --port=7102 --admin-port=7202 &
//   telekit_router --port=7001 --admin-port=7002 --replica=7101:7201 --replica=7102:7202

#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flag_parse.h"
#include "obs/admin.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "route/fleet_metrics.h"
#include "route/http_client.h"
#include "route/router.h"
#include "route/trace_assembler.h"
#include "serve/daemon_kit.h"
#include "serve/ndjson_server.h"
#include "serve/protocol.h"

namespace telekit {
namespace route {
namespace {

struct Flags {
  int port = 7001;
  std::vector<ReplicaSpec> replicas;
  RouterOptions options;
  std::string policy = "hash";
  double scrape_timeout_ms = 1000.0;
  serve::DaemonFlags daemon;
};

void ParseFlags(int argc, char** argv, Flags* flags) {
  FlagSet table("telekit_router",
                "--replica=SPEC [--replica=SPEC ...]\n"
                "  SPEC: host:port:admin_port | host:port | port:admin_port"
                " | port");
  RouterOptions& options = flags->options;
  table.Int("port=N", &flags->port, 1, 65535,
            "NDJSON data plane (default 7001)");
  table.List("replica=SPEC", &flags->replicas, ParseReplicaSpec,
             "host:port:admin_port | host:port | port:admin_port | port",
             "a replica to route to (repeatable;\ncomma-separated lists too)");
  table.Int("vnodes=N", &options.vnodes, 1, 1 << 20,
            "virtual nodes per replica (default 64)");
  table.Int("max-attempts=N", &options.max_attempts, 1, 64,
            "tries per request (default 3)");
  table.Double("deadline-ms=X", &options.default_deadline_ms, 0.001,
               serve::kMaxDeadlineMs,
               "default request budget (default 2000)");
  table.Double("per-try-ms=X", &options.per_try_ms, 0.001, 1e9,
               "per-attempt cap (default 1000)");
  table.Double("hedge-ms=X", &options.hedge_delay_ms, 0.0, 1e9,
               "fixed hedge trigger; 0 = p95-derived");
  table.Double("hedge-quantile=Q", &options.hedge_quantile, 0.0, 1.0,
               "derived-trigger quantile (default 0.95)");
  table.Switch("no-hedge", &options.hedge, false, "disable tail hedging");
  table.Choice("policy=hash|random", &flags->policy, {"hash", "random"},
               "replica selection (default hash)");
  table.Double("probe-interval-ms=X", &options.prober.interval_ms, 0.001, 1e9,
               "health sweep period (default 250)");
  table.Double("probe-timeout-ms=X", &options.prober.timeout_ms, 0.001, 1e9,
               "per-probe timeout (default 500)");
  table.Int("eject-after=N", &options.prober.eject_after, 1, 1 << 20,
            "consecutive failures to eject (default 3)");
  table.Int("readmit-after=N", &options.prober.readmit_after, 1, 1 << 20,
            "consecutive probe successes to readmit\n(default 2)");
  table.Double("scrape-timeout-ms=X", &flags->scrape_timeout_ms, 0.001, 1e9,
               "per-replica /spanz and /metrics fan-out\n"
               "timeout (default 1000)");
  serve::DaemonKit::DeclareFlags(&table, &flags->daemon, /*slo=*/false);
  table.Parse(argc, argv);
  if (flags->replicas.empty()) {
    table.UsageError("at least one --replica is required");
  }
  options.policy = flags->policy == "random" ? RoutePolicy::kRandom
                                             : RoutePolicy::kHashRing;
}

int Main(int argc, char** argv) {
  Flags flags;
  ParseFlags(argc, argv, &flags);
  Router router(flags.replicas, flags.options);
  router.Start();

  serve::DaemonKit kit("telekit_router", flags.daemon);
  kit.admin().Handle("/fleetz", [&router](const obs::HttpRequest&) {
    return obs::HttpResponse::Json(200, router.FleetJson());
  });
  kit.admin().Handle("/reloadz", [&router](const obs::HttpRequest& request) {
    const auto params = obs::ParseQuery(request.query);
    std::string model = "telebert";
    if (auto it = params.find("model"); it != params.end()) {
      model = it->second;
    }
    uint64_t seed = 0;
    if (auto it = params.find("seed"); it != params.end()) {
      int64_t parsed = 0;
      if (!ParseInt64(it->second, 0, std::numeric_limits<int64_t>::max(),
                      &parsed)) {
        return obs::HttpResponse::Text(400,
                                       "bad seed: " + it->second + "\n");
      }
      seed = static_cast<uint64_t>(parsed);
    }
    obs::JsonValue result = router.ReloadAll(model, seed);
    const int status = result.Find("error") != nullptr ? 400 : 200;
    return obs::HttpResponse::Json(status, result);
  });
  kit.admin().Handle("/tracezd", [&router,
                                  &flags](const obs::HttpRequest& request) {
    const auto params = obs::ParseQuery(request.query);
    const auto it = params.find("trace_id");
    if (it == params.end()) {
      return obs::HttpResponse::Text(400, "missing trace_id parameter\n");
    }
    uint64_t trace_id = 0;
    if (!obs::ParseTraceIdHex(it->second, &trace_id)) {
      return obs::HttpResponse::Text(
          400, "bad trace_id (want 1-16 hex digits)\n");
    }
    std::vector<SpanSource> sources;
    for (const ReplicaSpec& replica : router.replicas()) {
      SpanSource source;
      source.name = replica.name;
      source.host = replica.host;
      source.admin_port = replica.admin_port;
      sources.push_back(std::move(source));
    }
    const CollectedSpans collected =
        CollectSpans(trace_id, sources, flags.scrape_timeout_ms);
    const auto format = params.find("format");
    if (format != params.end() && format->second == "chrome") {
      return obs::HttpResponse::Json(
          200, AssembleChromeJson(trace_id, collected));
    }
    return obs::HttpResponse::Json(200,
                                   AssembleTraceJson(trace_id, collected));
  });
  kit.admin().Handle("/fleetmetricz", [&router,
                                       &flags](const obs::HttpRequest&) {
    std::vector<ReplicaScrape> scrapes;
    for (const ReplicaSpec& replica : router.replicas()) {
      ReplicaScrape scrape;
      scrape.replica = replica.name;
      if (replica.admin_port > 0) {
        auto result = HttpGet(replica.host, replica.admin_port, "/metrics",
                              flags.scrape_timeout_ms);
        if (result.ok() && result.value().status == 200) {
          scrape.ok = true;
          scrape.exposition = std::move(result.value().body);
        }
      }
      scrapes.push_back(std::move(scrape));
    }
    obs::HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = AggregateFleetMetrics(scrapes);
    return response;
  });
  kit.admin().Handle("/readyz", [&router, &kit](const obs::HttpRequest&) {
    if (kit.draining().load()) {
      return obs::HttpResponse::Text(503, "draining\n");
    }
    if (router.prober().num_routable() == 0) {
      return obs::HttpResponse::Text(503, "no routable replicas\n");
    }
    return obs::HttpResponse::Text(200, "ready\n");
  });
  kit.HandleStatus([&router, &kit](obs::JsonValue* out) {
    out->Set("draining", obs::JsonValue(kit.draining().load()));
    out->Set("fleet", router.FleetJson());
  });
  kit.HandleQuit();
  if (!kit.Start(flags.port)) return 1;

  // Each request line forwards on its own thread so one slow upstream
  // never blocks the other requests pipelined on the same connection
  // (responses still come back in order per connection). The thread's last
  // use of anything it does not own is `reply`: the session waits for every
  // reply before it ends, and ServeUntilQuit stops the server before the
  // router stops.
  serve::LineHandler handler = [&router, &kit](std::string line,
                                               serve::LineReply reply) {
    if (kit.draining().load()) {
      // Even the drain rejection echoes the caller's id and trace id, so
      // client-side correlation survives the shutdown window.
      std::unique_ptr<obs::JsonValue> id;
      uint64_t trace_id = 0;
      obs::JsonValue json;
      std::string parse_error;
      if (obs::JsonValue::Parse(line, &json, &parse_error) &&
          json.is_object()) {
        if (const obs::JsonValue* found = json.Find("id")) {
          id = std::make_unique<obs::JsonValue>(*found);
        }
        if (const obs::JsonValue* trace = json.Find("trace");
            trace != nullptr && trace->is_string()) {
          obs::ParseTraceIdHex(trace->AsString(), &trace_id);
        }
      }
      reply(serve::ErrorToJson(Status::Unavailable("draining"), id.get(),
                               trace_id)
                .Dump());
      return;
    }
    std::thread([&router, line = std::move(line), reply = std::move(reply)] {
      reply(router.Handle(line));
    }).detach();
  };

  serve::NdjsonServer server;
  if (!server.Start(flags.port, handler)) {
    std::cerr << "failed to listen on 127.0.0.1:" << flags.port << "\n";
    return 1;
  }
  std::cerr << "telekit_router listening on 127.0.0.1:" << server.port()
            << " (" << flags.replicas.size() << " replicas, policy="
            << flags.policy << ")\n";
  kit.MarkReady();
  kit.ServeUntilQuit(&server);
  router.Stop();
  kit.Finish();
  return 0;
}

}  // namespace
}  // namespace route
}  // namespace telekit

int main(int argc, char** argv) {
  return telekit::route::Main(argc, argv);
}
