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

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flag_parse.h"
#include "common/string_util.h"
#include "obs/admin.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/report.h"
#include "obs/requestlog.h"
#include "obs/spanstore.h"
#include "obs/trace.h"
#include "route/fleet_metrics.h"
#include "route/http_client.h"
#include "route/router.h"
#include "route/trace_assembler.h"
#include "serve/ndjson_server.h"
#include "serve/protocol.h"

namespace telekit {
namespace route {
namespace {

struct Flags {
  int port = 7001;
  int admin_port = -1;  // -1 = disabled, 0 = ephemeral
  std::vector<std::string> replica_specs;
  int vnodes = 64;
  int max_attempts = 3;
  double deadline_ms = 2000.0;
  double per_try_ms = 1000.0;
  bool hedge = true;
  double hedge_ms = 0.0;       // 0 = derive from the latency quantile
  double hedge_quantile = 0.95;
  std::string policy = "hash";
  double probe_interval_ms = 250.0;
  double probe_timeout_ms = 500.0;
  int eject_after = 3;
  int readmit_after = 2;
  double scrape_timeout_ms = 1000.0;
  std::string request_log;
  std::string obs_json;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

void PrintUsage() {
  std::cerr
      << "usage: telekit_router --replica=SPEC [--replica=SPEC ...]\n"
      << "  SPEC: host:port:admin_port | host:port | port:admin_port | port\n"
      << "  --port=N              NDJSON data plane (default 7001)\n"
      << "  --admin-port=N        admin endpoints on 127.0.0.1:N\n"
      << "                        (0 = ephemeral; default off)\n"
      << "  --vnodes=N            virtual nodes per replica (default 64)\n"
      << "  --max-attempts=N      tries per request (default 3)\n"
      << "  --deadline-ms=X       default request budget (default 2000)\n"
      << "  --per-try-ms=X        per-attempt cap (default 1000)\n"
      << "  --hedge-ms=X          fixed hedge trigger; 0 = p95-derived\n"
      << "  --hedge-quantile=Q    derived-trigger quantile (default 0.95)\n"
      << "  --no-hedge            disable tail hedging\n"
      << "  --policy=hash|random  replica selection (default hash)\n"
      << "  --probe-interval-ms=X health sweep period (default 250)\n"
      << "  --probe-timeout-ms=X  per-probe timeout (default 500)\n"
      << "  --eject-after=N       consecutive failures to eject (default 3)\n"
      << "  --readmit-after=N     consecutive probe successes to readmit\n"
      << "                        (default 2)\n"
      << "  --scrape-timeout-ms=X per-replica /spanz and /metrics fan-out\n"
      << "                        timeout (default 1000)\n"
      << "  --request-log=PATH    append one NDJSON wide event per routed\n"
      << "                        request (replica, attempts, hedge)\n"
      << "  --obs-json=PATH       write metrics/trace report on exit\n"
      << "  --log-level=LEVEL     debug|info|warn|error|off\n";
}

void ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "port", &v)) {
      flags->port = static_cast<int>(ParseIntFlagOrDie("port", v, 1, 65535));
    } else if (ParseFlag(arg, "admin-port", &v)) {
      flags->admin_port =
          static_cast<int>(ParseIntFlagOrDie("admin-port", v, -1, 65535));
    } else if (ParseFlag(arg, "replica", &v)) {
      for (const std::string& spec : SplitString(v, ',')) {
        flags->replica_specs.push_back(spec);
      }
    } else if (ParseFlag(arg, "vnodes", &v)) {
      flags->vnodes =
          static_cast<int>(ParseIntFlagOrDie("vnodes", v, 1, 1 << 20));
    } else if (ParseFlag(arg, "max-attempts", &v)) {
      flags->max_attempts =
          static_cast<int>(ParseIntFlagOrDie("max-attempts", v, 1, 64));
    } else if (ParseFlag(arg, "deadline-ms", &v)) {
      flags->deadline_ms = ParseDoubleFlagOrDie("deadline-ms", v, 0.001, 1e9);
    } else if (ParseFlag(arg, "per-try-ms", &v)) {
      flags->per_try_ms = ParseDoubleFlagOrDie("per-try-ms", v, 0.001, 1e9);
    } else if (ParseFlag(arg, "hedge-ms", &v)) {
      flags->hedge_ms = ParseDoubleFlagOrDie("hedge-ms", v, 0.0, 1e9);
    } else if (ParseFlag(arg, "hedge-quantile", &v)) {
      flags->hedge_quantile =
          ParseDoubleFlagOrDie("hedge-quantile", v, 0.0, 1.0);
    } else if (arg == "--no-hedge") {
      flags->hedge = false;
    } else if (ParseFlag(arg, "policy", &v)) {
      flags->policy = v;
    } else if (ParseFlag(arg, "probe-interval-ms", &v)) {
      flags->probe_interval_ms =
          ParseDoubleFlagOrDie("probe-interval-ms", v, 0.001, 1e9);
    } else if (ParseFlag(arg, "probe-timeout-ms", &v)) {
      flags->probe_timeout_ms =
          ParseDoubleFlagOrDie("probe-timeout-ms", v, 0.001, 1e9);
    } else if (ParseFlag(arg, "eject-after", &v)) {
      flags->eject_after =
          static_cast<int>(ParseIntFlagOrDie("eject-after", v, 1, 1 << 20));
    } else if (ParseFlag(arg, "readmit-after", &v)) {
      flags->readmit_after =
          static_cast<int>(ParseIntFlagOrDie("readmit-after", v, 1, 1 << 20));
    } else if (ParseFlag(arg, "scrape-timeout-ms", &v)) {
      flags->scrape_timeout_ms =
          ParseDoubleFlagOrDie("scrape-timeout-ms", v, 0.001, 1e9);
    } else if (ParseFlag(arg, "request-log", &v)) {
      flags->request_log = v;
    } else if (ParseFlag(arg, "obs-json", &v)) {
      flags->obs_json = v;
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

int Main(int argc, char** argv) {
  Flags flags;
  ParseFlags(argc, argv, &flags);
  if (flags.replica_specs.empty()) {
    std::cerr << "at least one --replica is required\n";
    PrintUsage();
    return 1;
  }
  std::vector<ReplicaSpec> replicas;
  for (const std::string& text : flags.replica_specs) {
    ReplicaSpec spec;
    if (!ParseReplicaSpec(text, &spec)) {
      std::cerr << "bad --replica spec: " << text << "\n";
      return 1;
    }
    replicas.push_back(std::move(spec));
  }

  RouterOptions options;
  options.vnodes = flags.vnodes;
  options.max_attempts = flags.max_attempts;
  options.default_deadline_ms = flags.deadline_ms;
  options.per_try_ms = flags.per_try_ms;
  options.hedge = flags.hedge;
  options.hedge_delay_ms = flags.hedge_ms;
  options.hedge_quantile = flags.hedge_quantile;
  if (flags.policy == "hash") {
    options.policy = RoutePolicy::kHashRing;
  } else if (flags.policy == "random") {
    options.policy = RoutePolicy::kRandom;
  } else {
    std::cerr << "bad --policy (want hash|random): " << flags.policy << "\n";
    return 1;
  }
  options.prober.interval_ms = flags.probe_interval_ms;
  options.prober.timeout_ms = flags.probe_timeout_ms;
  options.prober.eject_after = flags.eject_after;
  options.prober.readmit_after = flags.readmit_after;

  Router router(std::move(replicas), options);
  router.Start();

  obs::SpanStore::Global().SetProcessLabel(
      "telekit_router:" + std::to_string(flags.port));
  if (!flags.request_log.empty() &&
      !obs::RequestLog::Global().SetSinkFile(flags.request_log)) {
    std::cerr << "failed to open --request-log=" << flags.request_log << "\n";
    return 1;
  }

  std::atomic<bool> draining{false};
  std::mutex quit_mutex;
  std::condition_variable quit_cv;
  bool quit_requested = false;

  obs::AdminServer admin;
  admin.Handle("/fleetz", [&router](const obs::HttpRequest&) {
    return obs::HttpResponse::Json(200, router.FleetJson());
  });
  admin.Handle("/reloadz", [&router](const obs::HttpRequest& request) {
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
  admin.Handle("/tracezd", [&router, &flags](const obs::HttpRequest& request) {
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
  admin.Handle("/fleetmetricz", [&router, &flags](const obs::HttpRequest&) {
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
  admin.Handle("/readyz", [&router, &draining](const obs::HttpRequest&) {
    if (draining.load()) {
      return obs::HttpResponse::Text(503, "draining\n");
    }
    if (router.prober().num_routable() == 0) {
      return obs::HttpResponse::Text(503, "no routable replicas\n");
    }
    return obs::HttpResponse::Text(200, "ready\n");
  });
  admin.Handle("/statusz", [&router, &draining](const obs::HttpRequest&) {
    obs::JsonValue out = obs::JsonValue::Object();
    out.Set("server", obs::JsonValue("telekit_router"));
    out.Set("draining", obs::JsonValue(draining.load()));
    out.Set("fleet", router.FleetJson());
    return obs::HttpResponse::Json(200, out);
  });
  admin.Handle("/quitquitquit",
               [&draining, &quit_mutex, &quit_cv,
                &quit_requested](const obs::HttpRequest&) {
                 draining.store(true);
                 {
                   std::lock_guard<std::mutex> lock(quit_mutex);
                   quit_requested = true;
                 }
                 quit_cv.notify_all();
                 TELEKIT_LOG(WARN) << "quitquitquit: draining";
                 return obs::HttpResponse::Text(200, "draining\n");
               });
  if (flags.admin_port >= 0 && !admin.Start(flags.admin_port)) {
    std::cerr << "failed to start admin server on 127.0.0.1:"
              << flags.admin_port << "\n";
    return 1;
  }

  // Each request line forwards on its own thread so one slow upstream
  // never blocks the other requests pipelined on the same connection
  // (responses still come back in order per connection).
  serve::LineHandler handler =
      [&router, &draining](std::string line) -> std::future<std::string> {
    if (draining.load()) {
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
      std::promise<std::string> rejected;
      rejected.set_value(serve::ErrorToJson(Status::Unavailable("draining"),
                                            id.get(), trace_id)
                             .Dump());
      return rejected.get_future();
    }
    return std::async(std::launch::async,
                      [&router, line = std::move(line)] {
                        return router.Handle(line);
                      });
  };

  serve::NdjsonServer server;
  if (!server.Start(flags.port, handler)) {
    std::cerr << "failed to listen on 127.0.0.1:" << flags.port << "\n";
    return 1;
  }
  std::cerr << "telekit_router listening on 127.0.0.1:" << server.port()
            << " (" << flags.replica_specs.size() << " replicas, policy="
            << flags.policy << ")\n";
  if (admin.running()) {
    std::cerr << "telekit_router: admin endpoints on 127.0.0.1:"
              << admin.port() << "\n";
  }

  {
    std::unique_lock<std::mutex> lock(quit_mutex);
    quit_cv.wait(lock, [&] { return quit_requested; });
  }
  server.Drain();
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.in_flight() > 0 &&
         std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.Stop();
  admin.Stop();
  router.Stop();
  if (!flags.obs_json.empty()) obs::WriteReport(flags.obs_json);
  return 0;
}

}  // namespace
}  // namespace route
}  // namespace telekit

int main(int argc, char** argv) {
  return telekit::route::Main(argc, argv);
}
