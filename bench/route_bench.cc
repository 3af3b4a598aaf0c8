// Distributed-serving benchmark for the route subsystem. Runs an
// in-process fleet of real telekit_serve replicas (ModelHost +
// MakeServeLineHandler over NdjsonServer, loopback TCP) behind a Router
// and writes BENCH_route.json with three gated scenarios:
//
//   affinity      consistent-hash routing must beat random routing on the
//                 fleet-wide EmbeddingCache hit rate: hashing partitions
//                 the working set so each replica's share fits its cache,
//                 while random routing shows every replica every key.
//   availability  SIGKILL-equivalent (server Stop) of one replica under
//                 load: >= 99% of requests must still succeed via retry
//                 failover, the replica must be ejected, and after a
//                 restart the prober must readmit it.
//   reload        hot model swap (new bundle Installed on every replica)
//                 under load: zero failed requests, and responses must be
//                 observed from both the old and the new generation.
//   tracing       distributed tracing priced and proven: recording every
//                 hop span must cost <= 5% routed throughput (SpanStore
//                 on vs off), and one traced request must assemble into a
//                 span tree whose router attempt parents the replica's
//                 serve-side spans.
//
// The exit code is the acceptance gate: 0 only when all four hold.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/flag_parse.h"
#include "common/table_printer.h"
#include "core/model_zoo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/spanstore.h"
#include "route/router.h"
#include "route/trace_assembler.h"
#include "serve/engine.h"
#include "serve/model_host.h"
#include "serve/ndjson_server.h"
#include "serve/protocol.h"

namespace telekit {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

struct RouteBenchFlags {
  int replicas = 3;
  int clients = 4;
  int passes = 4;
  int working_set = 96;
  int cache_capacity = 48;
  std::string out = "BENCH_route.json";
};

/// One in-process telekit_serve replica: its own ModelHost (own engine,
/// own cache) over the shared zoo weights, fronted by an NdjsonServer.
struct Replica {
  std::unique_ptr<serve::ModelHost> host;
  std::atomic<bool> draining{false};
  serve::NdjsonServer server;
  serve::LineHandler handler;
  int port = 0;

  bool Start(int fixed_port = 0) {
    if (!server.Start(fixed_port, handler)) return false;
    port = server.port();
    return true;
  }
};

serve::EngineOptions ReplicaEngineOptions(const RouteBenchFlags& flags) {
  serve::EngineOptions options;
  options.num_workers = 2;
  options.cache_capacity = static_cast<size_t>(flags.cache_capacity);
  options.cache_shards = 2;
  return options;
}

std::unique_ptr<Replica> MakeReplica(std::shared_ptr<core::ModelZoo> zoo,
                                     const RouteBenchFlags& flags) {
  auto replica = std::make_unique<Replica>();
  replica->host = std::make_unique<serve::ModelHost>("telebert");
  auto bundle = serve::BuildModelBundle("telebert", std::move(zoo),
                                        ReplicaEngineOptions(flags));
  TELEKIT_CHECK(bundle.ok()) << bundle.status().ToString();
  replica->host->Install(std::move(bundle).value());
  replica->handler =
      serve::MakeServeLineHandler(replica->host.get(), &replica->draining);
  TELEKIT_CHECK(replica->Start());
  return replica;
}

std::vector<route::ReplicaSpec> SpecsFor(
    const std::vector<std::unique_ptr<Replica>>& fleet) {
  std::vector<route::ReplicaSpec> specs;
  for (const auto& replica : fleet) {
    route::ReplicaSpec spec;
    spec.port = replica->port;
    spec.name = "127.0.0.1:" + std::to_string(replica->port);
    specs.push_back(spec);
  }
  return specs;
}

std::vector<std::string> MakeWorkingSet(int size) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    keys.push_back("fault surface k" + std::to_string(i) +
                   " link degradation alarm");
  }
  return keys;
}

std::string RequestLineFor(const std::string& text, int sequence) {
  obs::JsonValue json = obs::JsonValue::Object();
  json.Set("op", obs::JsonValue("encode"));
  json.Set("text", obs::JsonValue(text));
  json.Set("id", obs::JsonValue("r" + std::to_string(sequence)));
  return json.Dump();
}

struct TrafficResult {
  int total = 0;
  int ok = 0;
  int failed = 0;
  double seconds = 0.0;
  uint64_t min_generation = 0;
  uint64_t max_generation = 0;
};

/// Closed-loop traffic through the router: `clients` threads, each
/// sweeping its stripe of `passes` x `keys`, with `pace_us` between
/// requests (0 = as fast as the fleet answers).
TrafficResult DriveTraffic(route::Router& router,
                           const std::vector<std::string>& keys, int passes,
                           int clients, int pace_us) {
  TrafficResult result;
  std::atomic<int> ok{0};
  std::atomic<int> failed{0};
  std::atomic<uint64_t> min_generation{~0ULL};
  std::atomic<uint64_t> max_generation{0};
  const int total = passes * static_cast<int>(keys.size());
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = c; i < total; i += clients) {
        const std::string& key = keys[static_cast<size_t>(i) % keys.size()];
        const std::string line = router.Handle(RequestLineFor(key, i));
        obs::JsonValue response;
        std::string error;
        bool success = obs::JsonValue::Parse(line, &response, &error);
        if (success) {
          const obs::JsonValue* ok_field = response.Find("ok");
          success = ok_field != nullptr && ok_field->AsBool();
        }
        if (success) {
          ok.fetch_add(1);
          if (const obs::JsonValue* gen = response.Find("generation")) {
            const uint64_t g = static_cast<uint64_t>(gen->AsNumber());
            uint64_t seen = min_generation.load();
            while (g < seen &&
                   !min_generation.compare_exchange_weak(seen, g)) {
            }
            seen = max_generation.load();
            while (g > seen &&
                   !max_generation.compare_exchange_weak(seen, g)) {
            }
          }
        } else {
          failed.fetch_add(1);
        }
        if (pace_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(pace_us));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  result.total = total;
  result.ok = ok.load();
  result.failed = failed.load();
  result.min_generation =
      min_generation.load() == ~0ULL ? 0 : min_generation.load();
  result.max_generation = max_generation.load();
  return result;
}

/// Fleet-wide service-vector cache hit rate (sum over every replica's
/// engine).
double FleetCacheHitRate(const std::vector<std::unique_ptr<Replica>>& fleet) {
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const auto& replica : fleet) {
    const serve::EngineStats stats =
        replica->host->Resolve("")->engine->GetStats();
    hits += stats.cache_hits;
    misses += stats.cache_misses;
  }
  const uint64_t lookups = hits + misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(lookups);
}

route::RouterOptions BenchRouterOptions() {
  route::RouterOptions options;
  options.hedge = false;  // hedging would blur per-replica attribution
  options.prober.interval_ms = 25.0;
  options.prober.timeout_ms = 200.0;
  options.prober.eject_after = 3;
  options.prober.readmit_after = 2;
  return options;
}

obs::JsonValue RunAffinityPolicy(std::shared_ptr<core::ModelZoo> zoo,
                                 const RouteBenchFlags& flags,
                                 route::RoutePolicy policy,
                                 double* hit_rate) {
  std::vector<std::unique_ptr<Replica>> fleet;
  for (int i = 0; i < flags.replicas; ++i) {
    fleet.push_back(MakeReplica(zoo, flags));
  }
  route::RouterOptions options = BenchRouterOptions();
  options.policy = policy;
  options.probe_override = [](size_t, double) { return true; };
  route::Router router(SpecsFor(fleet), options);
  const std::vector<std::string> keys = MakeWorkingSet(flags.working_set);
  const TrafficResult traffic =
      DriveTraffic(router, keys, flags.passes, flags.clients, /*pace_us=*/0);
  router.Stop();
  *hit_rate = FleetCacheHitRate(fleet);

  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("policy", obs::JsonValue(policy == route::RoutePolicy::kHashRing
                                       ? "hash_ring"
                                       : "random"));
  out.Set("requests", obs::JsonValue(traffic.total));
  out.Set("ok", obs::JsonValue(traffic.ok));
  out.Set("failed", obs::JsonValue(traffic.failed));
  out.Set("seconds", obs::JsonValue(traffic.seconds));
  out.Set("requests_per_sec",
          obs::JsonValue(traffic.total / std::max(1e-9, traffic.seconds)));
  out.Set("fleet_cache_hit_rate", obs::JsonValue(*hit_rate));
  for (auto& replica : fleet) replica->server.Stop();
  return out;
}

obs::JsonValue RunAvailability(std::shared_ptr<core::ModelZoo> zoo,
                               const RouteBenchFlags& flags, bool* passed) {
  std::vector<std::unique_ptr<Replica>> fleet;
  for (int i = 0; i < flags.replicas; ++i) {
    fleet.push_back(MakeReplica(zoo, flags));
  }
  route::RouterOptions options = BenchRouterOptions();
  // Default probe (ConnectTcp against the data port): a stopped server
  // refuses the connect, a restarted one accepts it.
  route::Router router(SpecsFor(fleet), options);
  router.Start();

  Replica* victim = fleet[0].get();
  const int victim_port = victim->port;
  std::thread chaos([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    victim->server.Stop();  // SIGKILL-equivalent: connections die mid-flight
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    TELEKIT_CHECK(victim->Start(victim_port));
  });

  const std::vector<std::string> keys = MakeWorkingSet(flags.working_set);
  const TrafficResult traffic = DriveTraffic(
      router, keys, /*passes=*/12, flags.clients, /*pace_us=*/1000);
  chaos.join();

  // The restarted replica must be readmitted by probes alone (no traffic
  // reaches it while ejected).
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(3);
  while (router.prober().readmissions() == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const uint64_t ejections = router.prober().ejections();
  const uint64_t readmissions = router.prober().readmissions();
  router.Stop();

  const double success_rate =
      traffic.total == 0
          ? 0.0
          : static_cast<double>(traffic.ok) / traffic.total;
  *passed = success_rate >= 0.99 && ejections >= 1 && readmissions >= 1;

  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("requests", obs::JsonValue(traffic.total));
  out.Set("ok", obs::JsonValue(traffic.ok));
  out.Set("failed", obs::JsonValue(traffic.failed));
  out.Set("success_rate", obs::JsonValue(success_rate));
  out.Set("seconds", obs::JsonValue(traffic.seconds));
  out.Set("ejections", obs::JsonValue(ejections));
  out.Set("readmissions", obs::JsonValue(readmissions));
  out.Set("passed", obs::JsonValue(*passed));
  for (auto& replica : fleet) replica->server.Stop();
  return out;
}

obs::JsonValue RunReload(std::shared_ptr<core::ModelZoo> zoo,
                         const RouteBenchFlags& flags, bool* passed) {
  std::vector<std::unique_ptr<Replica>> fleet;
  for (int i = 0; i < 2; ++i) fleet.push_back(MakeReplica(zoo, flags));
  route::RouterOptions options = BenchRouterOptions();
  options.probe_override = [](size_t, double) { return true; };
  route::Router router(SpecsFor(fleet), options);

  double reload_seconds = 0.0;
  std::thread reloader([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const Clock::time_point start = Clock::now();
    for (auto& replica : fleet) {
      auto bundle = serve::BuildModelBundle("telebert", zoo,
                                            ReplicaEngineOptions(flags));
      TELEKIT_CHECK(bundle.ok()) << bundle.status().ToString();
      replica->host->Install(std::move(bundle).value());
    }
    reload_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
  });

  const std::vector<std::string> keys = MakeWorkingSet(flags.working_set);
  const TrafficResult traffic = DriveTraffic(
      router, keys, /*passes=*/8, flags.clients, /*pace_us=*/500);
  reloader.join();
  router.Stop();

  // Zero-downtime gate: no request failed, and the stream straddled the
  // swap (both generations answered).
  *passed = traffic.failed == 0 && traffic.min_generation == 1 &&
            traffic.max_generation == 2;

  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("requests", obs::JsonValue(traffic.total));
  out.Set("ok", obs::JsonValue(traffic.ok));
  out.Set("failed", obs::JsonValue(traffic.failed));
  out.Set("seconds", obs::JsonValue(traffic.seconds));
  out.Set("reload_seconds", obs::JsonValue(reload_seconds));
  out.Set("min_generation_seen",
          obs::JsonValue(traffic.min_generation));
  out.Set("max_generation_seen",
          obs::JsonValue(traffic.max_generation));
  out.Set("passed", obs::JsonValue(*passed));
  for (auto& replica : fleet) replica->server.Stop();
  return out;
}

/// Prices the distributed-tracing overhead and proves end-to-end span
/// assembly. The same warm fleet is driven with the SpanStore off and on
/// (alternating rounds, best-of to damp scheduler drift); then one traced
/// request is assembled via CollectSpans and must produce a single tree
/// with the router's attempt span parenting the replica's serve spans.
obs::JsonValue RunTracing(std::shared_ptr<core::ModelZoo> zoo,
                          const RouteBenchFlags& flags, bool* passed) {
  std::vector<std::unique_ptr<Replica>> fleet;
  for (int i = 0; i < 2; ++i) fleet.push_back(MakeReplica(zoo, flags));
  route::RouterOptions options = BenchRouterOptions();
  options.probe_override = [](size_t, double) { return true; };
  route::Router router(SpecsFor(fleet), options);
  const std::vector<std::string> keys = MakeWorkingSet(flags.working_set);

  auto& store = obs::SpanStore::Global();
  store.Reset();
  // Warm caches and connection pools before timing anything.
  DriveTraffic(router, keys, 1, flags.clients, /*pace_us=*/0);
  // The per-span cost is a mutex-guarded ring write, far below this VM's
  // scheduler jitter, so single A/B windows flap by several percent. Many
  // short interleaved slices — alternating which mode goes first — make
  // the slow drift hit both modes equally; the aggregate totals then
  // compare like-for-like.
  double off_requests = 0.0, off_seconds = 0.0;
  double on_requests = 0.0, on_seconds = 0.0;
  const auto slice = [&](bool enabled) {
    store.set_enabled(enabled);
    const TrafficResult r =
        DriveTraffic(router, keys, flags.passes, flags.clients, 0);
    (enabled ? on_requests : off_requests) += r.total;
    (enabled ? on_seconds : off_seconds) += r.seconds;
  };
  for (int round = 0; round < 8; ++round) {
    const bool on_first = (round % 2) == 1;
    slice(on_first);
    slice(!on_first);
  }
  const double rps_off = off_requests / std::max(1e-9, off_seconds);
  const double rps_on = on_requests / std::max(1e-9, on_seconds);
  const double overhead_pct =
      rps_off <= 0.0 ? 0.0 : 100.0 * (1.0 - rps_on / rps_off);

  // One traced request, assembled from the local store (the in-process
  // fleet shares it — exactly the dedup topology CollectSpans handles).
  store.set_enabled(true);
  store.Reset();
  obs::JsonValue traced = obs::JsonValue::Object();
  traced.Set("op", obs::JsonValue("encode"));
  traced.Set("text", obs::JsonValue(keys[0]));
  traced.Set("id", obs::JsonValue("traced"));
  traced.Set("trace", obs::JsonValue("00000000000b12c4"));
  obs::JsonValue response;
  std::string parse_error;
  const bool responded =
      obs::JsonValue::Parse(router.Handle(traced.Dump()), &response,
                            &parse_error) &&
      response.Find("ok") != nullptr && response.Find("ok")->AsBool();
  // Stop() joins any still-running attempt threads; their spans land in
  // the store before assembly (a hedge loser records after Handle returns).
  router.Stop();
  const obs::JsonValue tree = route::AssembleTraceJson(
      0xb12c4u, route::CollectSpans(0xb12c4u, {}, 100.0));
  bool tree_ok = false;
  const obs::JsonValue* spans = tree.Find("spans");
  if (responded && spans != nullptr && spans->size() == 1) {
    const obs::JsonValue& root = spans->at(0);
    if (root.Find("name")->AsString() == "route/request") {
      const obs::JsonValue* attempts = root.Find("children");
      for (size_t i = 0; attempts != nullptr && i < attempts->size(); ++i) {
        const obs::JsonValue& attempt = attempts->at(i);
        if (attempt.Find("name")->AsString() != "route/attempt") continue;
        const obs::JsonValue* hops = attempt.Find("children");
        for (size_t j = 0; hops != nullptr && j < hops->size(); ++j) {
          if (hops->at(j).Find("name")->AsString() == "serve/request") {
            tree_ok = true;
          }
        }
      }
    }
  }
  *passed = overhead_pct <= 5.0 && tree_ok;

  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("requests_per_sec_tracing_off", obs::JsonValue(rps_off));
  out.Set("requests_per_sec_tracing_on", obs::JsonValue(rps_on));
  out.Set("overhead_pct", obs::JsonValue(overhead_pct));
  out.Set("assembled_span_count", tree.Find("span_count") != nullptr
                                      ? *tree.Find("span_count")
                                      : obs::JsonValue());
  out.Set("assembled_hops",
          tree.Find("hops") != nullptr ? *tree.Find("hops")
                                       : obs::JsonValue());
  out.Set("assembled_tree_ok", obs::JsonValue(tree_ok));
  out.Set("passed", obs::JsonValue(*passed));
  for (auto& replica : fleet) replica->server.Stop();
  return out;
}

int Main(int argc, char** argv) {
  RouteBenchFlags flags;
  FlagSet cli("route_bench");
  cli.Int("replicas=N", &flags.replicas, 1, 64,
          "in-process replicas (default 3)");
  cli.Int("clients=N", &flags.clients, 1, 1024,
          "client threads (default 4)");
  cli.Int("passes=N", &flags.passes, 1, 1 << 20,
          "affinity sweeps over the working set (default 4)");
  cli.Int("working-set=N", &flags.working_set, 1, 1 << 20,
          "distinct request texts (default 96)");
  cli.Int("cache-capacity=N", &flags.cache_capacity, 0, int64_t{1} << 30,
          "per-replica embedding cache entries (default 48)");
  cli.String("out=PATH", &flags.out, "report file (default BENCH_route.json)");
  ObsSession obs_session(argc, argv, &cli);

  // An untrained encoder costs the same per request as a trained one, so
  // routing/caching behaviour transfers and startup stays in seconds.
  core::ZooConfig config;
  config.seed = 20230402;
  config.world.num_alarm_types = 32;
  config.corpus.num_tele_sentences = 800;
  config.corpus.num_general_sentences = 800;
  config.num_episodes = 20;
  config.pretrain.steps = 0;
  config.cache_dir = "";
  auto zoo = std::make_shared<core::ModelZoo>(config);
  zoo->BuildData();
  zoo->BuildPretrained();

  std::cout << "route_bench: " << flags.replicas << " replicas, "
            << flags.clients << " clients, working set "
            << flags.working_set << " (cache " << flags.cache_capacity
            << "/replica)\n";

  double hash_hit_rate = 0.0;
  double random_hit_rate = 0.0;
  obs::JsonValue hash_run = RunAffinityPolicy(
      zoo, flags, route::RoutePolicy::kHashRing, &hash_hit_rate);
  obs::JsonValue random_run = RunAffinityPolicy(
      zoo, flags, route::RoutePolicy::kRandom, &random_hit_rate);
  const bool affinity_passed = hash_hit_rate > random_hit_rate + 0.10;

  bool availability_passed = false;
  obs::JsonValue availability =
      RunAvailability(zoo, flags, &availability_passed);
  bool reload_passed = false;
  obs::JsonValue reload = RunReload(zoo, flags, &reload_passed);
  bool tracing_passed = false;
  obs::JsonValue tracing = RunTracing(zoo, flags, &tracing_passed);

  TablePrinter table("Distributed serving (route_bench)");
  table.SetHeader({"scenario", "value"});
  table.AddRow("affinity/hash", {hash_hit_rate}, 3);
  table.AddRow("affinity/random", {random_hit_rate}, 3);
  table.AddRow("availability/success",
               {availability.Find("success_rate")->AsNumber()}, 4);
  table.AddRow("reload/failed",
               {reload.Find("failed")->AsNumber()}, 0);
  table.AddRow("tracing/overhead_pct",
               {tracing.Find("overhead_pct")->AsNumber()}, 2);
  table.Print(std::cout);
  std::cout << "\naffinity:     hash " << hash_hit_rate << " vs random "
            << random_hit_rate << " (gate: hash > random + 0.10) "
            << (affinity_passed ? "PASS" : "FAIL") << "\navailability: "
            << availability.Find("success_rate")->AsNumber()
            << " success, " << availability.Find("ejections")->AsNumber()
            << " ejections, " << availability.Find("readmissions")->AsNumber()
            << " readmissions (gate: >= 0.99 + eject + readmit) "
            << (availability_passed ? "PASS" : "FAIL") << "\nreload:       "
            << reload.Find("failed")->AsNumber() << " failed, generations "
            << reload.Find("min_generation_seen")->AsNumber() << " -> "
            << reload.Find("max_generation_seen")->AsNumber()
            << " (gate: 0 failed, both generations) "
            << (reload_passed ? "PASS" : "FAIL") << "\ntracing:      "
            << tracing.Find("overhead_pct")->AsNumber()
            << "% overhead, tree "
            << (tracing.Find("assembled_tree_ok")->AsBool() ? "assembled"
                                                            : "broken")
            << " (gate: <= 5% + router->serve span tree) "
            << (tracing_passed ? "PASS" : "FAIL") << "\n";

  obs::JsonValue report = obs::JsonValue::Object();
  report.Set("benchmark", obs::JsonValue("route_bench"));
  obs::JsonValue cfg = obs::JsonValue::Object();
  cfg.Set("replicas", obs::JsonValue(flags.replicas));
  cfg.Set("clients", obs::JsonValue(flags.clients));
  cfg.Set("passes", obs::JsonValue(flags.passes));
  cfg.Set("working_set", obs::JsonValue(flags.working_set));
  cfg.Set("cache_capacity_per_replica",
          obs::JsonValue(flags.cache_capacity));
  report.Set("config", std::move(cfg));
  obs::JsonValue affinity = obs::JsonValue::Object();
  affinity.Set("hash_ring", std::move(hash_run));
  affinity.Set("random", std::move(random_run));
  affinity.Set("hash_minus_random",
               obs::JsonValue(hash_hit_rate - random_hit_rate));
  affinity.Set("passed", obs::JsonValue(affinity_passed));
  report.Set("affinity", std::move(affinity));
  report.Set("availability", std::move(availability));
  report.Set("reload", std::move(reload));
  report.Set("tracing", std::move(tracing));
  const bool all_passed = affinity_passed && availability_passed &&
                          reload_passed && tracing_passed;
  report.Set("passed", obs::JsonValue(all_passed));

  std::ofstream out_file(flags.out);
  out_file << report.Dump(2) << "\n";
  std::cout << "wrote " << flags.out << "\n";
  return all_passed ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace telekit

int main(int argc, char** argv) { return telekit::bench::Main(argc, argv); }
