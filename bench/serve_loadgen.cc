// Load generator for the serve subsystem. Measures three configurations
// over the same request stream and writes BENCH_serve.json:
//
//   baseline    1 client thread, engine.Process(), no cache
//   pool        N client threads, worker pool, no cache
//   pool+cache  same, with the sharded EmbeddingCache on
//
// A free worker pops one queued request at a time and never waits on a
// non-empty queue.
//
// Closed-loop by default (each client submits, waits, repeats); --qps=N
// adds an open-loop phase submitting at a fixed aggregate rate regardless
// of completions, which is what stresses the bounded queue.
//
// The request stream models production fault-analysis traffic: a small hot
// set of active alarms dominates (80% of queries) over a long tail of cold
// surfaces, which is what makes service-vector memoization pay off.
//
// Flags: see --help.
//
// Acceptance: the full engine (8 workers, cache) must reach >= 3x the
// requests/sec of the single-threaded uncached baseline. On multi-core
// hosts the worker pool contributes; on a single core the cache carries
// the speedup (the pool alone moves the same FLOPs through the same core
// and is throughput-neutral there, as the nocache row shows).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/flag_parse.h"
#include "bench/slo_demo.h"
#include "common/table_printer.h"
#include "core/model_zoo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/requestlog.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/line_io.h"

#include <sys/socket.h>
#include <unistd.h>

namespace telekit {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

struct LoadgenFlags {
  int workers = 8;
  int clients = 8;
  int requests = 600;
  int qps = 0;
  bool slo_demo = true;
  std::string connect;
  std::string out = "BENCH_serve.json";
  std::string obs_out = "BENCH_obs.json";
};

struct RunResult {
  std::string name;
  double seconds = 0.0;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double cache_hit_rate = 0.0;
  int completed = 0;
  int rejected = 0;
};

/// Quantiles come from the same log-bucketed histogram the serve metrics
/// use (bounded ~4.4% relative error), so BENCH_serve.json and a /metrics
/// scrape of a live server agree on what p99 means. Observe() is lock-free,
/// which also lets client threads record latencies without a merge step.
void FillLatencyStats(const obs::Histogram& latencies, RunResult* result) {
  result->p50_ms = latencies.Quantile(0.50);
  result->p95_ms = latencies.Quantile(0.95);
  result->p99_ms = latencies.Quantile(0.99);
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The request mix, deterministic per index: 80% of queries target a hot
/// set of 16 active surfaces, the rest draw uniformly from the full pool
/// (catalogue names plus cold contextual variants).
serve::Request MakeRequest(const std::vector<std::string>& pool, int index) {
  serve::Request request;
  const int op = index % 4;
  request.op = op == 0   ? serve::TaskOp::kEncode
               : op == 1 ? serve::TaskOp::kRca
               : op == 2 ? serve::TaskOp::kEap
                         : serve::TaskOp::kFct;
  const uint64_t r = SplitMix64(static_cast<uint64_t>(index));
  const size_t hot = std::min<size_t>(16, pool.size());
  request.text = (r % 100 < 80)
                     ? pool[(r >> 8) % hot]
                     : pool[(r >> 8) % pool.size()];
  request.top_k = 5;
  return request;
}

/// Query pool: every catalogue surface plus cold variants that never repeat
/// enough to stay cached ("<alarm> on <element>").
std::vector<std::string> MakeQueryPool(const synth::WorldModel& world) {
  std::vector<std::string> pool;
  for (const auto& alarm : world.alarms()) pool.push_back(alarm.name);
  for (const auto& alarm : world.alarms()) {
    for (size_t e = 0; e < world.elements().size(); e += 4) {
      pool.push_back(alarm.name + " on " + world.elements()[e].name);
    }
  }
  return pool;
}

/// Single-threaded and uncached: the reference the paper-style deployment
/// comparison divides by.
RunResult RunBaseline(const core::ServiceEncoder& service,
                      const std::vector<std::string>& names,
                      const std::vector<std::string>& pool,
                      const LoadgenFlags& flags) {
  serve::EngineOptions options;
  options.num_workers = 0;  // Process() only, no queue involved
  options.enable_cache = false;
  serve::ServeEngine engine(&service, options);
  for (serve::TaskOp op :
       {serve::TaskOp::kRca, serve::TaskOp::kEap, serve::TaskOp::kFct}) {
    TELEKIT_CHECK(engine.LoadCatalog(op, names).ok());
  }
  RunResult result;
  result.name = "baseline_1thread";
  obs::Histogram latencies;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < flags.requests; ++i) {
    const serve::Response response =
        engine.Process(MakeRequest(pool, i));
    TELEKIT_CHECK(response.status.ok()) << response.status.ToString();
    latencies.Observe(response.total_ms);
  }
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.completed = flags.requests;
  result.rps = static_cast<double>(flags.requests) / result.seconds;
  FillLatencyStats(latencies, &result);
  return result;
}

/// Closed-loop: `clients` threads each drive their share of the request
/// stream synchronously through Submit()+get().
RunResult RunClosedLoop(const core::ServiceEncoder& service,
                        const std::vector<std::string>& names,
                        const std::vector<std::string>& pool,
                        const LoadgenFlags& flags, bool enable_cache,
                        const std::string& name) {
  serve::EngineOptions options;
  options.num_workers = flags.workers;
  options.enable_cache = enable_cache;
  serve::ServeEngine engine(&service, options);
  for (serve::TaskOp op :
       {serve::TaskOp::kRca, serve::TaskOp::kEap, serve::TaskOp::kFct}) {
    TELEKIT_CHECK(engine.LoadCatalog(op, names).ok());
  }
  RunResult result;
  result.name = name;
  obs::Histogram latencies;
  std::atomic<int> completed{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < flags.clients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = c; i < flags.requests; i += flags.clients) {
        serve::Response response =
            engine.Submit(MakeRequest(pool, i)).get();
        TELEKIT_CHECK(response.status.ok()) << response.status.ToString();
        latencies.Observe(response.total_ms);
        completed.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.completed = completed.load();
  result.rps = static_cast<double>(result.completed) / result.seconds;
  result.cache_hit_rate = engine.cache().HitRate();
  FillLatencyStats(latencies, &result);
  return result;
}

/// Open-loop: submit at a fixed aggregate rate from one pacer thread,
/// harvest futures afterwards. Rejections (bounded queue) are counted, not
/// fatal — that is the backpressure working.
RunResult RunOpenLoop(const core::ServiceEncoder& service,
                      const std::vector<std::string>& names,
                      const std::vector<std::string>& pool,
                      const LoadgenFlags& flags) {
  serve::EngineOptions options;
  options.num_workers = flags.workers;
  options.queue_capacity = 256;
  serve::ServeEngine engine(&service, options);
  for (serve::TaskOp op :
       {serve::TaskOp::kRca, serve::TaskOp::kEap, serve::TaskOp::kFct}) {
    TELEKIT_CHECK(engine.LoadCatalog(op, names).ok());
  }
  RunResult result;
  result.name = "open_loop_" + std::to_string(flags.qps) + "qps";
  const auto interval =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / flags.qps));
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(static_cast<size_t>(flags.requests));
  const Clock::time_point start = Clock::now();
  Clock::time_point next = start;
  for (int i = 0; i < flags.requests; ++i) {
    std::this_thread::sleep_until(next);
    next += interval;
    futures.push_back(engine.Submit(MakeRequest(pool, i)));
  }
  obs::Histogram latencies;
  for (auto& future : futures) {
    serve::Response response = future.get();
    if (response.status.ok()) {
      ++result.completed;
      latencies.Observe(response.total_ms);
    } else {
      ++result.rejected;
    }
  }
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.rps = static_cast<double>(result.completed) / result.seconds;
  result.cache_hit_rate = engine.cache().HitRate();
  FillLatencyStats(latencies, &result);
  return result;
}

/// End-to-end SLO alert lifecycle against a live engine. The induced
/// regression is real work, not a sleep: the healthy phase drives a small
/// memoized hot set through Process(), and the degraded phase submits
/// bursts of never-repeated cold texts that each pay the full encode and
/// queue behind each other on the engine's one worker. A single cold
/// request costs about what a paced cache hit does (a forward takes
/// 0.05-0.1 ms), so the regression is the overload's queue build-up. The
/// latency objective's threshold sits between the two regimes (geometric
/// mean of hot p95 and cold p50): healthy traffic burns ~nothing, degraded
/// traffic burns the error budget at many times the firing threshold.
obs::JsonValue RunSloAlertDemo(const core::ServiceEncoder& service,
                               const std::vector<std::string>& names,
                               const std::vector<std::string>& pool,
                               bool* passed) {
  serve::EngineOptions options;
  options.num_workers = 1;  // runs the degraded bursts; Process() is inline
  options.enable_cache = true;
  serve::ServeEngine engine(&service, options);
  for (serve::TaskOp op :
       {serve::TaskOp::kRca, serve::TaskOp::kEap, serve::TaskOp::kFct}) {
    TELEKIT_CHECK(engine.LoadCatalog(op, names).ok());
  }

  const size_t hot = std::min<size_t>(8, pool.size());
  int hot_seq = 0;
  int cold_seq = 0;
  auto hot_request = [&]() {
    serve::Request request;
    request.op = serve::TaskOp::kRca;
    request.text = pool[static_cast<size_t>(hot_seq++) % hot];
    request.top_k = 5;
    return engine.Process(request);
  };
  auto cold_request = [&]() {
    const int seq = cold_seq++;
    serve::Request request;
    request.op = serve::TaskOp::kRca;
    request.text = "slo demo cold surface " + std::to_string(seq) + " " +
                   pool[static_cast<size_t>(seq) % pool.size()];
    request.top_k = 5;
    return request;
  };

  // The healthy phase paces hot requests, so the slow window is not
  // dominated by sheer healthy volume when the regression hits; the
  // degraded phase submits bursts of 16 cold requests back to back.
  auto healthy_step = [&] {
    const double total_ms = hot_request().total_ms;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return total_ms;
  };
  auto degraded_step = [&](obs::Histogram* hist) {
    std::vector<std::future<serve::Response>> replies;
    for (int i = 0; i < 16; ++i) {
      replies.push_back(engine.Submit(cold_request()));
    }
    for (auto& reply : replies) {
      const double total_ms = reply.get().total_ms;
      if (hist != nullptr) hist->Observe(total_ms);
    }
  };

  // Probe both regimes, each at the pace of the phase it drives (a paced
  // request runs slower than one sent back to back), to place the
  // threshold between them.
  obs::Histogram hot_hist;
  obs::Histogram cold_hist;
  for (size_t i = 0; i < 2 * hot; ++i) hot_request();  // warm the cache
  for (int i = 0; i < 200; ++i) hot_hist.Observe(healthy_step());
  for (int i = 0; i < 4; ++i) degraded_step(&cold_hist);
  const double hot_p95 = hot_hist.Quantile(0.95);
  const double cold_p50 = cold_hist.Quantile(0.50);
  double threshold_ms = std::sqrt(hot_p95 * cold_p50);
  // Degenerate separation would leave no boundary to trip; fall back to a
  // multiple of the healthy tail so the demo still means something.
  const bool regimes_separate = cold_p50 > hot_p95 * 1.5;
  if (!regimes_separate) threshold_ms = hot_p95 * 2.0;

  DemoSlo demo("serve/latency_demo", "serve/request_ms", threshold_ms);
  SloDemoPhases phases;
  phases.healthy_s = demo.slo.config().slow_window_s + 1.0;
  const SloDemoResult lifecycle = RunSloAlertLifecycle(
      demo.store, demo.slo, demo.objective.name, [&] { healthy_step(); },
      [&] { degraded_step(nullptr); }, phases);
  demo.store.Stop();

  // Exemplar acceptance: the latest exemplar in a latency bucket must
  // resolve through the wide-event log to a request whose total_us matches
  // (both derive from the same response.total_ms).
  const serve::Response probe = engine.Process(cold_request());
  const double le = obs::Histogram::BucketUpperMs(
      obs::Histogram::BucketIndex(probe.total_ms));
  obs::ExemplarStore::Exemplar exemplar;
  const bool exemplar_found =
      obs::ExemplarStore::Global().Find("serve/request_ms", le, &exemplar);
  obs::RequestLog::Filter filter;
  filter.trace_id = exemplar.trace_id;
  const std::vector<obs::WideEvent> events =
      obs::RequestLog::Global().Query(filter);
  const bool exemplar_matches =
      exemplar_found && !events.empty() &&
      std::llabs(static_cast<long long>(events.front().total_us) -
                 static_cast<long long>(exemplar.value_ms * 1000.0)) <= 10;

  *passed = lifecycle.ok() && exemplar_matches;
  std::cout << "\nSLO alert demo (threshold " << threshold_ms
            << " ms, hot p95 " << hot_p95 << " ms, cold p50 " << cold_p50
            << " ms)\n  fired: " << (lifecycle.fired ? "yes" : "NO")
            << " (detection lag " << lifecycle.detection_lag_s
            << " s), resolved: " << (lifecycle.resolved ? "yes" : "NO")
            << " (firing interval " << lifecycle.firing_interval_s
            << " s)\n  exemplar -> wide event match: "
            << (exemplar_matches ? "yes" : "NO") << "\n";

  obs::JsonValue section = SloDemoResultToJson(lifecycle);
  section.Set("objective", obs::JsonValue(demo.objective.name));
  section.Set("histogram", obs::JsonValue(demo.objective.histogram));
  section.Set("threshold_ms", obs::JsonValue(threshold_ms));
  section.Set("hot_p95_ms", obs::JsonValue(hot_p95));
  section.Set("cold_p50_ms", obs::JsonValue(cold_p50));
  section.Set("regimes_separate", obs::JsonValue(regimes_separate));
  demo.AddSettings(&section);
  obs::JsonValue exemplar_json = obs::JsonValue::Object();
  exemplar_json.Set("found", obs::JsonValue(exemplar_found));
  exemplar_json.Set("trace_id",
                    obs::JsonValue(obs::TraceIdToHex(exemplar.trace_id)));
  exemplar_json.Set("value_ms", obs::JsonValue(exemplar.value_ms));
  exemplar_json.Set("wide_event_total_us",
                    obs::JsonValue(events.empty()
                                       ? static_cast<int64_t>(-1)
                                       : static_cast<int64_t>(
                                             events.front().total_us)));
  exemplar_json.Set("matches", obs::JsonValue(exemplar_matches));
  section.Set("exemplar", std::move(exemplar_json));
  section.Set("passed", obs::JsonValue(*passed));
  return section;
}

// ---------------------------------------------------------------------------
// --connect: drive a live fleet over TCP instead of an in-process engine.
// Endpoints round-robin across client threads, so pointing it at N replica
// ports load-tests them directly and pointing it at one telekit_router
// port load-tests the routed path. No zoo is built in this mode — the
// server owns the model; the request stream is synthetic with the same
// hot/cold shape as the in-process mix.
// ---------------------------------------------------------------------------

obs::JsonValue ResultToJson(const RunResult& result);

// Merges each top-level member of `report` into the file at `path`, so the
// sections other benches keep there (matmul_scaling, simd, int8_accuracy)
// survive a re-run.
void WriteReport(const std::string& path, const obs::JsonValue& report) {
  for (const auto& [key, value] : report.members()) {
    MergeJsonSection(path, key, value);
  }
}

struct Endpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

bool ParseEndpoints(const std::string& text, std::vector<Endpoint>* out) {
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(begin, end - begin);
    if (!item.empty()) {
      Endpoint endpoint;
      const size_t colon = item.rfind(':');
      const std::string port_text =
          colon == std::string::npos ? item : item.substr(colon + 1);
      if (colon != std::string::npos && colon > 0) {
        endpoint.host = item.substr(0, colon);
      }
      int64_t port = 0;
      if (!telekit::ParseInt64(port_text, 1, 65535, &port)) return false;
      endpoint.port = static_cast<int>(port);
      out->push_back(std::move(endpoint));
    }
    begin = end + 1;
  }
  return !out->empty();
}

std::string RequestToLine(const serve::Request& request, int sequence) {
  obs::JsonValue json = obs::JsonValue::Object();
  json.Set("op", obs::JsonValue(serve::TaskOpName(request.op)));
  json.Set("text", obs::JsonValue(request.text));
  json.Set("top_k", obs::JsonValue(request.top_k));
  json.Set("id", obs::JsonValue("loadgen-" + std::to_string(sequence)));
  return json.Dump();
}

RunResult RunConnect(const std::vector<Endpoint>& endpoints,
                     const LoadgenFlags& flags) {
  // Synthetic pool with the usual 80/20 hot/cold shape (MakeRequest's hot
  // set is its first 16 entries).
  std::vector<std::string> pool;
  for (int i = 0; i < 64; ++i) {
    pool.push_back("remote fault surface " + std::to_string(i) +
                   " threshold crossed");
  }
  RunResult result;
  result.name = "connect_" + std::to_string(endpoints.size()) + "_endpoints";
  obs::Histogram latencies;
  std::atomic<int> completed{0};
  std::atomic<int> failed{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < flags.clients; ++c) {
    clients.emplace_back([&, c] {
      const Endpoint& endpoint = endpoints[c % endpoints.size()];
      const int fd =
          serve::ConnectTcp(endpoint.host, endpoint.port, 2000.0);
      if (fd < 0) {
        for (int i = c; i < flags.requests; i += flags.clients) {
          failed.fetch_add(1);
        }
        return;
      }
      serve::LineReader reader(fd);
      for (int i = c; i < flags.requests; i += flags.clients) {
        const Clock::time_point sent = Clock::now();
        std::string line;
        bool success =
            serve::SendLine(fd, RequestToLine(MakeRequest(pool, i), i)) &&
            reader.ReadLine(&line);
        if (success) {
          obs::JsonValue response;
          std::string error;
          success = obs::JsonValue::Parse(line, &response, &error) &&
                    response.Find("ok") != nullptr &&
                    response.Find("ok")->AsBool();
        }
        if (success) {
          completed.fetch_add(1);
          latencies.Observe(std::chrono::duration<double, std::milli>(
                                Clock::now() - sent)
                                .count());
        } else {
          failed.fetch_add(1);
        }
      }
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    });
  }
  for (auto& client : clients) client.join();
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.completed = completed.load();
  result.rejected = failed.load();
  result.rps = static_cast<double>(result.completed) /
               std::max(1e-9, result.seconds);
  FillLatencyStats(latencies, &result);
  return result;
}

int ConnectMain(const LoadgenFlags& flags) {
  std::vector<Endpoint> endpoints;
  if (!ParseEndpoints(flags.connect, &endpoints)) {
    std::cerr << "bad --connect spec: " << flags.connect << "\n";
    return 2;
  }
  std::cout << "serve_loadgen --connect: " << flags.requests
            << " requests, " << flags.clients << " clients over "
            << endpoints.size() << " endpoint(s)\n";
  const RunResult result = RunConnect(endpoints, flags);
  TablePrinter table("Remote serving throughput");
  table.SetHeader({"configuration", "req/s", "p50 ms", "p95 ms", "p99 ms",
                   "completed", "failed"});
  table.AddRow(result.name,
               {result.rps, result.p50_ms, result.p95_ms, result.p99_ms,
                static_cast<double>(result.completed),
                static_cast<double>(result.rejected)},
               2);
  table.Print(std::cout);

  obs::JsonValue report = obs::JsonValue::Object();
  report.Set("benchmark", obs::JsonValue("serve_loadgen_connect"));
  obs::JsonValue cfg = obs::JsonValue::Object();
  cfg.Set("clients", obs::JsonValue(flags.clients));
  cfg.Set("requests", obs::JsonValue(flags.requests));
  cfg.Set("endpoints", obs::JsonValue(flags.connect));
  report.Set("config", std::move(cfg));
  obs::JsonValue runs = obs::JsonValue::Array();
  runs.Append(ResultToJson(result));
  report.Set("runs", std::move(runs));
  WriteReport(flags.out, report);
  std::cout << "wrote " << flags.out << "\n";
  return result.rejected == 0 && result.completed == flags.requests ? 0 : 1;
}

obs::JsonValue ResultToJson(const RunResult& result) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("name", obs::JsonValue(result.name));
  out.Set("seconds", obs::JsonValue(result.seconds));
  out.Set("requests_per_sec", obs::JsonValue(result.rps));
  out.Set("p50_ms", obs::JsonValue(result.p50_ms));
  out.Set("p95_ms", obs::JsonValue(result.p95_ms));
  out.Set("p99_ms", obs::JsonValue(result.p99_ms));
  out.Set("cache_hit_rate", obs::JsonValue(result.cache_hit_rate));
  out.Set("completed", obs::JsonValue(result.completed));
  out.Set("rejected", obs::JsonValue(result.rejected));
  return out;
}

int Main(int argc, char** argv) {
  LoadgenFlags flags;
  FlagSet cli("serve_loadgen");
  cli.Int("workers=N", &flags.workers, 1, 1024, "engine workers (default 8)");
  cli.Int("clients=N", &flags.clients, 1, 4096,
          "closed-loop client threads (default 8)");
  cli.Int("requests=N", &flags.requests, 1, 1 << 30,
          "requests per configuration (default 600)");
  cli.Int("qps=N", &flags.qps, 0, 1 << 30,
          "open-loop phase rate (default 0 = no open-loop phase)");
  cli.Int("slo-demo=0|1", &flags.slo_demo, 0, 1,
          "run the alert-lifecycle demo (default 1)");
  cli.String("connect=HOST:PORT[,...]", &flags.connect,
             "drive running servers over TCP instead");
  cli.String("out=PATH", &flags.out, "report file (default BENCH_serve.json)");
  cli.String("obs-out=PATH", &flags.obs_out,
             "SLO demo report file (default BENCH_obs.json)");
  ObsSession obs_session(argc, argv, &cli);

  if (!flags.connect.empty()) return ConnectMain(flags);

  // An untrained encoder has identical per-request compute to a trained
  // one, so throughput numbers transfer; startup stays in seconds.
  core::ZooConfig config;
  config.seed = 20230401;
  config.world.num_alarm_types = 64;
  config.corpus.num_tele_sentences = 1500;
  config.corpus.num_general_sentences = 1500;
  config.num_episodes = 30;
  config.pretrain.steps = 0;
  config.cache_dir = "";
  core::ModelZoo zoo(config);
  zoo.BuildData();
  zoo.BuildPretrained();
  core::TeleBertEncoder encoder(&zoo.telebert());
  core::ServiceEncoder service(&encoder, &zoo.tokenizer(), &zoo.store(),
                               &zoo.normalizer());
  std::vector<std::string> names;
  for (const auto& alarm : zoo.world().alarms()) names.push_back(alarm.name);
  const std::vector<std::string> pool = MakeQueryPool(zoo.world());

  std::vector<RunResult> results;
  std::cout << "serve_loadgen: " << flags.requests << " requests, "
            << flags.workers << " workers, " << flags.clients
            << " clients\n";
  results.push_back(RunBaseline(service, names, pool, flags));
  results.push_back(RunClosedLoop(service, names, pool, flags,
                                  /*enable_cache=*/false,
                                  "closed_loop_pool_nocache"));
  results.push_back(RunClosedLoop(service, names, pool, flags,
                                  /*enable_cache=*/true,
                                  "closed_loop_pool_cached"));
  if (flags.qps > 0) {
    results.push_back(RunOpenLoop(service, names, pool, flags));
  }

  TablePrinter table("Serving throughput (requests/sec)");
  table.SetHeader({"configuration", "req/s", "p50 ms", "p95 ms", "p99 ms",
                   "cache hit"});
  for (const RunResult& result : results) {
    table.AddRow(result.name,
                 {result.rps, result.p50_ms, result.p95_ms, result.p99_ms,
                  result.cache_hit_rate},
                 2);
  }
  table.Print(std::cout);

  const double engine_speedup = results[2].rps / results[0].rps;
  std::cout << "\nfull-engine speedup: " << engine_speedup
            << "x (acceptance: >= 3x)\n";

  obs::JsonValue report = obs::JsonValue::Object();
  report.Set("benchmark", obs::JsonValue("serve_loadgen"));
  obs::JsonValue cfg = obs::JsonValue::Object();
  cfg.Set("workers", obs::JsonValue(flags.workers));
  cfg.Set("clients", obs::JsonValue(flags.clients));
  cfg.Set("requests", obs::JsonValue(flags.requests));
  cfg.Set("compute_threads", obs::JsonValue(tensor::ComputeThreads()));
  report.Set("config", std::move(cfg));
  obs::JsonValue runs = obs::JsonValue::Array();
  for (const RunResult& result : results) {
    runs.Append(ResultToJson(result));
  }
  report.Set("runs", std::move(runs));
  report.Set("engine_over_baseline_speedup", obs::JsonValue(engine_speedup));
  WriteReport(flags.out, report);
  std::cout << "wrote " << flags.out << "\n";

  bool demo_passed = true;
  if (flags.slo_demo) {
    demo_passed = false;
    obs::JsonValue demo = RunSloAlertDemo(service, names, pool, &demo_passed);
    if (MergeObsReport(flags.obs_out, "serve_alert_demo", std::move(demo))) {
      std::cout << "wrote " << flags.obs_out << "\n";
    } else {
      std::cout << "FAILED to write " << flags.obs_out << "\n";
      demo_passed = false;
    }
  }
  return engine_speedup >= 3.0 && demo_passed ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace telekit

int main(int argc, char** argv) { return telekit::bench::Main(argc, argv); }
