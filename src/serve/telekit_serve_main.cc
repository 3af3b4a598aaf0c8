// telekit_serve: newline-delimited-JSON fault-analysis server.
//
// Reads one JSON request per line from stdin (default) or from TCP
// connections (--port=N), answers one JSON object per line. See
// serve/protocol.h for the wire format and README.md for a quick-start
// session. Requests may carry a `model` field selecting a hosted variant
// (--models=telebert,ktelebert_stl,...); /reloadz hot-swaps a variant's
// checkpoint without dropping in-flight requests and /quitquitquit drains
// gracefully (stop accepting, finish in-flight, flip /readyz to 503).
//
// By default the model is an untrained TeleBERT over a small synthetic
// world so the server starts in seconds; pass --pretrain-steps=N to
// pre-train first (or point TELEKIT_CACHE at an existing checkpoint dir).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
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
#include "core/model_zoo.h"
#include "obs/admin.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/requestlog.h"
#include "obs/slo.h"
#include "obs/spanstore.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/model_host.h"
#include "serve/ndjson_server.h"
#include "serve/protocol.h"
#include "tensor/compute_pool.h"

namespace telekit {
namespace serve {
namespace {

struct Flags {
  int port = 0;        // 0 = stdin/stdout
  int admin_port = -1;  // -1 = disabled, 0 = ephemeral
  double slow_request_ms = 100.0;
  int workers = 4;
  int max_batch = 8;
  size_t queue_capacity = 1024;
  size_t cache_capacity = 4096;
  int cache_shards = 8;
  bool cache = true;
  int compute_threads = 0;  // 0 = TELEKIT_COMPUTE_THREADS / hardware default
  Precision precision = Precision::kFp32;  // default for untagged requests
  bool index_enabled = true;   // build the retrieval index at startup
  std::string index_path;      // index snapshot file ("" = rebuild always)
  int ef_search = 32;          // default ANN beam width
  int index_tickets = 64;      // synthesized trouble tickets in the corpus
  int pretrain_steps = 0;
  uint64_t seed = 20230401;
  std::string models = "telebert";  // comma-separated variant list
  std::string obs_json;
  std::string request_log;      // NDJSON wide-event sink ("" = off)
  double ts_interval_s = 1.0;   // time-series sampler period
  size_t ts_capacity = 600;     // ring slots per series
  double slo_latency_ms = 50.0;  // latency objective good/bad boundary
  double slo_fast_s = 60.0;     // burn-rate fast window
  double slo_slow_s = 300.0;    // burn-rate slow window
};

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

void PrintUsage() {
  std::cerr
      << "usage: telekit_serve [options]\n"
      << "  --port=N            serve TCP instead of stdin/stdout\n"
      << "  --admin-port=N      HTTP admin endpoints on 127.0.0.1:N\n"
      << "                      (0 = ephemeral; default off)\n"
      << "  --models=LIST       comma-separated variants to host (default\n"
      << "                      telebert; also ktelebert_stl|pmtl|imtl)\n"
      << "  --slow-request-ms=X log + /tracez requests slower than X ms\n"
      << "                      (default 100; 0 = off)\n"
      << "  --workers=N         engine worker threads (default 4)\n"
      << "  --max-batch=N       most queued requests one worker takes per\n"
      << "                      forward (default 8; 1 = no batching); a\n"
      << "                      free worker never waits for a batch to fill\n"
      << "  --queue-capacity=N  bounded queue size (default 1024)\n"
      << "  --cache-capacity=N  embedding cache entries (default 4096)\n"
      << "  --cache-shards=N    embedding cache shards (default 8)\n"
      << "  --no-cache          disable the embedding cache\n"
      << "  --compute-threads=N intra-op tensor threads (default: \n"
      << "                      TELEKIT_COMPUTE_THREADS env, else hardware;\n"
      << "                      1 = serial)\n"
      << "  --precision=P       encode precision for requests without a\n"
      << "                      'precision' field: fp32|int8 (default fp32)\n"
      << "  --index-path=PATH   retrieval-index snapshot: loaded when valid\n"
      << "                      (skipping the rebuild), written after a\n"
      << "                      cold build (default: rebuild every start)\n"
      << "  --ef-search=N       default ANN beam width for retrieve/\n"
      << "                      troubleshoot (default 32; requests override\n"
      << "                      via 'ef_search')\n"
      << "  --index-tickets=N   synthesized trouble tickets in the corpus\n"
      << "                      (default 64)\n"
      << "  --no-index          skip the retrieval index (retrieve/\n"
      << "                      troubleshoot fail FAILED_PRECONDITION)\n"
      << "  --pretrain-steps=N  TeleBERT pre-training steps (default 0)\n"
      << "  --seed=N            world/model seed\n"
      << "  --obs-json=PATH     write metrics/trace report on exit\n"
      << "  --request-log=PATH  append one NDJSON wide event per request\n"
      << "  --ts-interval-s=X   time-series sample period (default 1)\n"
      << "  --ts-capacity=N     time-series ring slots (default 600)\n"
      << "  --slo-latency-ms=X  latency SLO threshold (default 50)\n"
      << "  --slo-fast-s=X      SLO fast burn window (default 60)\n"
      << "  --slo-slow-s=X      SLO slow burn window (default 300)\n"
      << "  --log-level=LEVEL   debug|info|warn|error|off\n";
}

void ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "port", &v)) {
      flags->port = static_cast<int>(ParseIntFlagOrDie("port", v, 0, 65535));
    } else if (ParseFlag(arg, "admin-port", &v)) {
      flags->admin_port =
          static_cast<int>(ParseIntFlagOrDie("admin-port", v, -1, 65535));
    } else if (ParseFlag(arg, "models", &v)) {
      flags->models = v;
    } else if (ParseFlag(arg, "slow-request-ms", &v)) {
      flags->slow_request_ms =
          ParseDoubleFlagOrDie("slow-request-ms", v, 0.0, 1e9);
    } else if (ParseFlag(arg, "workers", &v)) {
      flags->workers =
          static_cast<int>(ParseIntFlagOrDie("workers", v, 1, 1024));
    } else if (ParseFlag(arg, "max-batch", &v)) {
      flags->max_batch =
          static_cast<int>(ParseIntFlagOrDie("max-batch", v, 1, 1 << 20));
    } else if (ParseFlag(arg, "queue-capacity", &v)) {
      flags->queue_capacity = static_cast<size_t>(
          ParseIntFlagOrDie("queue-capacity", v, 1, int64_t{1} << 30));
    } else if (ParseFlag(arg, "cache-capacity", &v)) {
      flags->cache_capacity = static_cast<size_t>(
          ParseIntFlagOrDie("cache-capacity", v, 0, int64_t{1} << 30));
    } else if (ParseFlag(arg, "cache-shards", &v)) {
      flags->cache_shards =
          static_cast<int>(ParseIntFlagOrDie("cache-shards", v, 1, 4096));
    } else if (arg == "--no-cache") {
      flags->cache = false;
    } else if (ParseFlag(arg, "compute-threads", &v)) {
      flags->compute_threads =
          static_cast<int>(ParseIntFlagOrDie("compute-threads", v, 0, 4096));
    } else if (ParseFlag(arg, "precision", &v)) {
      if (!ParsePrecision(v, &flags->precision)) {
        std::cerr << "bad value for --precision: '" << v
                  << "' (want fp32|int8)\n";
        std::exit(64);
      }
    } else if (ParseFlag(arg, "index-path", &v)) {
      flags->index_path = v;
    } else if (ParseFlag(arg, "ef-search", &v)) {
      flags->ef_search =
          static_cast<int>(ParseIntFlagOrDie("ef-search", v, 1, 1 << 20));
    } else if (ParseFlag(arg, "index-tickets", &v)) {
      flags->index_tickets = static_cast<int>(
          ParseIntFlagOrDie("index-tickets", v, 0, 1 << 20));
    } else if (arg == "--no-index") {
      flags->index_enabled = false;
    } else if (ParseFlag(arg, "pretrain-steps", &v)) {
      flags->pretrain_steps = static_cast<int>(
          ParseIntFlagOrDie("pretrain-steps", v, 0, 1000000000));
    } else if (ParseFlag(arg, "seed", &v)) {
      flags->seed = static_cast<uint64_t>(
          ParseIntFlagOrDie("seed", v, 0, std::numeric_limits<int64_t>::max()));
    } else if (ParseFlag(arg, "obs-json", &v)) {
      flags->obs_json = v;
    } else if (ParseFlag(arg, "request-log", &v)) {
      flags->request_log = v;
    } else if (ParseFlag(arg, "ts-interval-s", &v)) {
      flags->ts_interval_s =
          ParseDoubleFlagOrDie("ts-interval-s", v, 0.001, 1e6);
    } else if (ParseFlag(arg, "ts-capacity", &v)) {
      flags->ts_capacity = static_cast<size_t>(
          ParseIntFlagOrDie("ts-capacity", v, 1, int64_t{1} << 30));
    } else if (ParseFlag(arg, "slo-latency-ms", &v)) {
      flags->slo_latency_ms =
          ParseDoubleFlagOrDie("slo-latency-ms", v, 0.0, 1e9);
    } else if (ParseFlag(arg, "slo-fast-s", &v)) {
      flags->slo_fast_s = ParseDoubleFlagOrDie("slo-fast-s", v, 0.001, 1e9);
    } else if (ParseFlag(arg, "slo-slow-s", &v)) {
      flags->slo_slow_s = ParseDoubleFlagOrDie("slo-slow-s", v, 0.001, 1e9);
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

/// Small, fast-to-build zoo sized for interactive startup.
core::ZooConfig ServeZooConfig(const Flags& flags, uint64_t seed) {
  core::ZooConfig config;
  config.seed = seed;
  config.world.num_alarm_types = 48;
  config.world.num_kpi_types = 24;
  config.corpus.num_tele_sentences = 1500;
  config.corpus.num_general_sentences = 1500;
  config.num_episodes = 40;
  config.pretrain.steps = flags.pretrain_steps;
  config.cache_dir = "";  // TELEKIT_CACHE env still overrides
  return config;
}

/// Retrieval-index build options for one hosted variant. With multiple
/// hosted variants the snapshot path gains a per-model suffix so the
/// bundles do not overwrite each other's snapshots (the fingerprint is
/// model-tagged, so a shared file would rebuild on every start anyway).
BundleIndexOptions MakeIndexOptions(const Flags& flags,
                                    const std::string& model) {
  BundleIndexOptions options;
  options.enable = flags.index_enabled;
  options.hnsw.ef_search = flags.ef_search;
  options.num_tickets = flags.index_tickets;
  if (!flags.index_path.empty()) {
    options.snapshot_path = SplitString(flags.models, ',').size() > 1
                                ? flags.index_path + "." + model
                                : flags.index_path;
  }
  return options;
}

EngineOptions MakeEngineOptions(const Flags& flags) {
  EngineOptions options;
  options.num_workers = flags.workers;
  options.queue_capacity = flags.queue_capacity;
  options.max_batch = flags.max_batch;
  options.cache_capacity = flags.cache_capacity;
  options.cache_shards = flags.cache_shards;
  options.enable_cache = flags.cache;
  options.slow_request_ms = flags.slow_request_ms;
  options.compute_threads = flags.compute_threads;
  options.default_precision = flags.precision;
  return options;
}

/// Single-flight background checkpoint reload backing /reloadz. The admin
/// accept thread must never block on a model build (the health prober of a
/// fronting telekit_router polls /readyz on this same thread), so the
/// rebuild runs on a worker and /reloadz returns 202 immediately.
class ReloadManager {
 public:
  ReloadManager(ModelHost* host, const Flags* flags)
      : host_(host), flags_(flags) {}

  ~ReloadManager() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !busy_; });
    if (worker_.joinable()) worker_.join();
  }

  obs::HttpResponse Handle(const obs::HttpRequest& request) {
    const auto params = obs::ParseQuery(request.query);
    std::string model = host_->default_model();
    if (auto it = params.find("model"); it != params.end()) {
      model = it->second;
    }
    uint64_t seed = flags_->seed;
    if (auto it = params.find("seed"); it != params.end()) {
      int64_t parsed = 0;
      if (!ParseInt64(it->second, 0, std::numeric_limits<int64_t>::max(),
                      &parsed)) {
        return obs::HttpResponse::Text(400,
                                       "bad seed: " + it->second + "\n");
      }
      seed = static_cast<uint64_t>(parsed);
    }
    core::ModelKind kind;
    if (!ParseServeModel(model, &kind)) {
      return obs::HttpResponse::Text(400, "unknown model: " + model + "\n");
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (busy_) {
      return obs::HttpResponse::Text(409, "reload already in progress\n");
    }
    if (worker_.joinable()) worker_.join();  // reap the previous reload
    busy_ = true;
    worker_ = std::thread([this, model, seed] { Reload(model, seed); });
    obs::JsonValue out = obs::JsonValue::Object();
    out.Set("status", obs::JsonValue("reloading"));
    out.Set("model", obs::JsonValue(model));
    out.Set("seed", obs::JsonValue(seed));
    return obs::HttpResponse::Json(202, out);
  }

  /// {"busy": ..., "last": "..."} for /statusz.
  obs::JsonValue StatusJson() const {
    std::lock_guard<std::mutex> lock(mutex_);
    obs::JsonValue out = obs::JsonValue::Object();
    out.Set("busy", obs::JsonValue(busy_));
    out.Set("last", obs::JsonValue(last_));
    return out;
  }

 private:
  void Reload(const std::string& model, uint64_t seed) {
    auto zoo =
        std::make_shared<core::ModelZoo>(ServeZooConfig(*flags_, seed));
    auto built = BuildModelBundle(model, std::move(zoo),
                                  MakeEngineOptions(*flags_),
                                  MakeIndexOptions(*flags_, model));
    std::string outcome;
    if (built.ok()) {
      host_->Install(std::move(built.value()));
      outcome = "ok: reloaded " + model;
    } else {
      outcome = "error: " + built.status().ToString();
      TELEKIT_LOG(ERROR) << "reload failed" << obs::F("model", model)
                         << obs::F("status", built.status().ToString());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    last_ = outcome;
    busy_ = false;
    cv_.notify_all();
  }

  ModelHost* host_;
  const Flags* flags_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::thread worker_;
  bool busy_ = false;
  std::string last_ = "never";
};

int Main(int argc, char** argv) {
  Flags flags;
  ParseFlags(argc, argv, &flags);
  if (!flags.obs_json.empty()) {
    obs::TraceCollector::Global().set_recording(true);
  }
  const auto start_time = std::chrono::steady_clock::now();

  if (!flags.request_log.empty() &&
      !obs::RequestLog::Global().SetSinkFile(flags.request_log)) {
    std::cerr << "failed to open --request-log=" << flags.request_log << "\n";
    return 1;
  }
  obs::SpanStore::Global().SetProcessLabel(
      "telekit_serve:" + std::to_string(flags.port));

  const std::vector<std::string> model_names =
      SplitString(flags.models, ',');
  if (model_names.empty()) {
    std::cerr << "--models must name at least one variant\n";
    return 1;
  }

  // Time-series + SLO engines are declared before the admin server so the
  // admin (whose handlers reference them) is destroyed first; the sampler
  // thread itself only starts once startup can no longer early-return.
  obs::TimeSeriesOptions ts_options;
  ts_options.interval_s = flags.ts_interval_s;
  ts_options.capacity = flags.ts_capacity;
  obs::TimeSeriesStore timeseries(ts_options);
  obs::SloConfig slo_config;
  slo_config.fast_window_s = flags.slo_fast_s;
  slo_config.slow_window_s = flags.slo_slow_s;
  slo_config.budget_window_s = flags.slo_slow_s * 6.0;
  obs::SloEngine slo(&timeseries, slo_config);
  for (obs::SloObjective& objective :
       obs::DefaultServeObjectives(flags.slo_latency_ms, 0.999, 0.95)) {
    slo.AddObjective(std::move(objective));
  }
  timeseries.SetOnSample([&slo](double now_s) { slo.Evaluate(now_s); });

  // The admin server comes up before the model builds so /healthz answers
  // (and /readyz correctly says 503) during the slow startup phase.
  std::atomic<bool> ready{false};
  std::atomic<bool> draining{false};
  ModelHost host(model_names.front());
  ReloadManager reloader(&host, &flags);
  std::mutex quit_mutex;
  std::condition_variable quit_cv;
  bool quit_requested = false;
  obs::AdminServer admin;
  admin.Handle("/timeseriesz", [&timeseries](const obs::HttpRequest& request) {
    return timeseries.HandleQuery(request);
  });
  admin.Handle("/alertz", [&slo](const obs::HttpRequest& request) {
    return slo.HandleQuery(request);
  });
  admin.Handle("/readyz", [&ready, &draining, &host](const obs::HttpRequest&) {
    if (!ready.load()) {
      return obs::HttpResponse::Text(503, "loading\n");
    }
    if (draining.load()) {
      return obs::HttpResponse::Text(503, "draining\n");
    }
    ModelHost::BundlePtr bundle = host.Resolve("");
    if (bundle == nullptr) {
      return obs::HttpResponse::Text(503, "loading\n");
    }
    if (bundle->engine->GetStats().saturated) {
      return obs::HttpResponse::Text(503, "queue saturated\n");
    }
    return obs::HttpResponse::Text(200, "ready\n");
  });
  admin.Handle("/modelz", [&host](const obs::HttpRequest&) {
    return obs::HttpResponse::Json(200, host.StatusJson());
  });
  admin.Handle("/reloadz", [&reloader](const obs::HttpRequest& request) {
    return reloader.Handle(request);
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
  admin.Handle("/statusz", [&ready, &host, &reloader, &timeseries, &slo,
                            &draining, start_time](const obs::HttpRequest&) {
    obs::JsonValue out = obs::JsonValue::Object();
    out.Set("server", obs::JsonValue("telekit_serve"));
    obs::JsonValue build = obs::JsonValue::Object();
    build.Set("compiler", obs::JsonValue(__VERSION__));
    build.Set("cpp_standard", obs::JsonValue(static_cast<double>(__cplusplus)));
    out.Set("build", std::move(build));
    out.Set("uptime_s",
            obs::JsonValue(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_time)
                               .count()));
    out.Set("ready", obs::JsonValue(ready.load()));
    out.Set("draining", obs::JsonValue(draining.load()));
    if (ModelHost::BundlePtr bundle = host.Resolve("")) {
      const EngineStats stats = bundle->engine->GetStats();
      obs::JsonValue e = obs::JsonValue::Object();
      e.Set("model", obs::JsonValue(bundle->model));
      e.Set("generation", obs::JsonValue(bundle->generation));
      e.Set("queue_depth", obs::JsonValue(stats.queue_depth));
      e.Set("queue_capacity", obs::JsonValue(stats.queue_capacity));
      e.Set("saturated", obs::JsonValue(stats.saturated));
      obs::JsonValue workers = obs::JsonValue::Object();
      workers.Set("total", obs::JsonValue(stats.num_workers));
      workers.Set("busy", obs::JsonValue(stats.busy_workers));
      workers.Set("idle",
                  obs::JsonValue(stats.num_workers - stats.busy_workers));
      e.Set("workers", std::move(workers));
      e.Set("requests", obs::JsonValue(stats.requests));
      e.Set("rejected", obs::JsonValue(stats.rejected));
      e.Set("deadline_exceeded", obs::JsonValue(stats.deadline_exceeded));
      obs::JsonValue cache = obs::JsonValue::Object();
      cache.Set("hits", obs::JsonValue(stats.cache_hits));
      cache.Set("misses", obs::JsonValue(stats.cache_misses));
      cache.Set("hit_rate", obs::JsonValue(stats.cache_hit_rate));
      cache.Set("size", obs::JsonValue(stats.cache_size));
      e.Set("cache", std::move(cache));
      out.Set("engine", std::move(e));
      if (bundle->index != nullptr) {
        const index::CorpusIndexStats& istats = bundle->index->stats();
        obs::JsonValue idx = obs::JsonValue::Object();
        idx.Set("size", obs::JsonValue(istats.size));
        idx.Set("dim", obs::JsonValue(istats.dim));
        idx.Set("build_ms", obs::JsonValue(istats.build_ms));
        idx.Set("loaded_from_snapshot",
                obs::JsonValue(istats.loaded_from_snapshot));
        idx.Set("M", obs::JsonValue(istats.M));
        idx.Set("ef_construction", obs::JsonValue(istats.ef_construction));
        idx.Set("ef_search", obs::JsonValue(istats.ef_search_default));
        if (const obs::LatencyHistogram* h =
                obs::MetricsRegistry::Global().FindLatencyHistogram(
                    "serve/retrieve/request_ms")) {
          idx.Set("retrieve_latency", obs::LatencySummaryJson(*h));
        }
        if (const obs::LatencyHistogram* h =
                obs::MetricsRegistry::Global().FindLatencyHistogram(
                    "serve/troubleshoot/request_ms")) {
          idx.Set("troubleshoot_latency", obs::LatencySummaryJson(*h));
        }
        out.Set("index", std::move(idx));
      }
    }
    out.Set("models", host.StatusJson());
    out.Set("reload", reloader.StatusJson());
    if (const obs::LatencyHistogram* h =
            obs::MetricsRegistry::Global().FindLatencyHistogram(
                "serve/request_ms")) {
      out.Set("request_latency", obs::LatencySummaryJson(*h));
    }
    obs::JsonValue ts = obs::JsonValue::Object();
    ts.Set("running", obs::JsonValue(timeseries.running()));
    ts.Set("interval_s", obs::JsonValue(timeseries.options().interval_s));
    ts.Set("samples_taken", obs::JsonValue(timeseries.samples_taken()));
    out.Set("timeseries", std::move(ts));
    obs::JsonValue slo_json = obs::JsonValue::Object();
    slo_json.Set("objectives",
                 obs::JsonValue(static_cast<uint64_t>(slo.Snapshot().size())));
    slo_json.Set("firing",
                 obs::JsonValue(static_cast<uint64_t>(slo.firing_count())));
    out.Set("slo", std::move(slo_json));
    obs::JsonValue rlog = obs::JsonValue::Object();
    rlog.Set("size",
             obs::JsonValue(static_cast<uint64_t>(
                 obs::RequestLog::Global().size())));
    rlog.Set("total_recorded",
             obs::JsonValue(obs::RequestLog::Global().total_recorded()));
    rlog.Set("sink", obs::JsonValue(obs::RequestLog::Global().sink_path()));
    out.Set("request_log", std::move(rlog));
    return obs::HttpResponse::Json(200, out);
  });
  if (flags.admin_port >= 0 && !admin.Start(flags.admin_port)) {
    std::cerr << "failed to start admin server on 127.0.0.1:"
              << flags.admin_port << "\n";
    return 1;
  }

  // Apply before the model build so --pretrain-steps training is also
  // parallel; the engine ctor re-applies it via options (idempotent).
  if (flags.compute_threads > 0) {
    tensor::SetComputeThreads(flags.compute_threads);
  }

  std::cerr << "telekit_serve: building models [" << flags.models
            << "] (pretrain_steps=" << flags.pretrain_steps << ")...\n";
  // One zoo shared by every hosted variant; the build methods
  // single-flight, so each stage is materialized once.
  auto zoo = std::make_shared<core::ModelZoo>(
      ServeZooConfig(flags, flags.seed));
  for (const std::string& model : model_names) {
    auto built = BuildModelBundle(model, zoo, MakeEngineOptions(flags),
                                  MakeIndexOptions(flags, model));
    if (!built.ok()) {
      std::cerr << "BuildModelBundle(" << model
                << "): " << built.status().ToString() << "\n";
      return 1;
    }
    host.Install(std::move(built.value()));
  }
  // Start sampling only now that startup can no longer early-return: the
  // sampler's on-sample callback reaches into `slo`, so no sampler thread
  // may be live on any path where `slo` is destroyed before `timeseries`
  // stops.
  timeseries.Start();
  ready.store(true);
  std::cerr << "telekit_serve: ready (models=" << flags.models << ", "
            << flags.workers << " workers/engine)\n";
  if (admin.running()) {
    std::cerr << "telekit_serve: admin endpoints on 127.0.0.1:"
              << admin.port() << "\n";
  }

  const LineHandler handler = MakeServeLineHandler(&host, &draining);
  int rc = 0;
  if (flags.port > 0) {
    NdjsonServer server;
    if (!server.Start(flags.port, handler)) {
      std::cerr << "failed to listen on 127.0.0.1:" << flags.port << "\n";
      return 1;
    }
    std::cerr << "telekit_serve listening on 127.0.0.1:" << server.port()
              << "\n";
    {
      std::unique_lock<std::mutex> lock(quit_mutex);
      quit_cv.wait(lock, [&] { return quit_requested; });
    }
    // Graceful drain: stop accepting, let in-flight requests finish (the
    // handler already rejects new ones), then close the sockets.
    server.Drain();
    const auto drain_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.in_flight() > 0 &&
           std::chrono::steady_clock::now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    server.Stop();
  } else {
    ServeNdjsonStdio(handler, std::cin, std::cout);
  }
  ready.store(false);
  admin.Stop();
  timeseries.Stop();
  if (ModelHost::BundlePtr bundle = host.Resolve("")) {
    std::cerr << "telekit_serve: done; cache hit rate "
              << bundle->engine->cache().HitRate() << "\n";
  }
  if (!flags.obs_json.empty()) obs::WriteReport(flags.obs_json);
  return rc;
}

}  // namespace
}  // namespace serve
}  // namespace telekit

int main(int argc, char** argv) {
  return telekit::serve::Main(argc, argv);
}
