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
#include <condition_variable>
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
#include "obs/slo.h"
#include "serve/daemon_kit.h"
#include "serve/engine.h"
#include "serve/model_host.h"
#include "serve/ndjson_server.h"
#include "serve/protocol.h"
#include "tensor/compute_pool.h"

namespace telekit {
namespace serve {
namespace {

struct Flags {
  int port = 0;  // 0 = stdin/stdout
  EngineOptions engine;
  BundleIndexOptions index;  // snapshot_path comes from index_path
  std::string index_path;    // index snapshot file ("" = rebuild always)
  int pretrain_steps = 0;
  uint64_t seed = 20230401;
  std::string models = "telebert";  // comma-separated variant list
  DaemonFlags daemon;
};

void ParseFlags(int argc, char** argv, Flags* flags) {
  FlagSet table("telekit_serve");
  EngineOptions& engine = flags->engine;
  engine.slow_request_ms = 100.0;  // the daemon's defaults, not the library's
  flags->index.enable = true;
  table.Int("port=N", &flags->port, 0, 65535,
            "serve TCP instead of stdin/stdout");
  table.String("models=LIST", &flags->models,
               "comma-separated variants to host (default\n"
               "telebert; also ktelebert_stl|pmtl|imtl)");
  table.Double("slow-request-ms=X", &engine.slow_request_ms, 0.0, 1e9,
               "WARN-log and count requests slower than\n"
               "X ms (default 100; 0 = off); /tracez?min_ms=X\n"
               "shows them");
  table.Int("workers=N", &engine.num_workers, 1, 1024,
            "engine worker threads (default 4)");
  table.Int("queue-capacity=N", &engine.queue_capacity, 1, int64_t{1} << 30,
            "bounded queue size (default 1024)");
  table.Int("cache-capacity=N", &engine.cache_capacity, 0, int64_t{1} << 30,
            "embedding cache entries (default 4096)");
  table.Int("cache-shards=N", &engine.cache_shards, 1, 4096,
            "embedding cache shards (default 8)");
  table.Switch("no-cache", &engine.enable_cache, false,
               "disable the embedding cache");
  tensor::AddComputeThreadsFlag(&table);
  table.Custom("precision=P", "fp32|int8",
               "encode precision for requests without a\n"
               "'precision' field: fp32|int8 (default fp32)",
               [&engine](const std::string& value) {
                 return ParsePrecision(value, &engine.default_precision);
               });
  table.String("index-path=PATH", &flags->index_path,
               "retrieval-index snapshot: loaded when valid\n"
               "(skipping the rebuild), written after a\n"
               "cold build (default: rebuild every start)");
  table.Int("ef-search=N", &flags->index.hnsw.ef_search, 1, 1 << 20,
            "default ANN beam width for retrieve/\n"
            "troubleshoot (default 32; requests override\nvia 'ef_search')");
  table.Int("index-tickets=N", &flags->index.num_tickets, 0, 1 << 20,
            "synthesized trouble tickets in the corpus\n(default 64)");
  table.Switch("no-index", &flags->index.enable, false,
               "skip the retrieval index (retrieve/\n"
               "troubleshoot fail FAILED_PRECONDITION)");
  table.Int("pretrain-steps=N", &flags->pretrain_steps, 0, 1000000000,
            "TeleBERT pre-training steps (default 0)");
  table.Int("seed=N", &flags->seed, 0, std::numeric_limits<int64_t>::max(),
            "world/model seed");
  DaemonKit::DeclareFlags(&table, &flags->daemon, /*slo=*/true);
  table.Parse(argc, argv);
  if (SplitString(flags->models, ',').empty()) {
    table.UsageError("--models must name at least one variant");
  }
}

/// Retrieval-index build options for one hosted variant. With multiple
/// hosted variants the snapshot path gains a per-model suffix so the
/// bundles do not overwrite each other's snapshots (the fingerprint is
/// model-tagged, so a shared file would rebuild on every start anyway).
BundleIndexOptions MakeIndexOptions(const Flags& flags,
                                    const std::string& model) {
  BundleIndexOptions options = flags.index;
  if (!flags.index_path.empty()) {
    options.snapshot_path = SplitString(flags.models, ',').size() > 1
                                ? flags.index_path + "." + model
                                : flags.index_path;
  }
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
    auto zoo = std::make_shared<core::ModelZoo>(
        InteractiveZooConfig(seed, flags_->pretrain_steps));
    auto built = BuildModelBundle(model, std::move(zoo),
                                  flags_->engine,
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
  const std::vector<std::string> model_names =
      SplitString(flags.models, ',');

  // The admin server comes up before the model builds so /healthz answers
  // (and /readyz correctly says 503) during the slow startup phase.
  std::atomic<bool> ready{false};
  ModelHost host(model_names.front());
  ReloadManager reloader(&host, &flags);
  DaemonKit kit("telekit_serve", flags.daemon,
                obs::DefaultServeObjectives(flags.daemon.slo_latency_ms,
                                            0.999, 0.95));
  kit.admin().Handle("/readyz", [&ready, &kit,
                                 &host](const obs::HttpRequest&) {
    if (!ready.load()) {
      return obs::HttpResponse::Text(503, "loading\n");
    }
    if (kit.draining().load()) {
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
  kit.admin().Handle("/modelz", [&host](const obs::HttpRequest&) {
    return obs::HttpResponse::Json(200, host.StatusJson());
  });
  kit.admin().Handle("/reloadz", [&reloader](const obs::HttpRequest& request) {
    return reloader.Handle(request);
  });
  kit.HandleQuit();
  kit.HandleStatus([&ready, &kit, &host, &reloader](obs::JsonValue* out) {
    obs::JsonValue build = obs::JsonValue::Object();
    build.Set("compiler", obs::JsonValue(__VERSION__));
    build.Set("cpp_standard", obs::JsonValue(static_cast<double>(__cplusplus)));
    out->Set("build", std::move(build));
    out->Set("uptime_s", obs::JsonValue(kit.uptime_s()));
    out->Set("ready", obs::JsonValue(ready.load()));
    out->Set("draining", obs::JsonValue(kit.draining().load()));
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
      out->Set("engine", std::move(e));
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
        if (const obs::Histogram* h =
                obs::MetricsRegistry::Global().FindHistogram(
                    "serve/retrieve/request_ms")) {
          idx.Set("retrieve_latency", obs::LatencySummaryJson(*h));
        }
        if (const obs::Histogram* h =
                obs::MetricsRegistry::Global().FindHistogram(
                    "serve/troubleshoot/request_ms")) {
          idx.Set("troubleshoot_latency", obs::LatencySummaryJson(*h));
        }
        out->Set("index", std::move(idx));
      }
    }
    out->Set("models", host.StatusJson());
    out->Set("reload", reloader.StatusJson());
    if (const obs::Histogram* h =
            obs::MetricsRegistry::Global().FindHistogram("serve/request_ms")) {
      out->Set("request_latency", obs::LatencySummaryJson(*h));
    }
  });
  if (!kit.Start(flags.port)) return 1;

  std::cerr << "telekit_serve: building models [" << flags.models
            << "] (pretrain_steps=" << flags.pretrain_steps << ")...\n";
  // One zoo shared by every hosted variant; the build methods
  // single-flight, so each stage is materialized once.
  auto zoo = std::make_shared<core::ModelZoo>(
      InteractiveZooConfig(flags.seed, flags.pretrain_steps));
  for (const std::string& model : model_names) {
    auto built = BuildModelBundle(model, zoo, flags.engine,
                                  MakeIndexOptions(flags, model));
    if (!built.ok()) {
      std::cerr << "BuildModelBundle(" << model
                << "): " << built.status().ToString() << "\n";
      return 1;
    }
    host.Install(std::move(built.value()));
  }
  ready.store(true);
  std::cerr << "telekit_serve: ready (models=" << flags.models << ", "
            << flags.engine.num_workers << " workers/engine)\n";
  kit.MarkReady();

  const LineHandler handler = MakeServeLineHandler(&host, &kit.draining());
  if (flags.port > 0) {
    NdjsonServer server;
    if (!server.Start(flags.port, handler)) {
      std::cerr << "failed to listen on 127.0.0.1:" << flags.port << "\n";
      return 1;
    }
    std::cerr << "telekit_serve listening on 127.0.0.1:" << server.port()
              << "\n";
    kit.ServeUntilQuit(&server);
  } else {
    ServeNdjsonStdio(handler, std::cin, std::cout);
  }
  ready.store(false);
  kit.Finish();
  if (ModelHost::BundlePtr bundle = host.Resolve("")) {
    std::cerr << "telekit_serve: done; cache hit rate "
              << bundle->engine->cache().HitRate() << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace serve
}  // namespace telekit

int main(int argc, char** argv) {
  return telekit::serve::Main(argc, argv);
}
