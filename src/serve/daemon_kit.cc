#include "serve/daemon_kit.h"

#include <iostream>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "obs/log.h"
#include "obs/report.h"
#include "obs/requestlog.h"
#include "obs/spanstore.h"
#include "obs/trace.h"
#include "serve/ndjson_server.h"

namespace telekit {
namespace serve {

core::ZooConfig InteractiveZooConfig(uint64_t seed, int pretrain_steps) {
  core::ZooConfig config;
  config.seed = seed;
  config.world.num_alarm_types = 48;
  config.world.num_kpi_types = 24;
  config.corpus.num_tele_sentences = 1500;
  config.corpus.num_general_sentences = 1500;
  config.num_episodes = 40;
  config.pretrain.steps = pretrain_steps;
  config.cache_dir = "";  // TELEKIT_CACHE env still overrides
  return config;
}

void DaemonKit::DeclareFlags(FlagSet* table, DaemonFlags* flags, bool slo) {
  table->Int("admin-port=N", &flags->admin_port, -1, 65535,
             "HTTP admin endpoints on 127.0.0.1:N\n"
             "(0 = ephemeral; default off)");
  table->String("obs-json=PATH", &flags->obs_json,
                "write metrics/trace report on exit");
  table->String("request-log=PATH", &flags->request_log,
                "append one NDJSON wide event per request");
  if (slo) {
    table->Double("ts-interval-s=X", &flags->ts_interval_s, 0.001, 1e6,
                  "time-series sample period (default 1)");
    table->Int("ts-capacity=N", &flags->ts_capacity, 1, int64_t{1} << 30,
               "time-series ring slots (default 600)");
    table->Double("slo-latency-ms=X", &flags->slo_latency_ms, 0.0, 1e9,
                  StringPrintf("latency SLO threshold (default %g)",
                               flags->slo_latency_ms));
    table->Double("slo-fast-s=X", &flags->slo_fast_s, 0.001, 1e9,
                  "SLO fast burn window (default 60)");
    table->Double("slo-slow-s=X", &flags->slo_slow_s, 0.001, 1e9,
                  "SLO slow burn window (default 300)");
  }
  AddLogLevelFlag(table);
}

DaemonKit::DaemonKit(std::string name, const DaemonFlags& flags,
                     std::vector<obs::SloObjective> objectives)
    : name_(std::move(name)),
      flags_(flags),
      start_time_(std::chrono::steady_clock::now()) {
  if (!objectives.empty()) {
    obs::TimeSeriesOptions ts_options;
    ts_options.interval_s = flags.ts_interval_s;
    ts_options.capacity = flags.ts_capacity;
    timeseries_ = std::make_unique<obs::TimeSeriesStore>(ts_options);
    obs::SloConfig slo_config;
    slo_config.fast_window_s = flags.slo_fast_s;
    slo_config.slow_window_s = flags.slo_slow_s;
    slo_config.budget_window_s = flags.slo_slow_s * 6.0;
    slo_ = std::make_unique<obs::SloEngine>(timeseries_.get(), slo_config);
    for (obs::SloObjective& objective : objectives) {
      slo_->AddObjective(std::move(objective));
    }
    timeseries_->SetOnSample([this](double now_s) { slo_->Evaluate(now_s); });
    admin_.Handle("/timeseriesz", [this](const obs::HttpRequest& request) {
      return timeseries_->HandleQuery(request);
    });
    admin_.Handle("/alertz", [this](const obs::HttpRequest& request) {
      return slo_->HandleQuery(request);
    });
  }
}

DaemonKit::~DaemonKit() {
  admin_.Stop();
  if (timeseries_ != nullptr) timeseries_->Stop();
}

void DaemonKit::HandleStatus(std::function<void(obs::JsonValue*)> fill) {
  admin_.Handle("/statusz", [this, fill = std::move(fill)](
                                const obs::HttpRequest&) {
    obs::JsonValue out = obs::JsonValue::Object();
    out.Set("server", obs::JsonValue(name_));
    fill(&out);
    if (timeseries_ != nullptr) {
      obs::JsonValue ts = obs::JsonValue::Object();
      ts.Set("running", obs::JsonValue(timeseries_->running()));
      ts.Set("interval_s", obs::JsonValue(timeseries_->options().interval_s));
      ts.Set("samples_taken", obs::JsonValue(timeseries_->samples_taken()));
      out.Set("timeseries", std::move(ts));
      obs::JsonValue slo = obs::JsonValue::Object();
      slo.Set("objectives", obs::JsonValue(static_cast<uint64_t>(
                                slo_->Snapshot().size())));
      slo.Set("firing",
              obs::JsonValue(static_cast<uint64_t>(slo_->firing_count())));
      out.Set("slo", std::move(slo));
      const obs::RequestLog& requests = obs::RequestLog::Global();
      obs::JsonValue rlog = obs::JsonValue::Object();
      rlog.Set("size",
               obs::JsonValue(static_cast<uint64_t>(requests.size())));
      rlog.Set("total_recorded", obs::JsonValue(requests.total_recorded()));
      rlog.Set("sink", obs::JsonValue(requests.sink_path()));
      out.Set("request_log", std::move(rlog));
    }
    return obs::HttpResponse::Json(200, out);
  });
}

void DaemonKit::HandleQuit() {
  admin_.Handle("/quitquitquit", [this](const obs::HttpRequest&) {
    draining_.store(true);
    {
      std::lock_guard<std::mutex> lock(quit_mutex_);
      quit_requested_ = true;
    }
    quit_cv_.notify_all();
    TELEKIT_LOG(WARN) << "quitquitquit: draining";
    return obs::HttpResponse::Text(200, "draining\n");
  });
}

bool DaemonKit::Start(int data_port) {
  if (!flags_.obs_json.empty()) {
    obs::TraceCollector::Global().set_recording(true);
  }
  if (!flags_.request_log.empty() &&
      !obs::RequestLog::Global().SetSinkFile(flags_.request_log)) {
    std::cerr << "failed to open --request-log=" << flags_.request_log << "\n";
    return false;
  }
  if (data_port >= 0) {
    obs::SpanStore::Global().SetProcessLabel(name_ + ":" +
                                             std::to_string(data_port));
  }
  if (flags_.admin_port >= 0 && !admin_.Start(flags_.admin_port)) {
    std::cerr << "failed to start admin server on 127.0.0.1:"
              << flags_.admin_port << "\n";
    return false;
  }
  return true;
}

void DaemonKit::MarkReady() {
  if (timeseries_ != nullptr) timeseries_->Start();
  if (admin_.running()) {
    std::cerr << name_ << ": admin endpoints on 127.0.0.1:" << admin_.port()
              << "\n";
  }
}

void DaemonKit::ServeUntilQuit(NdjsonServer* server) {
  {
    std::unique_lock<std::mutex> lock(quit_mutex_);
    quit_cv_.wait(lock, [this] { return quit_requested_; });
  }
  // Stop accepting and let in-flight requests finish (the line handlers
  // reject new ones once draining() is set), then close the sockets.
  server->Drain();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server->in_flight() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server->Stop();
}

void DaemonKit::Finish() {
  admin_.Stop();
  if (timeseries_ != nullptr) timeseries_->Stop();
  if (!flags_.obs_json.empty()) obs::WriteReport(flags_.obs_json);
}

double DaemonKit::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_time_)
      .count();
}

}  // namespace serve
}  // namespace telekit
