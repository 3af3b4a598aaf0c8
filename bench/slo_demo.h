#ifndef TELEKIT_BENCH_SLO_DEMO_H_
#define TELEKIT_BENCH_SLO_DEMO_H_

#include <functional>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "obs/json.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace telekit {
namespace bench {

/// Shared driver for the loadgens' end-to-end SLO alert demos: drive
/// healthy traffic long enough to fill the slow burn window, switch to a
/// traffic shape that genuinely degrades latency, and assert the alert
/// lifecycle healthy -> firing -> resolved actually happens, recording the
/// detection lag (degradation start to fired_at) along the way.
///
/// The store's background sampler must already be running with the SLO
/// engine wired to its on-sample callback; the demo only generates traffic
/// and polls Snapshot() between ticks.

struct SloDemoPhases {
  double healthy_s = 5.0;          ///< healthy warmup (>= slow window)
  double fire_timeout_s = 45.0;    ///< give up if the alert never fires
  double resolve_timeout_s = 45.0; ///< give up if it never resolves
};

struct SloDemoResult {
  bool healthy_clean = false;  ///< not firing at the end of the warmup
  bool fired = false;
  bool resolved = false;
  double healthy_start_s = 0.0;
  double degrade_start_s = 0.0;
  double recover_start_s = 0.0;
  double fired_at_s = -1.0;
  double resolved_at_s = -1.0;
  double detection_lag_s = -1.0;   ///< fired_at - degrade_start
  double firing_interval_s = -1.0; ///< resolved_at - fired_at
  double fast_burn_at_fire = 0.0;
  double slow_burn_at_fire = 0.0;
  double budget_remaining_at_fire = 1.0;

  bool ok() const { return healthy_clean && fired && resolved; }
};

/// The demo's store and SLO engine, watching one latency objective
/// (target 0.9): the daemons' machinery (60 s / 300 s windows) with burn
/// windows compressed so the lifecycle completes in seconds. The sampler
/// runs from construction until Stop().
struct DemoSlo {
  DemoSlo(std::string name, std::string histogram, double threshold_ms)
      : store(obs::TimeSeriesOptions{.interval_s = 0.1, .capacity = 1024}),
        slo(&store, obs::SloConfig{.fast_window_s = 1.5,
                                   .slow_window_s = 4.0,
                                   .budget_window_s = 24.0,
                                   .burn_threshold = 1.5}) {
    objective.name = std::move(name);
    objective.kind = obs::SloObjective::Kind::kLatency;
    objective.histogram = std::move(histogram);
    objective.threshold_ms = threshold_ms;
    objective.target = 0.9;
    slo.AddObjective(objective);
    store.SetOnSample([this](double now_s) { slo.Evaluate(now_s); });
    store.Start();
  }
  ~DemoSlo() { store.Stop(); }

  /// The demo's settings, for the end of its report section.
  void AddSettings(obs::JsonValue* section) const {
    section->Set("target", obs::JsonValue(objective.target));
    section->Set("ts_interval_s", obs::JsonValue(store.options().interval_s));
    section->Set("fast_window_s", obs::JsonValue(slo.config().fast_window_s));
    section->Set("slow_window_s", obs::JsonValue(slo.config().slow_window_s));
    section->Set("burn_threshold",
                 obs::JsonValue(slo.config().burn_threshold));
  }

  obs::SloObjective objective;
  obs::TimeSeriesStore store;
  obs::SloEngine slo;
};

inline bool FindSloStatus(const obs::SloEngine& slo, const std::string& name,
                          obs::SloStatus* out) {
  for (const obs::SloStatus& status : slo.Snapshot()) {
    if (status.name == name) {
      *out = status;
      return true;
    }
  }
  return false;
}

/// Runs the three-phase lifecycle against `objective_name`. Each tick
/// callback issues one unit of traffic (including any pacing sleep it
/// wants); the driver polls the alert state between ticks on the store's
/// clock. Ticks must be short relative to the burn windows.
inline SloDemoResult RunSloAlertLifecycle(
    const obs::TimeSeriesStore& store, const obs::SloEngine& slo,
    const std::string& objective_name,
    const std::function<void()>& healthy_tick,
    const std::function<void()>& degraded_tick,
    const SloDemoPhases& phases = {}) {
  SloDemoResult result;
  obs::SloStatus status;

  // Phase 1: healthy traffic until the slow window has real history.
  result.healthy_start_s = store.now_s();
  while (store.now_s() - result.healthy_start_s < phases.healthy_s) {
    healthy_tick();
  }
  result.healthy_clean = FindSloStatus(slo, objective_name, &status) &&
                         status.state != obs::AlertState::kFiring;

  // Phase 2: degrade until the alert fires (or we time out).
  result.degrade_start_s = store.now_s();
  while (store.now_s() - result.degrade_start_s < phases.fire_timeout_s) {
    degraded_tick();
    if (FindSloStatus(slo, objective_name, &status) &&
        status.state == obs::AlertState::kFiring) {
      result.fired = true;
      // fired_at_s is stamped by the sampler thread at the transition, so
      // the lag is not inflated by this poll loop's tick granularity.
      result.fired_at_s = status.fired_at_s;
      result.detection_lag_s = status.fired_at_s - result.degrade_start_s;
      result.fast_burn_at_fire = status.fast_burn;
      result.slow_burn_at_fire = status.slow_burn;
      result.budget_remaining_at_fire = status.budget_remaining;
      break;
    }
  }
  if (!result.fired) return result;

  // Phase 3: healthy traffic again until the bad samples age out of both
  // windows and the alert resolves.
  result.recover_start_s = store.now_s();
  while (store.now_s() - result.recover_start_s < phases.resolve_timeout_s) {
    healthy_tick();
    if (FindSloStatus(slo, objective_name, &status) &&
        status.state == obs::AlertState::kResolved) {
      result.resolved = true;
      result.resolved_at_s = status.resolved_at_s;
      result.firing_interval_s = status.resolved_at_s - result.fired_at_s;
      break;
    }
  }
  return result;
}

inline obs::JsonValue SloDemoResultToJson(const SloDemoResult& result) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("passed", obs::JsonValue(result.ok()));
  out.Set("healthy_clean", obs::JsonValue(result.healthy_clean));
  out.Set("fired", obs::JsonValue(result.fired));
  out.Set("resolved", obs::JsonValue(result.resolved));
  out.Set("healthy_start_s", obs::JsonValue(result.healthy_start_s));
  out.Set("degrade_start_s", obs::JsonValue(result.degrade_start_s));
  out.Set("fired_at_s", obs::JsonValue(result.fired_at_s));
  out.Set("resolved_at_s", obs::JsonValue(result.resolved_at_s));
  out.Set("detection_lag_s", obs::JsonValue(result.detection_lag_s));
  out.Set("firing_interval_s", obs::JsonValue(result.firing_interval_s));
  out.Set("fast_burn_at_fire", obs::JsonValue(result.fast_burn_at_fire));
  out.Set("slow_burn_at_fire", obs::JsonValue(result.slow_burn_at_fire));
  out.Set("budget_remaining_at_fire",
          obs::JsonValue(result.budget_remaining_at_fire));
  return out;
}

/// Read-modify-write merge of one loadgen's section into the shared
/// BENCH_obs.json, so serve_loadgen and stream_loadgen can both contribute
/// without clobbering each other. An unreadable or unparseable existing
/// file is replaced rather than fatal.
inline bool MergeObsReport(const std::string& path, const std::string& key,
                           obs::JsonValue section) {
  return MergeJsonSection(path, "benchmark",
                          obs::JsonValue("slo_alert_demo")) &&
         MergeJsonSection(path, key, std::move(section));
}

}  // namespace bench
}  // namespace telekit

#endif  // TELEKIT_BENCH_SLO_DEMO_H_
