#ifndef TELEKIT_OBS_SLO_H_
#define TELEKIT_OBS_SLO_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/admin.h"
#include "obs/json.h"
#include "obs/timeseries.h"

namespace telekit {
namespace obs {

/// One service-level objective, declared against time-series the store
/// already samples.
///
/// kAvailability: good = total - bad, both read as counter deltas of
/// `total_counter` / `bad_counter` over each burn window.
///
/// kLatency: total = `<histogram>/count` delta, good = the tracked
/// threshold series `<histogram>/le_<threshold>` delta (requests at or
/// under `threshold_ms`); bad = total - good.
struct SloObjective {
  enum class Kind { kAvailability, kLatency };

  std::string name;  ///< e.g. "serve/rca/latency" — unique per engine
  Kind kind = Kind::kAvailability;
  std::string total_counter;  ///< availability: total-events counter series
  std::string bad_counter;    ///< availability: bad-events counter series
  std::string histogram;      ///< latency: Histogram registry name
  double threshold_ms = 0.0;  ///< latency: good means <= this
  double target = 0.999;      ///< fraction of events that must be good
};

/// Multi-window burn-rate alerting parameters (SRE-workbook shape): the
/// alert condition is burn >= threshold over BOTH the fast and the slow
/// window — the fast window gives detection speed, the slow window keeps
/// a brief blip from paging.
struct SloConfig {
  double fast_window_s = 60.0;
  double slow_window_s = 300.0;
  double budget_window_s = 1800.0;  ///< error-budget accounting horizon
  double burn_threshold = 2.0;      ///< fire at this multiple of budget burn
  double pending_for_s = 0.0;       ///< dwell in pending before firing
};

/// pending -> firing -> resolved alert lifecycle. kResolved is sticky
/// (distinguishes "recovered" from "never fired") until the next breach.
enum class AlertState { kHealthy, kPending, kFiring, kResolved };

const char* AlertStateName(AlertState state);

/// Point-in-time evaluation of one objective.
struct SloStatus {
  std::string name;
  SloObjective::Kind kind = SloObjective::Kind::kAvailability;
  AlertState state = AlertState::kHealthy;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  double budget_remaining = 1.0;  ///< fraction left; negative = overspent
  double since_s = 0.0;           ///< when the current state was entered
  double fired_at_s = -1.0;       ///< last transition into firing; -1 never
  double resolved_at_s = -1.0;    ///< last transition out of firing
  uint64_t transitions = 0;       ///< state changes since registration
};

/// Evaluates declarative SLOs as multi-window burn rates over a
/// TimeSeriesStore and runs the alert state machine. Designed to be driven
/// from the store's on-sample callback:
///
///   store.SetOnSample([&](double now_s) { slo.Evaluate(now_s); });
///
/// Firing and resolving emit WARN logs; the `obs/alerts_firing` gauge
/// tracks how many objectives are currently firing. Thread-safe.
class SloEngine {
 public:
  explicit SloEngine(TimeSeriesStore* store, SloConfig config = {});

  /// Registers an objective (latency objectives also register their
  /// threshold series with the store). Call before the sampler starts.
  void AddObjective(SloObjective objective);

  /// burn = error_ratio / error_budget where error_ratio is clamped to
  /// [0, 1] and error_budget = 1 - target. Exactly at budget -> 1.0;
  /// total <= 0 (empty window) -> 0 (no traffic burns nothing). `bad`
  /// exceeding `total` (deadline expiries count errors without counting
  /// requests) clamps the ratio at 1.
  static double BurnRate(double bad, double total, double target);

  /// One evaluation pass at store-time `now_s` (seconds on the store's
  /// clock, as handed to the on-sample callback).
  void Evaluate(double now_s);

  std::vector<SloStatus> Snapshot() const;
  size_t firing_count() const;

  /// {now_s, config: {...}, firing, objectives: [...]} for /alertz.
  JsonValue ToJson() const;
  HttpResponse HandleQuery(const HttpRequest& request) const;

  const SloConfig& config() const { return config_; }

 private:
  struct Entry {
    SloObjective objective;
    SloStatus status;
  };

  /// Burn rate of `entry` over a window ending at now_s.
  double WindowBurn(const Entry& entry, double window_s, double now_s,
                    double* bad_out, double* total_out) const;
  void Transition(Entry* entry, AlertState next, double now_s);

  TimeSeriesStore* const store_;
  const SloConfig config_;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  double last_evaluated_s_ = -1.0;
};

/// Availability + latency objectives for the four serve ops (rca, eap,
/// fct, encode) against the per-op counters/histograms ServeEngine
/// maintains. `latency_threshold_ms` is the good/bad boundary for every
/// op's latency objective.
std::vector<SloObjective> DefaultServeObjectives(double latency_threshold_ms,
                                                 double availability_target,
                                                 double latency_target);

/// Availability (episodes vs shed) + detection-latency objectives for the
/// streaming pipeline.
std::vector<SloObjective> DefaultStreamObjectives(double latency_threshold_ms,
                                                  double availability_target,
                                                  double latency_target);

}  // namespace obs
}  // namespace telekit

#endif  // TELEKIT_OBS_SLO_H_
