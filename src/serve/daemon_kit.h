#ifndef TELEKIT_SERVE_DAEMON_KIT_H_
#define TELEKIT_SERVE_DAEMON_KIT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/flag_parse.h"
#include "core/model_zoo.h"
#include "obs/admin.h"
#include "obs/json.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace telekit {
namespace serve {

class NdjsonServer;

/// The zoo telekit_serve and telekit_streamd start with: a small world
/// whose (by default untrained) TeleBERT builds in seconds.
core::ZooConfig InteractiveZooConfig(uint64_t seed, int pretrain_steps);

/// The flags every daemon shares (DaemonKit::DeclareFlags). A main may
/// change a default before declaring (streamd's --slo-latency-ms).
struct DaemonFlags {
  int admin_port = -1;  // -1 = disabled, 0 = ephemeral
  std::string obs_json;
  std::string request_log;
  double ts_interval_s = 1.0;
  size_t ts_capacity = 600;
  double slo_latency_ms = 50.0;
  double slo_fast_s = 60.0;
  double slo_slow_s = 300.0;
};

/// The wiring the daemon mains share: the admin server and its
/// "<name>: admin endpoints on 127.0.0.1:<port>" line, the --request-log
/// sink, the --obs-json report, the span-store process label, /statusz,
/// and on request a time-series store with burn-rate SLO alerting
/// (/timeseriesz, /alertz) and the /quitquitquit drain.
///
/// Lifetime: declare the kit after every object an admin handler reads.
/// The kit stops the admin server before its own engines, and starts the
/// sampler (whose callback reaches into the SLO engine) only in
/// MarkReady(), once startup can no longer fail.
class DaemonKit {
 public:
  /// Declares --admin-port, --obs-json, --request-log and --log-level,
  /// and with `slo` the five --ts-*/--slo-* flags.
  static void DeclareFlags(FlagSet* table, DaemonFlags* flags, bool slo);

  /// Non-empty `objectives` build the time-series store and SLO engine.
  DaemonKit(std::string name, const DaemonFlags& flags,
            std::vector<obs::SloObjective> objectives = {});
  ~DaemonKit();

  DaemonKit(const DaemonKit&) = delete;
  DaemonKit& operator=(const DaemonKit&) = delete;

  /// Register the daemon's own endpoints here before Start().
  obs::AdminServer& admin() { return admin_; }

  /// /statusz: {"server": name, fill's members, and for an SLO kit the
  /// timeseries, slo and request_log sections}.
  void HandleStatus(std::function<void(obs::JsonValue*)> fill);

  /// /quitquitquit: answers 200 "draining", sets draining() and releases
  /// ServeUntilQuit().
  void HandleQuit();

  /// Turns on trace recording for --obs-json, opens the --request-log
  /// sink, labels spans "<name>:<data_port>" (when data_port >= 0) and
  /// starts the admin server. False, after saying why on stderr, when the
  /// sink or the admin port cannot be opened.
  bool Start(int data_port = -1);

  /// Starts the sampler and prints the admin endpoints line.
  void MarkReady();

  /// Blocks until /quitquitquit, then drains `server`: it stops
  /// accepting, in-flight requests get up to 10 s, and it is stopped.
  void ServeUntilQuit(NdjsonServer* server);

  /// Stops the admin server and the sampler, then writes --obs-json.
  void Finish();

  const std::atomic<bool>& draining() const { return draining_; }
  double uptime_s() const;

 private:
  const std::string name_;
  const DaemonFlags flags_;
  const std::chrono::steady_clock::time_point start_time_;
  std::unique_ptr<obs::TimeSeriesStore> timeseries_;
  std::unique_ptr<obs::SloEngine> slo_;
  std::atomic<bool> draining_{false};
  std::mutex quit_mutex_;
  std::condition_variable quit_cv_;
  bool quit_requested_ = false;
  obs::AdminServer admin_;  // last, so destroyed first
};

}  // namespace serve
}  // namespace telekit

#endif  // TELEKIT_SERVE_DAEMON_KIT_H_
