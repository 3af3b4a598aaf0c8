#ifndef TELEKIT_ROUTE_ROUTER_H_
#define TELEKIT_ROUTE_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "route/health.h"
#include "route/ring.h"

namespace telekit {
namespace route {

/// One upstream telekit_serve replica: NDJSON data plane on `port`,
/// admin plane (probed /readyz, fanned-out /reloadz) on `admin_port`.
struct ReplicaSpec {
  std::string host = "127.0.0.1";
  int port = 0;
  int admin_port = 0;  // 0 = no admin plane (probe falls back to connect)
  std::string name;    // display label; defaults to host:port
};

/// Accepts "host:port:admin_port", "host:port", or "port:admin_port" /
/// "port" (host defaulting to 127.0.0.1 — a leading numeric segment is a
/// port, not a host).
bool ParseReplicaSpec(const std::string& text, ReplicaSpec* spec);

enum class RoutePolicy { kHashRing, kRandom };

struct RouterOptions {
  /// Virtual nodes per replica on the consistent-hash ring.
  int vnodes = 64;
  /// Total forwarding attempts per request (first try + retries).
  int max_attempts = 3;
  /// Request budget when the client sends no deadline_ms.
  double default_deadline_ms = 2000.0;
  /// Per-attempt cap inside the budget.
  double per_try_ms = 1000.0;
  /// Tail hedging: when the first attempt is slower than the trigger,
  /// launch a second attempt on the next replica; first response wins.
  bool hedge = true;
  /// Fixed hedge trigger in ms; 0 derives it from the route/upstream_ms
  /// `hedge_quantile` once enough samples exist (tests pin it fixed).
  double hedge_delay_ms = 0.0;
  double hedge_quantile = 0.95;
  /// Floor for the derived trigger (and min samples to trust the tail).
  double hedge_min_ms = 1.0;
  uint64_t hedge_min_samples = 50;
  RoutePolicy policy = RoutePolicy::kHashRing;
  ProberOptions prober;
  /// Seed for the kRandom policy's permutations (deterministic benches).
  uint64_t random_seed = 0x7e1e7e1e;
  /// Test/bench hook: overrides the default /readyz HTTP probe.
  HealthProber::ProbeFn probe_override;
};

/// The telekit_router core: routes one NDJSON request line to the replica
/// fleet and returns one response line.
///
///   key = request text -> HashRing walk order -> first routable replica
///   -> pooled TCP connection -> bounded retries on the next replicas in
///   ring order -> optional tail hedge -> response (+ "routed" stamp)
///
/// Distributed tracing: every parseable request gets a trace id (the
/// client's hex `trace` field, or a router-assigned one) stamped into the
/// forwarded line, plus a per-attempt `parent_span` so each retry and
/// hedge leg shows up as its own hop in the replica's spans. The router
/// records a "route/request" root span and one "route/attempt" child per
/// leg (outcome won / lost / failed) into obs::SpanStore::Global(), and a
/// routing wide event (replica, attempts, hedge outcome) into
/// obs::RequestLog::Global().
///
/// Failure semantics: transport errors and upstream UNAVAILABLE retry on
/// the next replica (and feed the ejection state machine); any other
/// upstream answer — including model errors — is returned as-is. An
/// exhausted time budget yields DEADLINE_EXCEEDED (code 7), a fleet with
/// no routable replica UNAVAILABLE (code 6); both are rendered in the
/// serve wire format with the client's `id` echoed.
///
/// Thread-safety: Handle is safe from any thread; Start/Stop from one.
class Router {
 public:
  Router(std::vector<ReplicaSpec> replicas, RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Starts the background health prober.
  void Start();
  /// Stops the prober and waits for in-flight hedge attempts to land.
  void Stop();

  /// Forwards one request line; blocks until a response or a terminal
  /// error. Never throws; always returns a well-formed response line.
  std::string Handle(const std::string& line);

  /// Fans /reloadz?model=&seed= out to every replica's admin plane.
  /// Returns {"model", "seed", "replicas": [{name, status|error}]}. A
  /// `model` that is not a known serve wire name is rejected locally —
  /// the result carries a top-level "error" and nothing is fanned out.
  obs::JsonValue ReloadAll(const std::string& model, uint64_t seed,
                           double timeout_ms = 2000.0);

  /// {"replicas": [...health, spec...], "routable", "policy", ...} for
  /// the /fleetz admin endpoint.
  obs::JsonValue FleetJson() const;

  HealthProber& prober() { return *prober_; }
  const std::vector<ReplicaSpec>& replicas() const { return replicas_; }

 private:
  struct PooledConn;
  struct Rendezvous;

  /// Trace context one forwarding attempt carries: the attempt span the
  /// router records for it (span_id 0 = tracing off for this request) and
  /// its position in the request's attempt sequence.
  struct AttemptContext {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_span = 0;
    int attempt = 0;  ///< 1-based across the request (retries + hedges)
    /// The leg's timeout is the request's remaining budget, not the cap.
    bool budget_bound = false;
  };

  /// Replica indices to try for `key`, routable-first, policy-ordered.
  std::vector<size_t> PlanAttempts(const std::string& key);
  /// Current hedge trigger in ms (fixed override or derived quantile).
  double HedgeDelayMs() const;

  /// One upstream exchange on a pooled connection. Reports the outcome
  /// to the prober. Transport failures come back as UNAVAILABLE, except
  /// that a `budget_bound` leg that times out reports DEADLINE_EXCEEDED
  /// and leaves the prober alone.
  StatusOr<std::string> ForwardOnce(size_t replica, const std::string& line,
                                    double timeout_ms, bool budget_bound);
  std::unique_ptr<PooledConn> CheckoutConn(size_t replica, double timeout_ms);
  void ReturnConn(size_t replica, std::unique_ptr<PooledConn> conn);

  /// Launches a detached forwarding attempt that delivers to `rendezvous`
  /// and records the attempt's trace span (when `ctx` carries one).
  void LaunchAttempt(size_t replica, const std::string& line,
                     double timeout_ms, std::shared_ptr<Rendezvous> rendezvous,
                     AttemptContext ctx);

  const std::vector<ReplicaSpec> replicas_;
  const RouterOptions options_;
  std::unique_ptr<HashRing> ring_;
  std::unique_ptr<HealthProber> prober_;

  std::mutex rng_mutex_;
  std::mt19937_64 rng_;

  /// Idle connections per replica; one request per checkout (no
  /// multiplexing — a hedged loser's connection is simply closed, which
  /// is what discards its late response).
  std::vector<std::mutex> pool_mutexes_;
  std::vector<std::vector<std::unique_ptr<PooledConn>>> pools_;

  /// Detached attempt threads still running; Stop waits for zero.
  std::mutex outstanding_mutex_;
  std::condition_variable outstanding_cv_;
  int outstanding_ = 0;
};

}  // namespace route
}  // namespace telekit

#endif  // TELEKIT_ROUTE_ROUTER_H_
