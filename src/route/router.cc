#include "route/router.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>

#include "common/flag_parse.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/requestlog.h"
#include "obs/spanstore.h"
#include "obs/trace.h"
#include "route/http_client.h"
#include "serve/line_io.h"
#include "serve/model_host.h"
#include "serve/protocol.h"

namespace telekit {
namespace route {

namespace {

struct RouteMetrics {
  obs::Counter* requests;
  obs::Counter* retries;
  obs::Counter* hedges;
  obs::Counter* hedge_wins;
  obs::Counter* hedge_discarded;
  obs::Counter* no_healthy;
  obs::Counter* deadline_exceeded;
  obs::Counter* upstream_errors;
  obs::Histogram* request_ms;
  obs::Histogram* upstream_ms;

  static RouteMetrics& Get() {
    static RouteMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      RouteMetrics m;
      m.requests = &registry.GetCounter("route/requests");
      m.retries = &registry.GetCounter("route/retries");
      m.hedges = &registry.GetCounter("route/hedges");
      m.hedge_wins = &registry.GetCounter("route/hedge_wins");
      m.hedge_discarded = &registry.GetCounter("route/hedge_discarded");
      m.no_healthy = &registry.GetCounter("route/no_healthy");
      m.deadline_exceeded = &registry.GetCounter("route/deadline_exceeded");
      m.upstream_errors = &registry.GetCounter("route/upstream_errors");
      m.request_ms = &registry.GetHistogram("route/request_ms");
      m.upstream_ms = &registry.GetHistogram("route/upstream_ms");
      return m;
    }();
    return metrics;
  }
};

using Clock = std::chrono::steady_clock;

double RemainingMs(Clock::time_point deadline) {
  return std::chrono::duration<double, std::milli>(deadline - Clock::now())
      .count();
}

bool AllDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// True when the upstream answer should be retried on another replica:
/// {"ok": false, "error": {"code": 6 /* UNAVAILABLE */}} — a draining or
/// saturated replica. Every other answer (including model/validation
/// errors) is the client's to see.
bool IsRetryableResponse(const std::string& line) {
  obs::JsonValue json;
  std::string error;
  if (!obs::JsonValue::Parse(line, &json, &error) || !json.is_object()) {
    return false;
  }
  const obs::JsonValue* ok = json.Find("ok");
  if (ok == nullptr || !ok->is_bool() || ok->AsBool()) return false;
  const obs::JsonValue* err = json.Find("error");
  if (err == nullptr || !err->is_object()) return false;
  const obs::JsonValue* code = err->Find("code");
  return code != nullptr && code->is_number() &&
         static_cast<int>(code->AsNumber()) ==
             static_cast<int>(StatusCode::kUnavailable);
}

/// Bounds both halves of the exchange: without SO_SNDTIMEO a send()
/// against a stuck peer (full socket buffer) blocks indefinitely and the
/// attempt thread outlives any Stop() grace period.
void SetIoTimeout(int fd, double timeout_ms) {
  if (timeout_ms <= 0.0) timeout_ms = 1.0;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

bool ParseReplicaSpec(const std::string& text, ReplicaSpec* spec) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t colon = text.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, colon - start));
    start = colon + 1;
  }
  *spec = ReplicaSpec();
  // Strict port parsing (full string, range-checked): "7101x" or an
  // out-of-range value rejects the spec instead of atoi-truncating.
  const auto parse_port = [](const std::string& s, int* out) {
    int64_t value = 0;
    if (!AllDigits(s) || !ParseInt64(s, 1, 65535, &value)) return false;
    *out = static_cast<int>(value);
    return true;
  };
  if (parts.size() == 1 && parse_port(parts[0], &spec->port)) {
    // port
  } else if (parts.size() == 2 && AllDigits(parts[0]) &&
             parse_port(parts[0], &spec->port) &&
             parse_port(parts[1], &spec->admin_port)) {
    // port:admin_port
  } else if (parts.size() == 2 && !parts[0].empty() &&
             parse_port(parts[1], &spec->port)) {
    spec->host = parts[0];
  } else if (parts.size() == 3 && !parts[0].empty() &&
             parse_port(parts[1], &spec->port) &&
             parse_port(parts[2], &spec->admin_port)) {
    spec->host = parts[0];
  } else {
    return false;
  }
  spec->name = spec->host + ":" + std::to_string(spec->port);
  return true;
}

/// One pooled upstream connection. The LineReader travels with the fd:
/// its carry buffer is per-connection state.
struct Router::PooledConn {
  int fd;
  serve::LineReader reader;

  explicit PooledConn(int fd) : fd(fd), reader(fd) {}
  ~PooledConn() { ::close(fd); }
  PooledConn(const PooledConn&) = delete;
  PooledConn& operator=(const PooledConn&) = delete;
};

/// First-response-wins rendezvous between a request's forwarding attempts
/// (the request id is the rendezvous identity — a late duplicate from the
/// hedged loser is counted and dropped here). A failure only resolves the
/// wait once every launched attempt has failed, so a fast transport error
/// on the primary never masks a hedge that is about to succeed.
struct Router::Rendezvous {
  std::mutex mutex;
  std::condition_variable cv;
  int launched = 0;
  int failed = 0;
  bool have_success = false;
  bool hedge_won = false;
  size_t winner = 0;
  std::string response;
  Status first_error = Status::Ok();

  void AddAttempt() {
    std::lock_guard<std::mutex> lock(mutex);
    ++launched;
  }

  /// Returns false when the delivery lost the race (duplicate).
  bool Deliver(size_t replica, bool is_hedge, StatusOr<std::string> result) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!result.ok()) {
      ++failed;
      if (first_error.ok()) first_error = result.status();
      if (failed == launched && !have_success) cv.notify_all();
      return true;  // a losing failure is not a duplicate response
    }
    if (have_success) return false;
    have_success = true;
    hedge_won = is_hedge;
    winner = replica;
    response = std::move(result).value();
    cv.notify_all();
    return true;
  }

  /// True when resolved: a success landed, or every attempt failed.
  bool WaitFor(double timeout_ms) {
    std::unique_lock<std::mutex> lock(mutex);
    const auto pred = [this] {
      return have_success || (launched > 0 && failed == launched);
    };
    if (timeout_ms <= 0.0) return pred();
    cv.wait_for(lock, std::chrono::duration<double, std::milli>(timeout_ms),
                pred);
    return pred();
  }
};

Router::Router(std::vector<ReplicaSpec> replicas, RouterOptions options)
    : replicas_(std::move(replicas)),
      options_(options),
      rng_(options.random_seed),
      pool_mutexes_(replicas_.size()),
      pools_(replicas_.size()) {
  TELEKIT_CHECK(!replicas_.empty());
  std::vector<std::string> names;
  names.reserve(replicas_.size());
  for (const ReplicaSpec& spec : replicas_) names.push_back(spec.name);
  ring_ = std::make_unique<HashRing>(std::move(names), options_.vnodes);
  HealthProber::ProbeFn probe = options_.probe_override;
  if (!probe) {
    probe = [this](size_t replica, double timeout_ms) {
      const ReplicaSpec& spec = replicas_[replica];
      if (spec.admin_port > 0) {
        auto result =
            HttpGet(spec.host, spec.admin_port, "/readyz", timeout_ms);
        return result.ok() && result.value().status == 200;
      }
      // No admin plane: a successful data-plane connect counts as ready.
      const int fd = serve::ConnectTcp(spec.host, spec.port, timeout_ms);
      if (fd < 0) return false;
      ::close(fd);
      return true;
    };
  }
  prober_ = std::make_unique<HealthProber>(replicas_.size(), options_.prober,
                                           std::move(probe));
}

Router::~Router() { Stop(); }

void Router::Start() { prober_->Start(); }

void Router::Stop() {
  prober_->Stop();
  const auto done = [this] { return outstanding_ == 0; };
  std::unique_lock<std::mutex> lock(outstanding_mutex_);
  if (!outstanding_cv_.wait_for(lock, std::chrono::seconds(10), done)) {
    TELEKIT_LOG(ERROR) << "router stop still waiting for attempts"
                       << obs::F("outstanding", outstanding_);
    // Wait unconditionally: attempt threads touch pools_/prober_/replicas_,
    // so returning early would let ~Router free them under a live thread.
    // Every attempt is bounded (connect timeout + SO_RCVTIMEO/SO_SNDTIMEO),
    // so this terminates.
    outstanding_cv_.wait(lock, done);
  }
}

std::unique_ptr<Router::PooledConn> Router::CheckoutConn(size_t replica,
                                                         double timeout_ms) {
  {
    std::lock_guard<std::mutex> lock(pool_mutexes_[replica]);
    if (!pools_[replica].empty()) {
      auto conn = std::move(pools_[replica].back());
      pools_[replica].pop_back();
      return conn;
    }
  }
  const ReplicaSpec& spec = replicas_[replica];
  const int fd = serve::ConnectTcp(spec.host, spec.port, timeout_ms);
  if (fd < 0) return nullptr;
  return std::make_unique<PooledConn>(fd);
}

void Router::ReturnConn(size_t replica,
                        std::unique_ptr<PooledConn> conn) {
  std::lock_guard<std::mutex> lock(pool_mutexes_[replica]);
  if (pools_[replica].size() < 64) {
    pools_[replica].push_back(std::move(conn));
  }
  // else: drop on the floor; the destructor closes the socket.
}

StatusOr<std::string> Router::ForwardOnce(size_t replica,
                                          const std::string& line,
                                          double timeout_ms,
                                          bool budget_bound) {
  const auto start = Clock::now();
  auto conn = CheckoutConn(replica, timeout_ms);
  if (conn == nullptr) {
    prober_->ReportFailure(replica);
    return Status::Unavailable("connect to " + replicas_[replica].name +
                               " failed");
  }
  SetIoTimeout(conn->fd, timeout_ms);
  std::string response;
  if (!serve::SendLine(conn->fd, line) ||
      !conn->reader.ReadLine(&response)) {
    // conn is dropped (closed) — its stream state is unknown. A timeout on
    // a leg capped by the request budget is the budget running out, not
    // the replica failing (errno is still the failed send/recv's).
    if (budget_bound && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::DeadlineExceeded("request budget exhausted");
    }
    prober_->ReportFailure(replica);
    return Status::Unavailable("exchange with " + replicas_[replica].name +
                               " failed");
  }
  prober_->ReportSuccess(replica);
  RouteMetrics::Get().upstream_ms->Observe(
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count());
  ReturnConn(replica, std::move(conn));
  return response;
}

void Router::LaunchAttempt(size_t replica, const std::string& line,
                           double timeout_ms,
                           std::shared_ptr<Rendezvous> rendezvous,
                           AttemptContext ctx) {
  rendezvous->AddAttempt();
  const bool is_hedge = [&] {
    std::lock_guard<std::mutex> lock(rendezvous->mutex);
    return rendezvous->launched > 1;
  }();
  {
    std::lock_guard<std::mutex> lock(outstanding_mutex_);
    ++outstanding_;
  }
  std::thread([this, replica, line, timeout_ms, is_hedge, ctx,
               rendezvous = std::move(rendezvous)] {
    const double span_start_us = obs::UnixNowUs();
    const auto attempt_start = Clock::now();
    StatusOr<std::string> result =
        ForwardOnce(replica, line, timeout_ms, ctx.budget_bound);
    const bool was_success = result.ok();
    // An upstream UNAVAILABLE rejection is a failed hop in the trace even
    // though the rendezvous treats it as a deliverable response (Handle
    // owns the retry decision).
    const bool retryable = was_success && IsRetryableResponse(result.value());
    const bool delivered =
        rendezvous->Deliver(replica, is_hedge, std::move(result));
    if (!delivered && was_success) {
      RouteMetrics::Get().hedge_discarded->Increment();
    }
    if (ctx.span_id != 0) {
      obs::SpanRecord span;
      span.trace_id = ctx.trace_id;
      span.span_id = ctx.span_id;
      span.parent_span = ctx.parent_span;
      span.name = "route/attempt";
      span.replica = replicas_[replica].name;
      span.attempt = ctx.attempt;
      span.hedge = is_hedge;
      span.ok = was_success && !retryable;
      span.outcome = !span.ok ? "failed" : (delivered ? "won" : "lost");
      span.start_unix_us = span_start_us;
      span.dur_us = static_cast<uint64_t>(
          std::chrono::duration<double, std::micro>(Clock::now() -
                                                    attempt_start)
              .count());
      obs::SpanStore::Global().Record(std::move(span));
    }
    {
      // Notify while holding the lock: Stop() may destroy the cv as soon as
      // its predicate holds, and an unlocked notify could still be running.
      std::lock_guard<std::mutex> lock(outstanding_mutex_);
      --outstanding_;
      outstanding_cv_.notify_all();
    }
  }).detach();
}

std::vector<size_t> Router::PlanAttempts(const std::string& key) {
  std::vector<size_t> order;
  if (options_.policy == RoutePolicy::kHashRing) {
    order = ring_->WalkOrder(key);
  } else {
    order.resize(replicas_.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::lock_guard<std::mutex> lock(rng_mutex_);
    std::shuffle(order.begin(), order.end(), rng_);
  }
  std::vector<size_t> plan;
  plan.reserve(order.size());
  for (size_t replica : order) {
    if (prober_->IsRoutable(replica)) plan.push_back(replica);
  }
  return plan;
}

double Router::HedgeDelayMs() const {
  if (options_.hedge_delay_ms > 0.0) return options_.hedge_delay_ms;
  const obs::Histogram* histogram =
      obs::MetricsRegistry::Global().FindHistogram("route/upstream_ms");
  if (histogram != nullptr &&
      histogram->count() >= options_.hedge_min_samples) {
    return std::max(options_.hedge_min_ms,
                    histogram->Quantile(options_.hedge_quantile));
  }
  // Cold start: no tail to measure yet.
  return std::max(options_.hedge_min_ms, options_.per_try_ms / 4.0);
}

std::string Router::Handle(const std::string& line) {
  auto& metrics = RouteMetrics::Get();
  metrics.requests->Increment();
  const auto start = Clock::now();
  const double start_unix_us = obs::UnixNowUs();

  // Peek into the request for the routing key and correlation fields; a
  // line the router cannot parse is still forwarded (the replica renders
  // the protocol error).
  std::string key = line;
  std::unique_ptr<obs::JsonValue> id;
  uint64_t trace_id = 0;
  double budget_ms = options_.default_deadline_ms;
  std::string op = "encode";  // the serve-side default
  obs::JsonValue request_json;
  bool have_json = false;
  {
    std::string parse_error;
    if (obs::JsonValue::Parse(line, &request_json, &parse_error) &&
        request_json.is_object()) {
      have_json = true;
      if (const obs::JsonValue* text = request_json.Find("text");
          text != nullptr && text->is_string()) {
        key = text->AsString();
      }
      if (const obs::JsonValue* found = request_json.Find("id")) {
        id = std::make_unique<obs::JsonValue>(*found);
      }
      if (const obs::JsonValue* trace = request_json.Find("trace");
          trace != nullptr && trace->is_string()) {
        obs::ParseTraceIdHex(trace->AsString(), &trace_id);
      }
      if (const obs::JsonValue* found = request_json.Find("op");
          found != nullptr && found->is_string()) {
        op = found->AsString();
      }
      if (const obs::JsonValue* deadline = request_json.Find("deadline_ms");
          deadline != nullptr && deadline->is_number() &&
          deadline->AsNumber() > 0.0) {
        budget_ms = deadline->AsNumber();
      }
    }
  }
  // The router is the trace root for requests that arrive untraced: every
  // parseable request gets an id (stamped into the forwarded line), so any
  // routed request can be explained via /tracezd after the fact. Error
  // replies on every router-side path carry the same id.
  if (have_json && trace_id == 0) trace_id = obs::NextTraceId();
  const bool tracing = have_json && obs::SpanStore::Global().enabled();
  const uint64_t root_span = tracing ? obs::NextTraceId() : 0;
  // Clamped so the conversion cannot overflow: a larger deadline_ms is
  // still forwarded, and the replica rejects it as INVALID_ARGUMENT.
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      std::min(budget_ms, serve::kMaxDeadlineMs)));

  const std::vector<size_t> plan = PlanAttempts(key);
  Status final_status = Status::Unavailable("no healthy replicas");
  std::string response;
  bool have_response = false;
  bool hedged = false;
  bool hedge_won = false;
  size_t winner = 0;
  int attempts = 0;

  // Each leg forwards its own copy of the line, stamped with the shared
  // trace id and that leg's attempt span as `parent_span` — the replica's
  // serve spans then attach to the exact retry/hedge hop that ran them.
  const auto launch = [&](size_t replica,
                          const std::shared_ptr<Rendezvous>& rendezvous) {
    ++attempts;
    const double remaining = RemainingMs(deadline);
    AttemptContext ctx;
    ctx.budget_bound = remaining <= options_.per_try_ms;
    ctx.trace_id = trace_id;
    ctx.parent_span = root_span;
    ctx.attempt = attempts;
    std::string forwarded = line;
    if (have_json) {
      obs::JsonValue stamped = request_json;
      stamped.Set("trace", obs::JsonValue(obs::TraceIdToHex(trace_id)));
      if (tracing) {
        ctx.span_id = obs::NextTraceId();
        stamped.Set("parent_span",
                    obs::JsonValue(obs::TraceIdToHex(ctx.span_id)));
      }
      forwarded = stamped.Dump();
    }
    LaunchAttempt(replica, forwarded, std::min(options_.per_try_ms, remaining),
                  rendezvous, ctx);
  };

  if (plan.empty()) metrics.no_healthy->Increment();
  for (size_t pos = 0; pos < plan.size() && attempts < options_.max_attempts;
       ++pos) {
    if (RemainingMs(deadline) <= 0.0) break;
    if (pos > 0) metrics.retries->Increment();
    auto rendezvous = std::make_shared<Rendezvous>();
    launch(plan[pos], rendezvous);
    // Tail hedge: first attempt only, and only when there is somewhere
    // else to send it.
    if (pos == 0 && options_.hedge && plan.size() > 1 &&
        attempts < options_.max_attempts) {
      const double trigger =
          std::min(HedgeDelayMs(), RemainingMs(deadline));
      if (!rendezvous->WaitFor(trigger)) {
        if (RemainingMs(deadline) > 0.0) {
          metrics.hedges->Increment();
          hedged = true;
          launch(plan[1], rendezvous);
          ++pos;  // the hedge consumed plan[1]; retries move past it
        }
      }
    }
    if (!rendezvous->WaitFor(RemainingMs(deadline))) break;
    std::lock_guard<std::mutex> lock(rendezvous->mutex);
    if (rendezvous->have_success) {
      if (IsRetryableResponse(rendezvous->response)) {
        metrics.upstream_errors->Increment();
        final_status = Status::Unavailable("upstream unavailable");
        continue;  // next replica in the plan
      }
      response = rendezvous->response;
      winner = rendezvous->winner;
      if (rendezvous->hedge_won) {
        hedge_won = true;
        metrics.hedge_wins->Increment();
      }
      have_response = true;
      break;
    }
    final_status = rendezvous->first_error;
    if (final_status.code() == StatusCode::kDeadlineExceeded) break;
  }
  // No response once the budget is spent is a deadline miss, whatever
  // the last leg reported; a leg that failed with budget left keeps its
  // transport error.
  if (!have_response &&
      (RemainingMs(deadline) <= 0.0 ||
       final_status.code() == StatusCode::kDeadlineExceeded)) {
    final_status = Status::DeadlineExceeded("request budget exhausted");
    metrics.deadline_exceeded->Increment();
  }

  const double total_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  metrics.request_ms->Observe(total_ms);
  if (root_span != 0) {
    obs::SpanRecord span;
    span.trace_id = trace_id;
    span.span_id = root_span;
    span.name = "route/request";
    if (have_response) span.replica = replicas_[winner].name;
    span.ok = have_response;
    span.outcome = have_response ? "ok" : "failed";
    span.start_unix_us = start_unix_us;
    span.dur_us = static_cast<uint64_t>(total_ms * 1000.0);
    obs::SpanStore::Global().Record(std::move(span));
  }
  if (have_json) {
    // The router's own wide event: the routing story (which replica won,
    // how many legs ran, how the hedge fared) under the shared trace id.
    obs::WideEvent event;
    event.trace_id = trace_id;
    event.op = op;
    event.total_us = static_cast<uint64_t>(total_ms * 1000.0);
    event.ok = have_response;
    event.status = have_response ? "ok" : final_status.message();
    if (have_response) event.replica = replicas_[winner].name;
    event.attempts = attempts;
    event.hedge = hedged ? (hedge_won ? "won" : "lost") : "";
    obs::RequestLog::Global().Record(std::move(event));
  }
  if (!have_response) {
    return serve::ErrorToJson(final_status, id.get(), trace_id).Dump();
  }
  // Stamp the routing story onto the reply.
  obs::JsonValue json;
  std::string parse_error;
  if (obs::JsonValue::Parse(response, &json, &parse_error) &&
      json.is_object()) {
    obs::JsonValue routed = obs::JsonValue::Object();
    routed.Set("replica", obs::JsonValue(replicas_[winner].name));
    routed.Set("attempts", obs::JsonValue(attempts));
    routed.Set("hedged", obs::JsonValue(hedged));
    json.Set("routed", std::move(routed));
    return json.Dump();
  }
  return response;
}

obs::JsonValue Router::ReloadAll(const std::string& model, uint64_t seed,
                                 double timeout_ms) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("model", obs::JsonValue(model));
  out.Set("seed", obs::JsonValue(seed));
  // The model name is spliced into a query string fanned out to every
  // replica: only known wire names pass (anything else — '&', spaces,
  // control bytes — would produce malformed admin requests fleet-wide).
  core::ModelKind kind;
  if (!serve::ParseServeModel(model, &kind)) {
    out.Set("error", obs::JsonValue("unknown model: " + model));
    out.Set("replicas", obs::JsonValue::Array());
    return out;
  }
  obs::JsonValue results = obs::JsonValue::Array();
  const std::string target =
      "/reloadz?model=" + model + "&seed=" + std::to_string(seed);
  for (const ReplicaSpec& spec : replicas_) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("replica", obs::JsonValue(spec.name));
    if (spec.admin_port <= 0) {
      entry.Set("error", obs::JsonValue("no admin port"));
      results.Append(std::move(entry));
      continue;
    }
    auto result = HttpGet(spec.host, spec.admin_port, target, timeout_ms);
    if (!result.ok()) {
      entry.Set("error", obs::JsonValue(result.status().ToString()));
    } else {
      entry.Set("status", obs::JsonValue(result.value().status));
    }
    results.Append(std::move(entry));
  }
  out.Set("replicas", std::move(results));
  return out;
}

obs::JsonValue Router::FleetJson() const {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("policy", obs::JsonValue(options_.policy == RoutePolicy::kHashRing
                                       ? "hash_ring"
                                       : "random"));
  out.Set("vnodes", obs::JsonValue(options_.vnodes));
  out.Set("hedge", obs::JsonValue(options_.hedge));
  out.Set("max_attempts", obs::JsonValue(options_.max_attempts));
  out.Set("routable",
          obs::JsonValue(static_cast<uint64_t>(prober_->num_routable())));
  out.Set("ejections", obs::JsonValue(prober_->ejections()));
  out.Set("readmissions", obs::JsonValue(prober_->readmissions()));
  const obs::JsonValue health = prober_->StatusJson();
  obs::JsonValue replicas = obs::JsonValue::Array();
  for (size_t i = 0; i < replicas_.size(); ++i) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("name", obs::JsonValue(replicas_[i].name));
    entry.Set("host", obs::JsonValue(replicas_[i].host));
    entry.Set("port", obs::JsonValue(replicas_[i].port));
    entry.Set("admin_port", obs::JsonValue(replicas_[i].admin_port));
    if (i < health.size()) {
      // Merge the prober's whole view (health, consecutive_failures,
      // probes, probe_failures, last_probe_ms, last_probe_ok) so an
      // eject decision is explainable from /fleetz alone.
      for (const auto& [field, value] : health.at(i).members()) {
        if (field == "replica") continue;  // index; `name` identifies it
        entry.Set(field, value);
      }
    }
    replicas.Append(std::move(entry));
  }
  out.Set("replicas", std::move(replicas));
  return out;
}

}  // namespace route
}  // namespace telekit
