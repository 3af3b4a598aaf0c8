#ifndef TELEKIT_OBS_ADMIN_H_
#define TELEKIT_OBS_ADMIN_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "obs/json.h"
#include "obs/metrics.h"

namespace telekit {
namespace obs {

/// One parsed admin request. Only the request line is interpreted (HTTP
/// headers are read and discarded); `query` is the part after '?'.
struct HttpRequest {
  std::string method;
  std::string path;
  std::string query;
};

/// One admin reply. Helpers fill the content type for the two shapes the
/// endpoints use.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;

  static HttpResponse Text(int status, std::string body);
  static HttpResponse Json(int status, const JsonValue& value);
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// "a=1&b=two&c" -> {a: "1", b: "two", c: ""}. No URL-decoding — admin
/// parameters are metric names, hex ids, and numbers, none of which need
/// escaping. Later duplicates of a key win.
std::map<std::string, std::string> ParseQuery(const std::string& query);

/// Renders every metric in `registry` in Prometheus text exposition format
/// (version 0.0.4): '/'-separated names become '_'-separated with a
/// `telekit_` prefix, each metric carries # HELP / # TYPE lines, and
/// histograms export cumulative `_bucket{le=...}` series (sparse — only
/// boundaries with mass — but monotone and +Inf-terminated, each line with
/// its ExemplarStore exemplar when one exists) plus `_sum` / `_count`.
std::string RenderPrometheus(const MetricsRegistry& registry);

/// Minimal background HTTP/1.0 server for operational endpoints, bound to
/// 127.0.0.1. One accept thread handles connections serially (admin
/// responses are small and computed in microseconds); a client gets one
/// second, counted from accept, to send its request and read the reply,
/// and is dropped when it has not, so a stalled client cannot hold the
/// loop (and the /readyz probes behind it).
///
/// Built-in routes: /healthz (liveness), /metrics (Prometheus text from
/// MetricsRegistry::Global()), /requestz and /tracez (the wide-event
/// request log as JSON and as a Chrome trace), /spanz (distributed-trace
/// spans by trace id), /loglevelz, and an index at "/". Servers with more
/// state (readiness, status) register their own handlers via Handle() —
/// later registrations for the same path win, so defaults can be
/// overridden.
///
/// Thread-safety: Handle/Start/Stop are safe from any thread; handlers run
/// on the accept thread and must be thread-safe against the threads that
/// mutate the state they read.
class AdminServer {
 public:
  AdminServer();
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers (or replaces) the handler for an exact path.
  void Handle(const std::string& path, HttpHandler handler);

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port, see port()) and
  /// starts the accept thread. False (with an ERROR log) when the socket
  /// cannot be bound or the server is already running.
  bool Start(int port);

  /// Joins the accept thread and closes the listener. Idempotent; also
  /// called by the destructor.
  void Stop();

  /// The bound port (resolved when Start was given 0); 0 when not running.
  int port() const { return port_.load(); }
  bool running() const { return running_.load(); }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  HttpResponse Dispatch(const HttpRequest& request);

  mutable std::mutex mutex_;  // guards handlers_
  std::map<std::string, HttpHandler> handlers_;
  int listener_ = -1;
  std::atomic<int> port_{0};
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace obs
}  // namespace telekit

#endif  // TELEKIT_OBS_ADMIN_H_
