#include "obs/admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/log.h"
#include "obs/requestlog.h"
#include "obs/spanstore.h"
#include "obs/trace.h"

namespace telekit {
namespace obs {

namespace {

using Clock = std::chrono::steady_clock;

/// One connection's time for reading its request and writing its reply.
/// The router's prober ejects a replica after 3 failed /readyz probes,
/// each with a 500 ms timeout and 250 ms apart; a stall of at most 1 s
/// fails at most one of them.
constexpr std::chrono::milliseconds kConnectionIoBudget{1000};

/// Waits until `fd` has `events` ready; false once `deadline` passes or
/// poll fails.
bool WaitReady(int fd, short events, Clock::time_point deadline) {
  while (true) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (rc > 0) return true;
    if (rc == 0 || errno != EINTR) return false;
  }
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

/// "serve/queue_ms" -> "telekit_serve_queue_ms"; anything outside
/// [a-zA-Z0-9_:] becomes '_' per the Prometheus data model.
std::string PrometheusName(const std::string& name) {
  std::string out = "telekit_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Exposition-format number: integers print without a fraction, non-finite
/// values use the +Inf/-Inf/NaN spellings the format defines.
std::string PrometheusNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void AppendHelpType(std::string* out, const std::string& prom_name,
                    const std::string& raw_name, const char* type) {
  *out += "# HELP " + prom_name + " TeleKit metric " + raw_name + "\n";
  *out += "# TYPE " + prom_name + " " + type + "\n";
}

/// The snapshot JSON already carries per-bucket (non-cumulative) counts
/// with `le` bounds in order, so the renderer only has to accumulate and
/// terminate with +Inf. Each bucket line additionally carries the bucket's
/// latest exemplar, when one was recorded — ` # {trace_id="..."} value
/// timestamp` — linking a scrape straight to a /requestz wide event.
void AppendHistogram(std::string* out, const std::string& prom_name,
                     const std::string& raw_name, const JsonValue& histogram) {
  uint64_t cumulative = 0;
  if (const JsonValue* buckets = histogram.Find("buckets")) {
    for (size_t i = 0; i < buckets->size(); ++i) {
      const JsonValue& bucket = buckets->at(i);
      const double le = bucket.Find("le")->AsNumber();
      cumulative +=
          static_cast<uint64_t>(bucket.Find("count")->AsNumber());
      *out += prom_name + "_bucket{le=\"" + PrometheusNumber(le) + "\"} " +
              std::to_string(cumulative);
      ExemplarStore::Exemplar exemplar;
      if (ExemplarStore::Global().Find(raw_name, le, &exemplar)) {
        *out += " # {trace_id=\"" + TraceIdToHex(exemplar.trace_id) + "\"} " +
                PrometheusNumber(exemplar.value_ms) + " " +
                PrometheusNumber(exemplar.unix_s);
      }
      *out += "\n";
    }
  }
  const double count = histogram.Find("count")->AsNumber();
  *out += prom_name + "_bucket{le=\"+Inf\"} " +
          PrometheusNumber(count) + "\n";
  *out += prom_name + "_sum " +
          PrometheusNumber(histogram.Find("sum")->AsNumber()) + "\n";
  *out += prom_name + "_count " + PrometheusNumber(count) + "\n";
}

}  // namespace

HttpResponse HttpResponse::Text(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

HttpResponse HttpResponse::Json(int status, const JsonValue& value) {
  HttpResponse response;
  response.status = status;
  // charset matches the text/plain responses so every endpoint advertises
  // its encoding the same way.
  response.content_type = "application/json; charset=utf-8";
  response.body = value.Dump(2);
  response.body.push_back('\n');
  return response;
}

std::map<std::string, std::string> ParseQuery(const std::string& query) {
  std::map<std::string, std::string> out;
  size_t start = 0;
  while (start <= query.size()) {
    size_t end = query.find('&', start);
    if (end == std::string::npos) end = query.size();
    if (end > start) {
      const std::string pair = query.substr(start, end - start);
      const size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        out[pair] = "";
      } else {
        out[pair.substr(0, eq)] = pair.substr(eq + 1);
      }
    }
    start = end + 1;
  }
  return out;
}

std::string RenderPrometheus(const MetricsRegistry& registry) {
  // Rendering from the JSON snapshot keeps one source of truth for what a
  // metric exports and costs one extra tree walk per scrape.
  const JsonValue snapshot = registry.Snapshot();
  std::string out;
  for (const auto& [name, value] : snapshot.Find("counters")->members()) {
    const std::string prom = PrometheusName(name);
    AppendHelpType(&out, prom, name, "counter");
    out += prom + " " + PrometheusNumber(value.AsNumber()) + "\n";
  }
  for (const auto& [name, value] : snapshot.Find("gauges")->members()) {
    const std::string prom = PrometheusName(name);
    AppendHelpType(&out, prom, name, "gauge");
    out += prom + " " + PrometheusNumber(value.AsNumber()) + "\n";
  }
  for (const auto& [name, value] : snapshot.Find("histograms")->members()) {
    const std::string prom = PrometheusName(name);
    AppendHelpType(&out, prom, name, "histogram");
    AppendHistogram(&out, prom, name, value);
  }
  return out;
}

AdminServer::AdminServer() {
  Handle("/healthz", [](const HttpRequest&) {
    return HttpResponse::Text(200, "ok\n");
  });
  Handle("/metrics", [](const HttpRequest&) {
    HttpResponse response =
        HttpResponse::Text(200, RenderPrometheus(MetricsRegistry::Global()));
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return response;
  });
  Handle("/requestz", [](const HttpRequest& request) {
    return RequestLog::Global().HandleQuery(request);
  });
  Handle("/tracez", [](const HttpRequest& request) {
    return RequestLog::Global().HandleTraceQuery(request);
  });
  // Distributed-trace spans: every daemon answers /spanz?trace_id= so the
  // router's /tracezd assembler can fan out and merge the hops.
  Handle("/spanz", [](const HttpRequest& request) {
    return SpanStore::Global().HandleQuery(request);
  });
  // GET /loglevelz reads the live level; ?set=<level> changes it and
  // reports what it replaced. The logger's level is one atomic, so the
  // set races cleanly with concurrent TELEKIT_LOG emission.
  Handle("/loglevelz", [](const HttpRequest& request) {
    const std::map<std::string, std::string> params =
        ParseQuery(request.query);
    JsonValue out = JsonValue::Object();
    const auto set = params.find("set");
    if (set != params.end()) {
      LogLevel level;
      if (!TryParseLogLevel(set->second, &level)) {
        JsonValue error = JsonValue::Object();
        error.Set("error", JsonValue("unknown level: " + set->second +
                                     " (want debug|info|warn|error|off)"));
        return HttpResponse::Json(400, error);
      }
      const LogLevel previous = Logger::Global().level();
      Logger::Global().set_level(level);
      out.Set("previous", JsonValue(LogLevelName(previous)));
    }
    out.Set("level", JsonValue(LogLevelName(Logger::Global().level())));
    return HttpResponse::Json(200, out);
  });
}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Handle(const std::string& path, HttpHandler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  handlers_[path] = std::move(handler);
}

bool AdminServer::Start(int port) {
  if (running_.load()) {
    TELEKIT_LOG(ERROR) << "admin server already running"
                       << F("port", port_.load());
    return false;
  }
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    TELEKIT_LOG(ERROR) << "admin socket()" << F("errno", std::strerror(errno));
    return false;
  }
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 64) < 0) {
    TELEKIT_LOG(ERROR) << "admin bind/listen" << F("port", port)
                       << F("errno", std::strerror(errno));
    ::close(listener);
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  listener_ = listener;
  port_.store(static_cast<int>(ntohs(addr.sin_port)));
  running_.store(true);
  thread_ = std::thread([this] { AcceptLoop(); });
  TELEKIT_LOG(INFO) << "admin server listening"
                    << F("addr", "127.0.0.1:" + std::to_string(port_.load()));
  return true;
}

void AdminServer::Stop() {
  if (!running_.exchange(false)) return;
  // shutdown() (not close()) wakes the blocking accept() reliably; the fd
  // is only closed after the accept thread has exited.
  ::shutdown(listener_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listener_);
  listener_ = -1;
  port_.store(0);
}

void AdminServer::AcceptLoop() {
  while (running_.load()) {
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) {
      if (running_.load() && (errno == EINTR || errno == ECONNABORTED)) {
        continue;
      }
      return;  // listener shut down
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void AdminServer::ServeConnection(int fd) {
  // The loop is serial, so a client that sends its request or reads the
  // reply slowly would hold every other caller, /readyz probes included.
  // Reading and writing share one deadline counted from accept; the
  // handler's own time is added to it, since that is not the client's.
  auto deadline = Clock::now() + kConnectionIoBudget;
  std::string raw;
  char buffer[2048];
  while (raw.find("\r\n") == std::string::npos && raw.size() < 16384) {
    if (!WaitReady(fd, POLLIN, deadline)) break;
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) break;
    if (n > 0) raw.append(buffer, static_cast<size_t>(n));
  }
  const Clock::time_point handler_start = Clock::now();

  HttpResponse response;
  HttpRequest request;
  const size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) {
    response = HttpResponse::Text(400, "malformed request\n");
  } else {
    const std::string line = raw.substr(0, line_end);
    const size_t method_end = line.find(' ');
    const size_t target_end =
        method_end == std::string::npos ? std::string::npos
                                        : line.find(' ', method_end + 1);
    if (target_end == std::string::npos) {
      response = HttpResponse::Text(400, "malformed request line\n");
    } else {
      request.method = line.substr(0, method_end);
      std::string target =
          line.substr(method_end + 1, target_end - method_end - 1);
      const size_t query = target.find('?');
      if (query != std::string::npos) {
        request.query = target.substr(query + 1);
        target.resize(query);
      }
      request.path = std::move(target);
      if (request.method != "GET" && request.method != "HEAD") {
        response = HttpResponse::Text(405, "only GET is supported\n");
      } else {
        response = Dispatch(request);
      }
    }
  }

  std::string wire = "HTTP/1.0 " + std::to_string(response.status) + " " +
                     StatusText(response.status) + "\r\n";
  wire += "Content-Type: " + response.content_type + "\r\n";
  wire += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  wire += "Connection: close\r\n\r\n";
  if (request.method != "HEAD") wire += response.body;
  deadline += Clock::now() - handler_start;
  size_t sent = 0;
  while (sent < wire.size() && WaitReady(fd, POLLOUT, deadline)) {
    const ssize_t w = ::send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w < 0 && errno != EAGAIN && errno != EINTR) break;
    if (w > 0) sent += static_cast<size_t>(w);
  }
}

HttpResponse AdminServer::Dispatch(const HttpRequest& request) {
  HttpHandler handler;
  std::vector<std::string> known;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = handlers_.find(request.path);
    if (it != handlers_.end()) {
      handler = it->second;  // copy: run outside the lock
    } else {
      for (const auto& [path, unused] : handlers_) known.push_back(path);
    }
  }
  if (handler) return handler(request);
  if (request.path == "/") {
    std::string body = "telekit admin endpoints:\n";
    for (const std::string& path : known) body += "  " + path + "\n";
    return HttpResponse::Text(200, std::move(body));
  }
  std::string body = "no handler for " + request.path + "; try:\n";
  for (const std::string& path : known) body += "  " + path + "\n";
  return HttpResponse::Text(404, std::move(body));
}

}  // namespace obs
}  // namespace telekit
