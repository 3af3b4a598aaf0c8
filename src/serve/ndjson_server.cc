#include "serve/ndjson_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <deque>
#include <utility>

#include "obs/log.h"
#include "obs/trace.h"
#include "serve/protocol.h"

namespace telekit {
namespace serve {

LineHandler MakeServeLineHandler(ModelHost* host,
                                 const std::atomic<bool>* draining) {
  TELEKIT_CHECK(host != nullptr);
  return [host, draining](std::string line) -> std::future<std::string> {
    // Everything up to Submit happens on the reader thread; the returned
    // deferred future renders (and blocks on the engine) in the writer.
    obs::JsonValue json;
    std::string parse_error;
    auto id = std::unique_ptr<obs::JsonValue>();
    uint64_t salvaged_trace = 0;
    Request request;
    Status status;
    if (!obs::JsonValue::Parse(line, &json, &parse_error)) {
      status = Status::InvalidArgument("bad JSON: " + parse_error);
    } else {
      if (const obs::JsonValue* found = json.Find("id")) {
        id = std::make_unique<obs::JsonValue>(*found);
      }
      // Salvaged before validation: a reply to a malformed request must
      // still echo the caller's correlation fields.
      if (const obs::JsonValue* trace = json.Find("trace")) {
        if (trace->is_string()) {
          obs::ParseTraceIdHex(trace->AsString(), &salvaged_trace);
        }
      }
      status = ParseRequest(json, &request);
    }
    if (status.ok() && draining != nullptr && draining->load()) {
      status = Status::Unavailable("draining");
    }
    ModelHost::BundlePtr bundle;
    if (status.ok()) {
      bundle = host->Resolve(request.model);
      if (bundle == nullptr) {
        status = Status::NotFound("unknown model: " + request.model);
      }
    }
    if (!status.ok()) {
      const uint64_t trace_id =
          request.trace_id != 0 ? request.trace_id : salvaged_trace;
      std::string rendered =
          ErrorToJson(status, id.get(), trace_id).Dump();
      std::promise<std::string> ready;
      ready.set_value(std::move(rendered));
      return ready.get_future();
    }
    std::future<Response> response = bundle->engine->Submit(request);
    // Deferred: the writer thread performs the blocking get() + render.
    // The lambda holds `bundle`, so a hot-reload swap cannot destroy the
    // engine while this request is in flight.
    return std::async(
        std::launch::deferred,
        [request = std::move(request), bundle = std::move(bundle),
         id = std::shared_ptr<obs::JsonValue>(std::move(id)),
         response = std::move(response)]() mutable -> std::string {
          obs::JsonValue out =
              ResponseToJson(request, response.get(), id.get());
          out.Set("model", obs::JsonValue(bundle->model));
          out.Set("generation", obs::JsonValue(bundle->generation));
          return out.Dump();
        });
  };
}

void ServeNdjsonSession(const LineHandler& handler, LineReader& reader,
                        const std::function<bool(const std::string&)>& write,
                        std::atomic<int64_t>* in_flight) {
  std::deque<std::future<std::string>> pending;
  std::mutex mutex;
  std::condition_variable cv;
  bool reader_done = false;
  bool write_failed = false;

  std::thread writer([&] {
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      cv.wait(lock, [&] { return reader_done || !pending.empty(); });
      if (pending.empty()) return;  // reader done and queue drained
      std::future<std::string> next = std::move(pending.front());
      pending.pop_front();
      lock.unlock();
      // get() blocks outside the lock so the reader keeps enqueueing lines
      // and one client's requests still run on several workers. After a
      // write failure responses are still harvested (the engine fulfils
      // them regardless) but not sent.
      std::string rendered = next.get();
      bool sent = false;
      if (!write_failed) sent = write(rendered);
      lock.lock();
      if (!sent) write_failed = true;
      if (in_flight != nullptr) {
        in_flight->fetch_sub(1, std::memory_order_relaxed);
      }
    }
  });

  std::string line;
  while (reader.ReadLine(&line)) {
    if (line.empty()) continue;
    if (in_flight != nullptr) {
      in_flight->fetch_add(1, std::memory_order_relaxed);
    }
    std::future<std::string> future = handler(std::move(line));
    {
      std::lock_guard<std::mutex> lock(mutex);
      pending.push_back(std::move(future));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    reader_done = true;
  }
  cv.notify_one();
  writer.join();
}

void ServeNdjsonStdio(const LineHandler& handler, std::istream& in,
                      std::ostream& out) {
  LineReader reader([&in](char* buffer, size_t n) -> long {
    in.read(buffer, static_cast<std::streamsize>(n));
    const std::streamsize got = in.gcount();
    return got > 0 ? static_cast<long>(got) : 0;
  });
  std::mutex out_mutex;
  ServeNdjsonSession(handler, reader, [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(out_mutex);
    out << line << "\n";
    out.flush();
    return static_cast<bool>(out);
  });
}

NdjsonServer::NdjsonServer() = default;

NdjsonServer::~NdjsonServer() { Stop(); }

bool NdjsonServer::Start(int port, LineHandler handler) {
  if (running_.load()) return false;
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return false;
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listener, 64) < 0) {
    TELEKIT_LOG(ERROR) << "ndjson server bind failed"
                       << obs::F("port", port)
                       << obs::F("errno", std::strerror(errno));
    ::close(listener);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &len);
  handler_ = std::move(handler);
  listener_ = listener;
  port_.store(ntohs(bound.sin_port));
  stopping_.store(false);
  draining_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void NdjsonServer::AcceptLoop() {
  while (!stopping_.load()) {
    ReapFinished();
    // poll() bounds each wait so finished sessions are reaped even when no
    // new client connects. (A receive timeout on the listener would do the
    // same, but accepted sockets inherit it, and an idle client would then
    // be dropped after the timeout.)
    pollfd ready{listener_, POLLIN, 0};
    if (::poll(&ready, 1, /*timeout_ms=*/1000) <= 0) continue;  // or EINTR
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load() || draining_.load()) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    connection->thread = std::thread([this, raw] {
      LineReader reader(raw->fd);
      ServeNdjsonSession(
          handler_, reader,
          [raw](const std::string& line) { return SendLine(raw->fd, line); },
          &in_flight_);
      // Session over (client EOF or error): signal EOF to the client.
      // The fd itself is closed by the reaper (or Stop()) — closing here
      // would race their shutdown on a reused descriptor.
      ::shutdown(raw->fd, SHUT_RDWR);
      raw->done.store(true);
    });
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(std::move(connection));
  }
}

size_t NdjsonServer::tracked_connections() const {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  return connections_.size();
}

void NdjsonServer::ReapFinished() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join + close outside the lock; done sessions exit promptly.
  for (auto& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
    ::close(connection->fd);
  }
}

void NdjsonServer::Drain() {
  if (!running_.load() || draining_.exchange(true)) return;
  // Wake the accept loop; existing connections keep their sockets.
  ::shutdown(listener_, SHUT_RDWR);
}

void NdjsonServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  ::shutdown(listener_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listener_);
  listener_ = -1;
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    ::shutdown(connection->fd, SHUT_RDWR);
  }
  for (auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
    ::close(connection->fd);
  }
  port_.store(0);
  draining_.store(false);
}

}  // namespace serve
}  // namespace telekit
