#ifndef TELEKIT_SERVE_NDJSON_SERVER_H_
#define TELEKIT_SERVE_NDJSON_SERVER_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/line_io.h"
#include "serve/model_host.h"

namespace telekit {
namespace serve {

/// Answers one dispatched request line with its response line (no
/// trailing '\n'). Call it exactly once, from any thread.
using LineReply = std::function<void(std::string)>;

/// Dispatches one NDJSON request line. Handlers are called from connection
/// reader threads and must be thread-safe. A handler may call `reply`
/// before it returns or hand it on (the serve handler gives it to the
/// engine worker that runs the request); the thread that calls it writes
/// the reply when it is the connection's oldest unanswered line.
using LineHandler = std::function<void(std::string line, LineReply reply)>;

/// The telekit_serve request handler over a ModelHost: parses the line,
/// resolves the request's `model` field to a live bundle (holding the
/// bundle shared_ptr while it submits, so a hot-reload swap cannot destroy
/// the engine under Submit), submits to that bundle's engine, and the
/// engine worker renders the response with `model` + `generation`
/// attribution. While `*draining` is true every new request is rejected
/// UNAVAILABLE ("draining") — the /quitquitquit path. `draining` may be
/// null (never drains).
LineHandler MakeServeLineHandler(ModelHost* host,
                                 const std::atomic<bool>* draining);

/// Writes reply bytes to a client and returns how many of the `n` it took,
/// or -1 on error. With `block` false it must not wait: it takes what the
/// client accepts at once (0 when the client's buffer is full). With
/// `block` true it takes all `n`. A sink that cannot tell whether it would
/// wait (an ostream) takes all `n` either way.
using ReplySink = std::function<long(const char* data, size_t n, bool block)>;

/// Dispatched lines a connection may hold unwritten before its reader stops
/// reading, so a client that pipelines without reading stalls on TCP flow
/// control instead of growing the server's memory. The same number as
/// EngineOptions::queue_capacity's default.
inline constexpr size_t kMaxUnwrittenReplies = 1024;

/// One client session: reads lines with `reader` and dispatches each
/// through `handler`. Replies are written in request order. The thread
/// that answers the oldest unanswered line writes it, plus any later lines
/// already answered, with a non-blocking write. When the client cannot
/// take a whole batch, the session's writer thread finishes it with
/// blocking writes and keeps writing until it has caught up, so a client
/// that does not read never blocks the thread that answered it. While
/// kMaxUnwrittenReplies lines are dispatched but unwritten, the reader
/// dispatches and reads nothing more. Returns once every dispatched line
/// is written, or dropped after a write error. `in_flight` (optional)
/// counts dispatched lines not yet written or dropped.
void ServeNdjsonSession(const LineHandler& handler, LineReader& reader,
                        ReplySink write,
                        std::atomic<int64_t>* in_flight = nullptr);

/// Stdin/stdout convenience wrapper over ServeNdjsonSession.
void ServeNdjsonStdio(const LineHandler& handler, std::istream& in,
                      std::ostream& out);

/// Loopback NDJSON-over-TCP server: one thread per connection running
/// ServeNdjsonSession over the socket. Start/Drain/Stop are safe from any
/// thread.
///
/// Stop() is a *hard* stop: it shuts down the listener and every live
/// connection socket mid-stream (in-flight requests surface to peers as
/// connection errors), which is what the route bench uses to simulate a
/// SIGKILLed replica in-process. Drain() is the graceful half: stop
/// accepting, let existing sessions finish, reject new work via the
/// handler's draining flag.
class NdjsonServer {
 public:
  NdjsonServer();
  ~NdjsonServer();

  NdjsonServer(const NdjsonServer&) = delete;
  NdjsonServer& operator=(const NdjsonServer&) = delete;

  /// Binds 127.0.0.1:port (0 = ephemeral) and starts accepting. False when
  /// already running or the bind fails. May be called again after Stop().
  bool Start(int port, LineHandler handler);

  /// Stops accepting new connections; existing sessions continue.
  void Drain();

  /// Hard stop: closes the listener and all connection sockets, joins all
  /// session threads. Idempotent.
  void Stop();

  int port() const { return port_.load(); }
  bool running() const { return running_.load(); }
  bool draining() const { return draining_.load(); }
  /// Requests dispatched but whose replies are not yet written (or
  /// dropped with their connection), across all connections.
  int64_t in_flight() const { return in_flight_.load(); }
  /// Tracked connections (live sessions plus finished ones not yet
  /// reaped) — observability for the fd-leak regression test.
  size_t tracked_connections() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    /// Set by the session thread on exit; the accept loop reaps (joins +
    /// closes) done connections so a long-running server does not leak one
    /// fd + thread per finished client until Stop().
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  /// Joins and closes every connection whose session has finished.
  void ReapFinished();

  LineHandler handler_;
  int listener_ = -1;
  std::atomic<int> port_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> in_flight_{0};
  std::thread accept_thread_;
  mutable std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace serve
}  // namespace telekit

#endif  // TELEKIT_SERVE_NDJSON_SERVER_H_
