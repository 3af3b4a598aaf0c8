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
#include <optional>
#include <utility>

#include "obs/log.h"
#include "obs/trace.h"
#include "serve/protocol.h"

namespace telekit {
namespace serve {

LineHandler MakeServeLineHandler(ModelHost* host,
                                 const std::atomic<bool>* draining) {
  TELEKIT_CHECK(host != nullptr);
  return [host, draining](std::string line, LineReply reply) {
    obs::JsonValue json;
    std::string parse_error;
    std::optional<obs::JsonValue> id;
    uint64_t salvaged_trace = 0;
    Request request;
    Status status;
    if (!obs::JsonValue::Parse(line, &json, &parse_error)) {
      status = Status::InvalidArgument("bad JSON: " + parse_error);
    } else {
      if (const obs::JsonValue* found = json.Find("id")) id = *found;
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
      reply(ErrorToJson(status, id ? &*id : nullptr, trace_id).Dump());
      return;
    }
    // The worker that runs the request renders and sends the reply. The
    // callback holds no bundle: a swapped-out generation's engine answers
    // everything it admitted before its destructor returns, and a worker
    // must never drop the last reference to its own engine.
    Request submitted = request;
    bundle->engine->Submit(
        std::move(submitted),
        [request = std::move(request), id = std::move(id),
         model = bundle->model, generation = bundle->generation,
         reply = std::move(reply)](Response response) {
          obs::JsonValue out =
              ResponseToJson(request, response, id ? &*id : nullptr);
          out.Set("model", obs::JsonValue(model));
          out.Set("generation", obs::JsonValue(generation));
          reply(out.Dump());
        });
  };
}

namespace {

/// One session's reply order, shared by its reader, the threads that
/// answer its lines and its writer thread. Lines are numbered in dispatch
/// order; `answers_` holds lines first_ onward, each empty until answered,
/// and a line leaves it when a thread takes it for writing.
class Session {
 public:
  Session(ReplySink write, std::atomic<int64_t>* in_flight)
      : write_(std::move(write)), in_flight_(in_flight) {}

  /// Reader: numbers the next line, first blocking while
  /// kMaxUnwrittenReplies lines are unwritten.
  uint64_t Dispatch() {
    std::unique_lock<std::mutex> lock(mutex_);
    reader_cv_.wait(lock, [this] {
      return dispatched_ - written_ < kMaxUnwrittenReplies;
    });
    answers_.emplace_back();
    if (in_flight_ != nullptr) {
      in_flight_->fetch_add(1, std::memory_order_relaxed);
    }
    return dispatched_++;
  }

  /// Any thread: stores line `seq`'s reply. When no thread is writing and
  /// the oldest unwritten line is answered, this thread writes the
  /// answered lines at the head without blocking, and leaves what the
  /// client cannot take to the writer thread.
  void Answer(uint64_t seq, std::string reply) {
    std::unique_lock<std::mutex> lock(mutex_);
    TELEKIT_CHECK(seq >= first_ && seq - first_ < answers_.size() &&
                  !answers_[seq - first_].has_value())
        << "line " << seq << " answered twice";
    answers_[seq - first_] = std::move(reply);
    if (writing_) return;
    writing_ = true;
    std::string batch;
    while (const size_t lines = TakeAnswered(&batch)) {
      const bool dropped = write_failed_;
      lock.unlock();
      const long sent = dropped ? static_cast<long>(batch.size())
                                : write_(batch.data(), batch.size(),
                                         /*block=*/false);
      lock.lock();
      if (sent >= 0 && static_cast<size_t>(sent) < batch.size()) {
        // writing_ stays set: the writer thread owns the writes now.
        backlog_ = batch.substr(static_cast<size_t>(sent));
        backlog_lines_ = lines;
        writer_cv_.notify_one();
        return;
      }
      if (sent < 0) write_failed_ = true;
      MarkWritten(lines);
    }
    writing_ = false;
  }

  /// The writer thread: finishes each hand-off with blocking writes, then
  /// writes whatever was answered meanwhile until it has caught up.
  void WriterLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      writer_cv_.wait(lock, [this] { return !backlog_.empty() || closing_; });
      if (backlog_.empty()) return;
      std::string batch = std::move(backlog_);
      backlog_.clear();
      size_t lines = backlog_lines_;
      do {
        const bool dropped = write_failed_;
        lock.unlock();
        const bool ok =
            dropped || write_(batch.data(), batch.size(), /*block=*/true) ==
                           static_cast<long>(batch.size());
        lock.lock();
        if (!ok) write_failed_ = true;
        MarkWritten(lines);
      } while ((lines = TakeAnswered(&batch)) > 0);
      writing_ = false;
    }
  }

  /// Reader, at end of input: waits until every dispatched line is written
  /// or dropped, then lets the writer thread exit.
  void Finish() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      reader_cv_.wait(lock, [this] { return written_ == dispatched_; });
      closing_ = true;
    }
    writer_cv_.notify_one();
  }

 private:
  /// Moves the answered lines at the head into `batch`, '\n'-terminated;
  /// returns how many.
  size_t TakeAnswered(std::string* batch) {
    batch->clear();
    size_t lines = 0;
    while (!answers_.empty() && answers_.front().has_value()) {
      batch->append(*answers_.front());
      batch->push_back('\n');
      answers_.pop_front();
      ++first_;
      ++lines;
    }
    return lines;
  }

  void MarkWritten(size_t lines) {
    written_ += lines;
    if (in_flight_ != nullptr) {
      in_flight_->fetch_sub(static_cast<int64_t>(lines),
                            std::memory_order_relaxed);
    }
    reader_cv_.notify_one();
  }

  const ReplySink write_;
  std::atomic<int64_t>* const in_flight_;

  std::mutex mutex_;
  /// The reader waits here for room under the cap and for the last write.
  std::condition_variable reader_cv_;
  /// The writer thread waits here for a hand-off or the end.
  std::condition_variable writer_cv_;
  std::deque<std::optional<std::string>> answers_;
  uint64_t first_ = 0;
  uint64_t dispatched_ = 0;
  /// Lines written, or dropped after a write error.
  uint64_t written_ = 0;
  /// A thread is writing; the others only store their replies.
  bool writing_ = false;
  bool write_failed_ = false;
  /// Bytes handed to the writer thread, and the lines they finish.
  std::string backlog_;
  size_t backlog_lines_ = 0;
  bool closing_ = false;
};

}  // namespace

void ServeNdjsonSession(const LineHandler& handler, LineReader& reader,
                        ReplySink write, std::atomic<int64_t>* in_flight) {
  // Shared with every LineReply, which may outlive the handler call.
  auto session = std::make_shared<Session>(std::move(write), in_flight);
  std::thread writer([session] { session->WriterLoop(); });
  std::string line;
  while (reader.ReadLine(&line)) {
    if (line.empty()) continue;
    const uint64_t seq = session->Dispatch();
    handler(std::move(line), [session, seq](std::string reply) {
      session->Answer(seq, std::move(reply));
    });
  }
  session->Finish();
  writer.join();
}

void ServeNdjsonStdio(const LineHandler& handler, std::istream& in,
                      std::ostream& out) {
  LineReader reader([&in](char* buffer, size_t n) -> long {
    in.read(buffer, static_cast<std::streamsize>(n));
    const std::streamsize got = in.gcount();
    return got > 0 ? static_cast<long>(got) : 0;
  });
  // One thread writes at a time (the session serializes its writers).
  ServeNdjsonSession(handler, reader,
                     [&out](const char* data, size_t n, bool) -> long {
                       out.write(data, static_cast<std::streamsize>(n));
                       out.flush();
                       return out ? static_cast<long>(n) : -1;
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
          [raw](const char* data, size_t n, bool block) -> long {
            if (!block) return SendSome(raw->fd, data, n, /*block=*/false);
            return SendAll(raw->fd, data, n) ? static_cast<long>(n) : -1;
          },
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
