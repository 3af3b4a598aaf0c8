// `loadgen`: the open-loop sender.
//
// loadgen sends each planned line at its due time over kConns loopback
// connections (round-robin), whatever the replies are doing, so a stall
// shows up as latency of the requests due during it. One sender thread and
// one receiver thread; replies come back in order per connection.
// Timestamps are steady-clock microseconds from the window start (the
// first due time is 0). Each row's status is 'o' (ok reply), 'e' (error
// reply), 'b' (unparseable reply, or one whose id is not the request's)
// or 'l' (no reply).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "probe.h"

namespace telekit {
namespace perfbench {
namespace {

/// Connections to the replica; requests go round-robin over them.
constexpr int kConns = 4;
/// How long after the last due time unanswered requests are given before
/// they count as failed.
constexpr double kGraceS = 10.0;

/// One loopback NDJSON connection.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      std::cerr << "perfbench_probe: cannot connect to 127.0.0.1:" << port
                << ": " << std::strerror(errno) << "\n";
      std::exit(1);
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }

  bool Send(const std::string& line) {
    const std::string framed = line + "\n";
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads what is available (one recv) and appends complete lines to
  /// `lines`. False on EOF or error.
  bool ReadSome(std::vector<std::string>* lines) {
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) return true;
    if (n <= 0) return false;
    pending_.append(buf, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl; (nl = pending_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      lines->push_back(pending_.substr(start, nl - start));
    }
    pending_.erase(0, start);
    return true;
  }

 private:
  int fd_ = -1;
  std::string pending_;
};

double UsSince(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - t0).count();
}

/// The request's `id` as written in its line.
double RequestId(const std::string& line) {
  obs::JsonValue json;
  std::string error;
  if (!obs::JsonValue::Parse(line, &json, &error) || json.Find("id") == nullptr) {
    return -1.0;
  }
  return json.Find("id")->AsNumber();
}

struct Outcome {
  double send_us = -1.0;
  double recv_us = -1.0;
  char status = 'l';
  std::string reply;
};

char ReplyStatus(const std::string& line, double id) {
  obs::JsonValue json;
  std::string error;
  if (!obs::JsonValue::Parse(line, &json, &error) || !json.is_object()) {
    return 'b';
  }
  const obs::JsonValue* ok = json.Find("ok");
  const obs::JsonValue* echoed = json.Find("id");
  if (ok == nullptr || !ok->is_bool() || echoed == nullptr ||
      !echoed->is_number() || echoed->AsNumber() != id) {
    return 'b';
  }
  return ok->AsBool() ? 'o' : 'e';
}

}  // namespace

int RunLoadgen(const Flags& flags) {
  const int port = static_cast<int>(flags.Int("port", 0));
  const std::vector<PlannedLine> plan = ReadPlan(flags.Str("plan", ""));
  const std::string out = flags.Str("out", "");
  const std::string keep = flags.Str("keep", "st");
  if (plan.empty() || out.empty() || port <= 0) {
    std::cerr << "loadgen: needs --port, a non-empty --plan and --out\n";
    return 64;
  }
  std::vector<double> ids;
  ids.reserve(plan.size());
  for (const PlannedLine& line : plan) ids.push_back(RequestId(line.line));

  std::vector<std::unique_ptr<Conn>> conns;
  for (int i = 0; i < kConns; ++i) conns.push_back(std::make_unique<Conn>(port));
  std::vector<std::mutex> inflight_mutex(conns.size());
  std::vector<std::deque<size_t>> inflight(conns.size());
  std::vector<Outcome> outcomes(plan.size());
  std::atomic<size_t> answered{0};
  std::atomic<bool> sender_done{false};

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(30);
  Clock::time_point last_reply = t0;

  std::thread receiver([&] {
    const Clock::time_point give_up =
        t0 + std::chrono::microseconds(
                 static_cast<int64_t>(plan.back().due_us + kGraceS * 1e6));
    std::vector<pollfd> fds;
    for (const auto& conn : conns) fds.push_back({conn->fd(), POLLIN, 0});
    std::vector<bool> open(conns.size(), true);
    std::vector<std::string> lines;
    while (answered.load() < plan.size() && Clock::now() < give_up) {
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (size_t c = 0; c < conns.size(); ++c) {
        if (!open[c] || (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        lines.clear();
        if (!conns[c]->ReadSome(&lines)) {
          open[c] = false;
          fds[c].fd = -1;
        }
        const Clock::time_point now = Clock::now();
        for (std::string& line : lines) {
          size_t index = 0;
          {
            std::lock_guard<std::mutex> lock(inflight_mutex[c]);
            if (inflight[c].empty()) continue;  // a reply nobody asked for
            index = inflight[c].front();
            inflight[c].pop_front();
          }
          Outcome& outcome = outcomes[index];
          outcome.recv_us = UsSince(t0, now);
          outcome.status = ReplyStatus(line, ids[index]);
          if (outcome.status != 'o' ||
              keep.find(plan[index].tag) != std::string::npos) {
            outcome.reply = std::move(line);
          }
          last_reply = now;
          answered.fetch_add(1);
        }
      }
      if (sender_done.load() &&
          std::none_of(open.begin(), open.end(), [](bool o) { return o; })) {
        break;
      }
    }
  });

  std::thread sender([&] {
    for (size_t i = 0; i < plan.size(); ++i) {
      std::this_thread::sleep_until(
          t0 + std::chrono::microseconds(static_cast<int64_t>(plan[i].due_us)));
      const size_t c = i % conns.size();
      {
        std::lock_guard<std::mutex> lock(inflight_mutex[c]);
        inflight[c].push_back(i);
      }
      outcomes[i].send_us = UsSince(t0, Clock::now());
      if (!conns[c]->Send(plan[i].line)) {
        // The connection is gone; its queued requests stay unanswered.
        outcomes[i].send_us = -1.0;
      }
    }
    sender_done.store(true);
  });
  sender.join();
  receiver.join();

  std::ofstream rows(out);
  size_t ok = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    const Outcome& o = outcomes[i];
    ok += o.status == 'o' ? 1 : 0;
    char prefix[96];
    std::snprintf(prefix, sizeof(prefix), "%.1f\t%.1f\t%.1f\t%c\t%c\t",
                  plan[i].due_us, o.send_us, o.recv_us, o.status,
                  plan[i].tag);
    rows << prefix << o.reply << '\n';
  }
  if (!rows) {
    std::cerr << "loadgen: cannot write " << out << "\n";
    return 1;
  }
  obs::JsonValue result = obs::JsonValue::Object();
  result.Set("conns", obs::JsonValue(kConns));
  result.Set("sent", obs::JsonValue(static_cast<uint64_t>(plan.size())));
  result.Set("answered", obs::JsonValue(static_cast<uint64_t>(answered.load())));
  result.Set("ok", obs::JsonValue(static_cast<uint64_t>(ok)));
  result.Set("window_s", obs::JsonValue(Seconds(t0, last_reply)));
  Emit(result);
  return 0;
}

}  // namespace perfbench
}  // namespace telekit
