#include "serve/line_io.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace telekit {
namespace serve {

LineReader::LineReader(int fd, size_t max_line)
    : read_([fd](char* buffer, size_t n) {
        return static_cast<long>(::recv(fd, buffer, n, 0));
      }),
      max_line_(max_line) {}

LineReader::LineReader(ReadFn read, size_t max_line)
    : read_(std::move(read)), max_line_(max_line) {}

bool LineReader::ReadLine(std::string* line) {
  if (failed_) return false;
  while (true) {
    // Scan only the bytes not yet examined; '\n' can never hide in the
    // prefix already scanned.
    const size_t pos = buffer_.find('\n', scan_from_);
    if (pos != std::string::npos) {
      size_t end = pos;
      if (end > 0 && buffer_[end - 1] == '\r') --end;
      line->assign(buffer_, 0, end);
      buffer_.erase(0, pos + 1);
      scan_from_ = 0;
      return true;
    }
    if (eof_) {
      if (buffer_.empty()) return false;
      // Final unterminated line.
      size_t end = buffer_.size();
      if (buffer_[end - 1] == '\r') --end;
      line->assign(buffer_, 0, end);
      buffer_.clear();
      scan_from_ = 0;
      return true;
    }
    if (buffer_.size() >= max_line_) {
      overflowed_ = true;
      return false;
    }
    char chunk[4096];
    long n;
    do {
      n = read_(chunk, sizeof(chunk));
    } while (n < 0 && errno == EINTR);
    if (n == 0) {
      eof_ = true;
      continue;  // flush any unterminated remainder
    }
    if (n < 0) {
      // Timeout (EAGAIN under SO_RCVTIMEO) or hard error: the stream is in
      // an unknown state. A partially-buffered line must NOT be flushed as
      // if it were complete — the caller sees failure and drops the
      // connection.
      failed_ = true;
      return false;
    }
    scan_from_ = buffer_.size();
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

long SendSome(int fd, const char* data, size_t n, bool block) {
  const int flags = MSG_NOSIGNAL | (block ? 0 : MSG_DONTWAIT);
  while (true) {
    const ssize_t w = ::send(fd, data, n, flags);
    if (w >= 0) return static_cast<long>(w);
    if (errno == EINTR) continue;
    if (!block && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
    return -1;
  }
}

bool SendAll(int fd, const char* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const long w = SendSome(fd, data + sent, n - sent, /*block=*/true);
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

bool SendLine(int fd, const std::string& line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  return SendAll(fd, framed.data(), framed.size());
}

namespace {

/// Non-blocking connect to one resolved address so a dead host costs
/// timeout_ms, not the kernel's multi-minute SYN retry budget.
int ConnectOne(const addrinfo* ai, double timeout_ms) {
  const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
  if (fd < 0) return -1;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  if (rc < 0) {
    pollfd pfd{fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (rc <= 0) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

int ConnectTcp(const std::string& host, int port, double timeout_ms) {
  // getaddrinfo handles IPv4/IPv6 literals and hostnames alike — replica
  // specs are documented as "host:port", not "IPv4-literal:port".
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* results = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &results) != 0) {
    return -1;
  }
  int fd = -1;
  for (const addrinfo* ai = results; ai != nullptr && fd < 0;
       ai = ai->ai_next) {
    fd = ConnectOne(ai, timeout_ms);
  }
  ::freeaddrinfo(results);
  return fd;
}

bool WaitReadable(int fd, double timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
  } while (rc < 0 && errno == EINTR);
  return rc > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0;
}

}  // namespace serve
}  // namespace telekit
