#ifndef TELEKIT_SERVE_LINE_IO_H_
#define TELEKIT_SERVE_LINE_IO_H_

#include <functional>
#include <string>

namespace telekit {
namespace serve {

/// Incremental NDJSON line framing over a byte stream.
///
/// TCP delivers arbitrary segment boundaries: one request line may arrive
/// split across many recv() calls, and one segment may carry several
/// coalesced lines (a pipelining client). LineReader owns the carry buffer
/// between reads so both cases frame correctly — ReadLine returns exactly
/// the bytes up to (not including) the next '\n', however they arrived.
/// A trailing '\r' is stripped so CRLF clients work. There is no line
/// length cap beyond `max_line` (guards a peer that never sends '\n').
class LineReader {
 public:
  /// `read` fills up to n bytes and returns the byte count, 0 on orderly
  /// EOF, < 0 on error (errno semantics). The fd convenience constructor
  /// wraps ::recv.
  using ReadFn = std::function<long(char* buffer, size_t n)>;

  explicit LineReader(int fd, size_t max_line = 1 << 20);
  explicit LineReader(ReadFn read, size_t max_line = 1 << 20);

  /// Next complete line (without the terminator). False on EOF/error with
  /// nothing framed. Orderly EOF (read returns 0) flushes a final
  /// unterminated line as a line (curl-style tolerance), then the next
  /// call reports EOF. A read *error* (< 0 — including EAGAIN from a
  /// receive timeout) never flushes partial bytes: the stream state is
  /// unknown, so ReadLine fails immediately, `failed()` turns true, and
  /// every later call fails too — the connection should be dropped.
  bool ReadLine(std::string* line);

  /// True when the last ReadLine failure was an oversize line rather than
  /// EOF (the connection should be dropped, not drained).
  bool overflowed() const { return overflowed_; }

  /// True when a read error (timeout or transport failure) poisoned the
  /// stream — distinguishes "peer closed cleanly" from "exchange failed".
  bool failed() const { return failed_; }

 private:
  ReadFn read_;
  std::string buffer_;  // carry across read boundaries
  size_t scan_from_ = 0;
  bool eof_ = false;
  bool overflowed_ = false;
  bool failed_ = false;
  size_t max_line_;
};

/// One send of up to n bytes (retrying EINTR); bytes sent, or -1 on error.
/// With `block` false it never waits and returns 0 when the socket buffer
/// is full. Uses MSG_NOSIGNAL so a dead peer surfaces as EPIPE, not
/// SIGPIPE.
long SendSome(int fd, const char* data, size_t n, bool block);

/// Writes all n bytes, retrying partial sends (and EINTR). False on error.
bool SendAll(int fd, const char* data, size_t n);

/// Writes `line` plus a terminating '\n' in full.
bool SendLine(int fd, const std::string& line);

/// Connects to host:port with a connect timeout; -1 on failure. `host`
/// may be an IPv4/IPv6 literal or a hostname (getaddrinfo, each resolved
/// address tried in order). The returned socket is blocking.
int ConnectTcp(const std::string& host, int port, double timeout_ms);

/// Blocks until fd is readable or `timeout_ms` lapses. Returns false on
/// timeout or poll error.
bool WaitReadable(int fd, double timeout_ms);

}  // namespace serve
}  // namespace telekit

#endif  // TELEKIT_SERVE_LINE_IO_H_
