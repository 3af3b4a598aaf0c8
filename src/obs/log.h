#ifndef TELEKIT_OBS_LOG_H_
#define TELEKIT_OBS_LOG_H_

#include <atomic>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace telekit {
namespace obs {

/// Severity levels, ordered: a logger at level L emits records with
/// severity >= L. kOff silences everything.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

/// "debug"/"info"/"warn"/"error"/"off" (case-insensitive; "warning" and
/// "none" are aliases). False on unknown input, leaving *level untouched.
bool TryParseLogLevel(const std::string& text, LogLevel* level);
const char* LogLevelName(LogLevel level);

/// The TELEKIT_LOG_LEVEL environment variable's level (info when unset).
/// Any value TryParseLogLevel rejects exits 64, naming the variable and
/// the accepted values, as a bad --log-level does.
LogLevel LogLevelFromEnv();

/// One emitted log record, handed to the active sink. `message` is the
/// free-text part; `fields` are the structured key=value pairs streamed
/// via obs::F().
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  const char* file = "";
  int line = 0;
  /// Milliseconds since process start (steady clock).
  double elapsed_ms = 0.0;
  std::string message;
  std::vector<std::pair<std::string, std::string>> fields;

  /// "message key=value key=value" — what the default sink prints after
  /// its prefix.
  std::string Rendered() const;
};

using LogSink = std::function<void(const LogRecord&)>;

/// Process-wide logger. The level is read from the TELEKIT_LOG_LEVEL
/// environment variable at first use (LogLevelFromEnv: default info, exit
/// 64 on an unknown value) and can be changed at runtime. The sink defaults to stderr; tests swap it out with
/// SetSink() to capture records.
class Logger {
 public:
  static Logger& Global();

  bool Enabled(LogLevel level) const {
    return static_cast<int>(level) >= level_.load(std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  void set_level(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }

  /// Replaces the sink; a null sink restores the default stderr sink.
  void SetSink(LogSink sink);
  void Dispatch(const LogRecord& record);

 private:
  Logger();

  std::atomic<int> level_;
  LogSink sink_;  // null -> default stderr sink
};

/// A structured field: TELEKIT_LOG(INFO) << "step done" << obs::F("loss", x).
/// The value is rendered with operator<< at the call site.
struct F {
  template <typename T>
  F(std::string k, const T& v) : key(std::move(k)) {
    std::ostringstream stream;
    stream << v;
    value = stream.str();
  }
  std::string key;
  std::string value;
};

/// Accumulates one record and dispatches it on destruction (end of the
/// full-expression, i.e. after all <<'s ran).
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  LogMessage& operator<<(const F& field) {
    record_.fields.emplace_back(field.key, field.value);
    return *this;
  }

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogRecord record_;
  std::ostringstream stream_;
};

/// Swallows the LogMessage when the level is disabled; keeps the macro a
/// single expression so it is safe in unbraced if/else.
class LogVoidify {
 public:
  void operator&(const LogMessage&) {}
};

namespace log_severity {
inline constexpr LogLevel DEBUG = LogLevel::kDebug;
inline constexpr LogLevel INFO = LogLevel::kInfo;
inline constexpr LogLevel WARN = LogLevel::kWarn;
inline constexpr LogLevel ERROR = LogLevel::kError;
}  // namespace log_severity

}  // namespace obs
}  // namespace telekit

/// Leveled structured logging:
///   TELEKIT_LOG(INFO) << "pretrain step" << obs::F("step", s)
///                     << obs::F("loss", stats.total_loss);
/// Disabled levels cost one relaxed atomic load and a branch; no
/// formatting or allocation happens.
#define TELEKIT_LOG(severity)                                               \
  !::telekit::obs::Logger::Global().Enabled(                                \
      ::telekit::obs::log_severity::severity)                               \
      ? (void)0                                                             \
      : ::telekit::obs::LogVoidify() &                                      \
            ::telekit::obs::LogMessage(                                     \
                ::telekit::obs::log_severity::severity, __FILE__, __LINE__)

#endif  // TELEKIT_OBS_LOG_H_
