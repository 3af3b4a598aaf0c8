#include "obs/log.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

namespace telekit {
namespace obs {

namespace {

std::chrono::steady_clock::time_point ProcessStart() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return start;
}

double ElapsedMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - ProcessStart())
      .count();
}

std::mutex& SinkMutex() {
  static std::mutex mutex;
  return mutex;
}

void DefaultSink(const LogRecord& record) {
  // [I 12.3s log_test.cc:42] message key=value
  std::fprintf(stderr, "[%c %.1fs %s:%d] %s\n", LogLevelName(record.level)[0],
               record.elapsed_ms / 1000.0, record.file, record.line,
               record.Rendered().c_str());
}

bool EqualsIgnoreCase(const std::string& a, const char* b) {
  if (a.size() != std::strlen(b)) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) != b[i]) return false;
  }
  return true;
}

}  // namespace

bool TryParseLogLevel(const std::string& text, LogLevel* level) {
  static constexpr std::pair<const char*, LogLevel> kNames[] = {
      {"debug", LogLevel::kDebug}, {"info", LogLevel::kInfo},
      {"warn", LogLevel::kWarn},   {"warning", LogLevel::kWarn},
      {"error", LogLevel::kError}, {"off", LogLevel::kOff},
      {"none", LogLevel::kOff}};
  for (const auto& [name, value] : kNames) {
    if (EqualsIgnoreCase(text, name)) {
      *level = value;
      return true;
    }
  }
  return false;
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

std::string LogRecord::Rendered() const {
  std::string out = message;
  for (const auto& field : fields) {
    if (!out.empty()) out.push_back(' ');
    out += field.first;
    out.push_back('=');
    out += field.second;
  }
  return out;
}

LogLevel LogLevelFromEnv() {
  const char* env = std::getenv("TELEKIT_LOG_LEVEL");
  LogLevel level = LogLevel::kInfo;
  if (env != nullptr && !TryParseLogLevel(env, &level)) {
    std::fprintf(stderr,
                 "bad value for TELEKIT_LOG_LEVEL: '%s' (want "
                 "debug|info|warn|error|off)\n",
                 env);
    std::exit(64);  // EX_USAGE, as for a bad --log-level
  }
  return level;
}

Logger::Logger() : level_(static_cast<int>(LogLevelFromEnv())) {}

Logger& Logger::Global() {
  static Logger* logger = new Logger();  // leaked: outlives static dtors
  return *logger;
}

void Logger::SetSink(LogSink sink) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  sink_ = std::move(sink);
}

void Logger::Dispatch(const LogRecord& record) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  if (sink_) {
    sink_(record);
  } else {
    DefaultSink(record);
  }
}

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  record_.level = level;
  record_.line = line;
  record_.elapsed_ms = ElapsedMs();
  // Keep the basename only; full paths bloat every line.
  const char* base = std::strrchr(file, '/');
  record_.file = base != nullptr ? base + 1 : file;
}

LogMessage::~LogMessage() {
  record_.message = stream_.str();
  Logger::Global().Dispatch(record_);
}

}  // namespace obs
}  // namespace telekit
