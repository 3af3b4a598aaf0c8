#include "common/flag_parse.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <utility>

#include "obs/log.h"

namespace telekit {

bool ParseInt64(const std::string& text, int64_t min_value, int64_t max_value,
                int64_t* out) {
  if (text.empty()) return false;
  // strtoll skips leading whitespace; reject it up front so " 8080" and
  // "8080 " fail the same way.
  if (std::isspace(static_cast<unsigned char>(text.front()))) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE) return false;
  if (end != text.c_str() + text.size()) return false;  // trailing garbage
  if (value < min_value || value > max_value) return false;
  *out = value;
  return true;
}

bool ParseDouble(const std::string& text, double min_value, double max_value,
                 double* out) {
  if (text.empty()) return false;
  if (std::isspace(static_cast<unsigned char>(text.front()))) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno == ERANGE) return false;
  if (end != text.c_str() + text.size()) return false;
  if (!std::isfinite(value)) return false;
  if (value < min_value || value > max_value) return false;
  *out = value;
  return true;
}

namespace {

[[noreturn]] void DieUsage(const char* kind, const char* name,
                           const std::string& text, const char* range) {
  std::fprintf(stderr, "bad value for %s%s: '%s' (want %s)\n", kind, name,
               text.c_str(), range);
  std::exit(64);  // EX_USAGE
}

}  // namespace

int64_t ParseIntFlagOrDie(const char* flag, const std::string& text,
                          int64_t min_value, int64_t max_value) {
  int64_t value = 0;
  if (!ParseInt64(text, min_value, max_value, &value)) {
    char range[96];
    std::snprintf(range, sizeof(range), "an integer in [%lld, %lld]",
                  static_cast<long long>(min_value),
                  static_cast<long long>(max_value));
    DieUsage("--", flag, text, range);
  }
  return value;
}

double ParseDoubleFlagOrDie(const char* flag, const std::string& text,
                            double min_value, double max_value) {
  double value = 0.0;
  if (!ParseDouble(text, min_value, max_value, &value)) {
    char range[96];
    std::snprintf(range, sizeof(range), "a number in [%g, %g]", min_value,
                  max_value);
    DieUsage("--", flag, text, range);
  }
  return value;
}

int64_t ParseIntEnvOrDie(const char* var, const char* text, int64_t min_value,
                         int64_t max_value) {
  int64_t value = 0;
  const std::string s = text == nullptr ? "" : text;
  if (!ParseInt64(s, min_value, max_value, &value)) {
    char range[96];
    std::snprintf(range, sizeof(range), "an integer in [%lld, %lld]",
                  static_cast<long long>(min_value),
                  static_cast<long long>(max_value));
    DieUsage("", var, s, range);
  }
  return value;
}

FlagSet::FlagSet(std::string program, std::string synopsis)
    : program_(std::move(program)), synopsis_(std::move(synopsis)) {}

std::string FlagSet::NameOf(const std::string& spec) {
  return spec.substr(0, spec.find('='));
}

void FlagSet::Custom(const std::string& spec, std::string want,
                     std::string help,
                     std::function<bool(const std::string&)> set) {
  const size_t eq = spec.find('=');
  flags_.push_back(Flag{NameOf(spec),
                        eq == std::string::npos ? "" : spec.substr(eq + 1),
                        std::move(want), std::move(help), std::move(set)});
}

void FlagSet::Double(const std::string& spec, double* field, double min_value,
                     double max_value, std::string help) {
  Custom(spec, "", std::move(help),
         [name = NameOf(spec), field, min_value,
          max_value](const std::string& value) {
           *field =
               ParseDoubleFlagOrDie(name.c_str(), value, min_value, max_value);
           return true;
         });
}

void FlagSet::String(const std::string& spec, std::string* field,
                     std::string help) {
  Custom(spec, "", std::move(help), [field](const std::string& value) {
    *field = value;
    return true;
  });
}

void FlagSet::Choice(const std::string& spec, std::string* field,
                     std::vector<std::string> choices, std::string help) {
  const std::string want = JoinStrings(choices, "|");
  Custom(spec, want, std::move(help),
         [field, choices = std::move(choices)](const std::string& value) {
           if (std::find(choices.begin(), choices.end(), value) ==
               choices.end()) {
             return false;
           }
           *field = value;
           return true;
         });
}

void FlagSet::Switch(const std::string& name, bool* field, bool value,
                     std::string help) {
  Custom(name, "", std::move(help), [field, value](const std::string&) {
    *field = value;
    return true;
  });
}

void FlagSet::Parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cerr << Usage();
      std::exit(0);
    }
    const size_t eq = arg.find('=');
    const std::string name =
        arg.rfind("--", 0) == 0 ? arg.substr(2, eq - 2) : std::string();
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags_) {
      if (candidate.name == name) flag = &candidate;
    }
    if (flag == nullptr) UsageError("unknown flag: " + arg);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (flag->metavar.empty() != (eq == std::string::npos)) {
      const std::string want =
          flag->metavar.empty() ? "no value" : arg + "=" + flag->metavar;
      DieUsage("--", name.c_str(), value, want.c_str());
    }
    if (!flag->set(value)) {
      DieUsage("--", name.c_str(), value, flag->want.c_str());
    }
  }
}

std::string FlagSet::Usage() const {
  const auto column = [](const Flag& flag) {
    return "--" + flag.name + (flag.metavar.empty() ? "" : "=" + flag.metavar);
  };
  size_t width = 0;
  for (const Flag& flag : flags_) {
    width = std::max(width, column(flag).size() + 1);
  }
  std::string out = "usage: " + program_ + " " + synopsis_ + "\n";
  for (const Flag& flag : flags_) {
    std::string left = column(flag);
    for (const std::string& line : SplitStringKeepEmpty(flag.help, '\n')) {
      left.resize(width, ' ');
      out += "  " + left + line + "\n";
      left.clear();
    }
  }
  return out;
}

void FlagSet::UsageError(const std::string& message) const {
  std::cerr << message << "\n" << Usage();
  std::exit(64);  // EX_USAGE
}

void AddLogLevelFlag(FlagSet* flags) {
  // Resolves TELEKIT_LOG_LEVEL now, so a bad value exits 64 before any
  // work, as a bad flag does.
  obs::Logger::Global();
  flags->Custom("log-level=LEVEL", "debug|info|warn|error|off",
                "debug|info|warn|error|off", [](const std::string& value) {
                  obs::LogLevel level;
                  if (!obs::TryParseLogLevel(value, &level)) return false;
                  obs::Logger::Global().set_level(level);
                  return true;
                });
}

}  // namespace telekit
