#ifndef TELEKIT_COMMON_FLAG_PARSE_H_
#define TELEKIT_COMMON_FLAG_PARSE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace telekit {

/// Strict numeric parsing for command-line flags and environment
/// variables. Unlike std::atoi/atof — which silently map garbage to 0 —
/// these reject empty strings, trailing garbage ("8080x"), overflow, and
/// out-of-range values, so "--port=abc" becomes a usage error instead of
/// an ephemeral-port bind.

/// Parses the whole of `text` as a base-10 integer in [min_value,
/// max_value]. Leading/trailing whitespace is rejected. Returns false on
/// any malformed or out-of-range input, leaving *out untouched.
bool ParseInt64(const std::string& text, int64_t min_value, int64_t max_value,
                int64_t* out);

/// Parses the whole of `text` as a finite double in [min_value,
/// max_value]. Rejects empty strings, trailing garbage, inf/nan and
/// overflow. Returns false on failure, leaving *out untouched.
bool ParseDouble(const std::string& text, double min_value, double max_value,
                 double* out);

/// Flag wrappers (FlagSet's number kinds use them): on malformed input
/// they print "bad value for --<flag>: ..." (with the accepted range) to
/// stderr and exit(64) (EX_USAGE).
int64_t ParseIntFlagOrDie(const char* flag, const std::string& text,
                          int64_t min_value, int64_t max_value);
double ParseDoubleFlagOrDie(const char* flag, const std::string& text,
                            double min_value, double max_value);

/// Env-var variant: same strictness, same exit(64), but the message names
/// the environment variable instead of a flag. `text` may be null (some
/// callers pass getenv output); null is rejected like the empty string.
int64_t ParseIntEnvOrDie(const char* var, const char* text, int64_t min_value,
                         int64_t max_value);

/// A declarative command-line flag table: each flag is declared once (its
/// name, the field it sets, what it accepts, its help text), and Parse()
/// and the --help text both come from the table. --help / -h prints the
/// usage to stderr and exits 0; a usage error (unknown flag, malformed or
/// out-of-range number, value outside a choice set, value given to a
/// switch or missing from a flag that takes one) names the flag and exits
/// 64. Setters run while parsing, in command-line order, so the last
/// occurrence of a flag wins; a list flag accumulates instead.
///
/// `spec` is "name=METAVAR" for a flag that takes a value ("port=N") and
/// a bare "name" for a switch; `help` may span lines ('\n').
class FlagSet {
 public:
  /// --help prints "usage: <program> <synopsis>" and then the flags.
  explicit FlagSet(std::string program, std::string synopsis = "[options]");

  /// An integer in [min_value, max_value], into any integral field.
  template <typename T>
  void Int(const std::string& spec, T* field, int64_t min_value,
           int64_t max_value, std::string help) {
    Custom(spec, "", std::move(help),
           [name = NameOf(spec), field, min_value,
            max_value](const std::string& value) {
             *field = static_cast<T>(
                 ParseIntFlagOrDie(name.c_str(), value, min_value, max_value));
             return true;
           });
  }
  /// A finite number in [min_value, max_value].
  void Double(const std::string& spec, double* field, double min_value,
              double max_value, std::string help);
  /// Any string, taken verbatim.
  void String(const std::string& spec, std::string* field, std::string help);
  /// One of `choices`, exactly.
  void Choice(const std::string& spec, std::string* field,
              std::vector<std::string> choices, std::string help);
  /// Stores `value` into `field` when the flag is given ("--no-cache").
  void Switch(const std::string& name, bool* field, bool value,
              std::string help);
  /// A repeatable, comma-separated list: every occurrence appends its
  /// items, each converted by `parse(item, T*)` (false = usage error,
  /// naming `want`).
  template <typename T, typename ParseFn>
  void List(const std::string& spec, std::vector<T>* field, ParseFn parse,
            std::string want, std::string help) {
    Custom(spec, std::move(want), std::move(help),
           [field, parse](const std::string& value) {
             for (const std::string& item : SplitString(value, ',')) {
               T parsed{};
               if (!parse(item, &parsed)) return false;
               field->push_back(std::move(parsed));
             }
             return true;
           });
  }
  /// Any other kind: `set` parses and applies the value and returns false
  /// to reject it; the usage error then names `want`.
  void Custom(const std::string& spec, std::string want, std::string help,
              std::function<bool(const std::string&)> set);

  /// Applies argv[1..argc) to the table (see the class comment for the
  /// exits). The table must outlive the call; it may be discarded after.
  void Parse(int argc, char** argv) const;

  /// The --help text.
  std::string Usage() const;

  /// Prints `message` and the usage to stderr and exits 64: for checks
  /// that span flags, such as a required flag that is missing.
  [[noreturn]] void UsageError(const std::string& message) const;

 private:
  struct Flag {
    std::string name;
    std::string metavar;  // empty for a switch
    std::string want;
    std::string help;
    std::function<bool(const std::string&)> set;
  };

  static std::string NameOf(const std::string& spec);

  std::string program_;
  std::string synopsis_;
  std::vector<Flag> flags_;
};

/// Declares --log-level=LEVEL, which sets the global logger's level while
/// parsing (debug|info|warn|error|off; anything else is a usage error).
/// Also resolves TELEKIT_LOG_LEVEL on the spot: a bad value exits 64.
void AddLogLevelFlag(FlagSet* flags);

}  // namespace telekit

#endif  // TELEKIT_COMMON_FLAG_PARSE_H_
