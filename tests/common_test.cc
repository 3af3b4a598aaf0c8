#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/flag_parse.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "obs/log.h"

namespace telekit {
namespace {

// --- Status ------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::InvalidArgument("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("must be positive");
  return x;
}

TEST(StatusOrTest, FunctionBoundaryConversions) {
  EXPECT_TRUE(ParsePositive(3).ok());
  EXPECT_FALSE(ParsePositive(-1).ok());
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanRoughlyHalf) {
  Rng rng(11);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.Uniform();
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, NormalShifted) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Normal(10.0, 0.5);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(19);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(5);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformIntTwoArg) {
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.UniformInt(10, 13);
    EXPECT_GE(v, 10);
    EXPECT_LT(v, 13);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// The bulk mask is the per-element Bernoulli loop Dropout ran: the same
// values (+0 or keep) and the same stream afterwards, for dropout rates
// whose threshold p * 2^53 is and is not an integer.
TEST(RngTest, DropoutMaskIsTheBernoulliLoop) {
  for (double p : {0.1, static_cast<double>(0.1f), 0.5, 1.0 / 3.0, 1e-9}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{4096}}) {
      Rng bulk(99), loop(99);
      const float keep = static_cast<float>(1.0 / (1.0 - p));
      std::vector<float> got(n, -1.0f), want(n);
      bulk.DropoutMask(p, keep, got.data(), n);
      for (float& m : want) m = loop.Bernoulli(p) ? 0.0f : keep;
      EXPECT_EQ(got, want) << "p=" << p << " n=" << n;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_FALSE(std::signbit(got[i])) << "p=" << p << " i=" << i;
      }
      EXPECT_EQ(bulk.NextU64(), loop.NextU64()) << "p=" << p << " n=" << n;
    }
  }
}

TEST(RngTest, DiscardAdvancesLikeNextU64) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{1000}}) {
    Rng skipped(5), drawn(5);
    skipped.Discard(n);
    for (size_t i = 0; i < n; ++i) drawn.NextU64();
    EXPECT_EQ(skipped.NextU64(), drawn.NextU64()) << n;
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(31);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    auto sample = rng.SampleWithoutReplacement(20, 7);
    EXPECT_EQ(sample.size(), 7u);
    std::set<size_t> uniq(sample.begin(), sample.end());
    EXPECT_EQ(uniq.size(), 7u);
    for (size_t s : sample) EXPECT_LT(s, 20u);
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(43);
  auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(55);
  Rng fork = a.Fork();
  // The fork differs from the parent's continued stream.
  EXPECT_NE(fork.NextU64(), a.NextU64());
}

// --- String utils ---------------------------------------------------------------

TEST(StringUtilTest, SplitDropsEmpty) {
  auto parts = SplitString("a,,b,c,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepEmpty) {
  auto parts = SplitStringKeepEmpty("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> pieces = {"x", "y", "z"};
  EXPECT_EQ(JoinStrings(pieces, "-"), "x-y-z");
  EXPECT_EQ(JoinStrings({}, "-"), "");
}

TEST(StringUtilTest, StartsEndsContains) {
  EXPECT_TRUE(StartsWith("[ALM] foo", "[ALM]"));
  EXPECT_FALSE(StartsWith("x", "xy"));
  EXPECT_TRUE(EndsWith("alarm.log", ".log"));
  EXPECT_TRUE(Contains("lead to failure", "lead to"));
  EXPECT_FALSE(Contains("abc", "zzz"));
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringUtilTest, ToLower) { EXPECT_EQ(ToLower("QoS-5G"), "qos-5g"); }

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
}

// --- TablePrinter -----------------------------------------------------------------

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table("Demo");
  table.SetHeader({"Method", "MR", "Hits@1"});
  table.AddRow({"Random", "2.47", "54.88"});
  table.AddRow("KTeleBERT", {2.02, 64.78});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("Random"), std::string::npos);
  EXPECT_NE(out.find("64.78"), std::string::npos);
  EXPECT_NE(out.find("| Method"), std::string::npos);
}

// --- Strict flag/env parsing -------------------------------------------------

TEST(FlagParseTest, ParseInt64AcceptsPlainIntegers) {
  int64_t v = -1;
  EXPECT_TRUE(ParseInt64("8080", 0, 65535, &v));
  EXPECT_EQ(v, 8080);
  EXPECT_TRUE(ParseInt64("0", 0, 65535, &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt64("-3", -10, 10, &v));
  EXPECT_EQ(v, -3);
  EXPECT_TRUE(ParseInt64("+7", 0, 10, &v));
  EXPECT_EQ(v, 7);
}

TEST(FlagParseTest, ParseInt64RejectsMalformedInput) {
  int64_t v = 42;
  // Each rejected form that atoi silently mapped to 0 (or truncated).
  EXPECT_FALSE(ParseInt64("", 0, 100, &v));
  EXPECT_FALSE(ParseInt64("abc", 0, 100, &v));
  EXPECT_FALSE(ParseInt64("12x", 0, 100, &v));      // trailing garbage
  EXPECT_FALSE(ParseInt64("x12", 0, 100, &v));
  EXPECT_FALSE(ParseInt64(" 12", 0, 100, &v));      // leading whitespace
  EXPECT_FALSE(ParseInt64("12 ", 0, 100, &v));      // trailing whitespace
  EXPECT_FALSE(ParseInt64("1.5", 0, 100, &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999", 0, 100, &v));  // overflow
  EXPECT_FALSE(ParseInt64("101", 0, 100, &v));      // above range
  EXPECT_FALSE(ParseInt64("-1", 0, 100, &v));       // below range
  EXPECT_EQ(v, 42);  // untouched on every failure
}

TEST(FlagParseTest, ParseDoubleAcceptsNumbers) {
  double v = -1.0;
  EXPECT_TRUE(ParseDouble("2.5", 0.0, 10.0, &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(ParseDouble("1e3", 0.0, 1e6, &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_TRUE(ParseDouble("0", 0.0, 1.0, &v));
  EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(FlagParseTest, ParseDoubleRejectsMalformedInput) {
  double v = 42.0;
  EXPECT_FALSE(ParseDouble("", 0.0, 100.0, &v));
  EXPECT_FALSE(ParseDouble("abc", 0.0, 100.0, &v));
  EXPECT_FALSE(ParseDouble("1.5ms", 0.0, 100.0, &v));  // trailing garbage
  EXPECT_FALSE(ParseDouble(" 1.5", 0.0, 100.0, &v));
  EXPECT_FALSE(ParseDouble("nan", 0.0, 100.0, &v));
  EXPECT_FALSE(ParseDouble("inf", 0.0, 100.0, &v));
  EXPECT_FALSE(ParseDouble("1e999", 0.0, 100.0, &v));  // overflow
  EXPECT_FALSE(ParseDouble("101", 0.0, 100.0, &v));
  EXPECT_DOUBLE_EQ(v, 42.0);
}

TEST(FlagParseDeathTest, IntFlagExits64NamingTheFlag) {
  EXPECT_EXIT(ParseIntFlagOrDie("vnodes", "abc", 1, 1 << 20),
              ::testing::ExitedWithCode(64), "bad value for --vnodes");
  EXPECT_EXIT(ParseIntFlagOrDie("port", "8080x", 0, 65535),
              ::testing::ExitedWithCode(64), "bad value for --port");
  EXPECT_EQ(ParseIntFlagOrDie("port", "8080", 0, 65535), 8080);
}

TEST(FlagParseDeathTest, DoubleFlagExits64NamingTheFlag) {
  EXPECT_EXIT(ParseDoubleFlagOrDie("deadline-ms", "fast", 0.0, 1e9),
              ::testing::ExitedWithCode(64), "bad value for --deadline-ms");
  EXPECT_DOUBLE_EQ(ParseDoubleFlagOrDie("deadline-ms", "250", 0.0, 1e9),
                   250.0);
}

TEST(FlagParseDeathTest, EnvVarExits64NamingTheVariable) {
  EXPECT_EXIT(ParseIntEnvOrDie("TELEKIT_COMPUTE_THREADS", "abc", 1, 4096),
              ::testing::ExitedWithCode(64),
              "bad value for TELEKIT_COMPUTE_THREADS");
  EXPECT_EXIT(ParseIntEnvOrDie("TELEKIT_COMPUTE_THREADS", nullptr, 1, 4096),
              ::testing::ExitedWithCode(64), "TELEKIT_COMPUTE_THREADS");
  EXPECT_EQ(ParseIntEnvOrDie("TELEKIT_COMPUTE_THREADS", "4", 1, 4096), 4);
}

// --- Declarative flag table ----------------------------------------------

/// Runs `table` over {"prog", args...}, as main() would.
void ParseArgs(const FlagSet& table, std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  table.Parse(static_cast<int>(argv.size()), argv.data());
}

/// One flag of every kind the table offers, each with a non-zero default.
struct AllKinds {
  int count = 3;
  size_t slots = 600;
  uint64_t seed = 7;
  double ratio = 0.5;
  std::string path = "default";
  bool cache = true;
  std::string policy = "hash";
  std::vector<std::string> items;
  double speedup = 1.0;
  FlagSet table{"prog"};

  AllKinds() {
    table.Int("count=N", &count, 1, 10, "a count");
    table.Int("slots=N", &slots, 1, int64_t{1} << 30, "ring slots");
    table.Int("seed=N", &seed, 0, std::numeric_limits<int64_t>::max(),
              "a seed");
    table.Double("ratio=X", &ratio, 0.0, 1.0, "a ratio");
    table.String("path=PATH", &path, "a path\nover two lines");
    table.Switch("no-cache", &cache, false, "disable the cache");
    table.Choice("policy=hash|random", &policy, {"hash", "random"},
                 "a policy");
    table.List(
        "item=NAME", &items,
        [](const std::string& text, std::string* out) {
          *out = text;
          return text != "bad";
        },
        "a name other than bad", "an item");
    table.Custom("speedup=X|inf", "a number, or inf", "a speedup",
                 [this](const std::string& value) {
                   if (value == "inf") {
                     speedup = std::numeric_limits<double>::infinity();
                     return true;
                   }
                   return ParseDouble(value, 0.001, 1e9, &speedup);
                 });
    AddLogLevelFlag(&table);
  }
};

TEST(FlagSetTest, EachKindParsesIntoItsField) {
  const obs::LogLevel saved = obs::Logger::Global().level();
  AllKinds flags;
  ParseArgs(flags.table,
            {"--count=9", "--slots=1024", "--seed=9223372036854775807",
             "--ratio=0.25", "--path=/tmp/x=y", "--no-cache",
             "--policy=random", "--item=a", "--speedup=inf",
             "--log-level=error"});
  EXPECT_EQ(flags.count, 9);
  EXPECT_EQ(flags.slots, 1024u);
  EXPECT_EQ(flags.seed, uint64_t{9223372036854775807u});
  EXPECT_DOUBLE_EQ(flags.ratio, 0.25);
  EXPECT_EQ(flags.path, "/tmp/x=y");  // only the first '=' splits
  EXPECT_FALSE(flags.cache);
  EXPECT_EQ(flags.policy, "random");
  EXPECT_EQ(flags.items, std::vector<std::string>{"a"});
  EXPECT_TRUE(std::isinf(flags.speedup));
  EXPECT_EQ(obs::Logger::Global().level(), obs::LogLevel::kError);
  obs::Logger::Global().set_level(saved);
}

TEST(FlagSetTest, AbsentFlagsKeepTheirDefaults) {
  AllKinds flags;
  ParseArgs(flags.table, {});
  EXPECT_EQ(flags.count, 3);
  EXPECT_EQ(flags.slots, 600u);
  EXPECT_EQ(flags.seed, 7u);
  EXPECT_DOUBLE_EQ(flags.ratio, 0.5);
  EXPECT_EQ(flags.path, "default");
  EXPECT_TRUE(flags.cache);
  EXPECT_EQ(flags.policy, "hash");
  EXPECT_TRUE(flags.items.empty());
  EXPECT_DOUBLE_EQ(flags.speedup, 1.0);

  ParseArgs(flags.table, {"--ratio=1"});
  EXPECT_DOUBLE_EQ(flags.ratio, 1.0);
  EXPECT_EQ(flags.count, 3);
  EXPECT_EQ(flags.path, "default");
}

TEST(FlagSetTest, LastOccurrenceWins) {
  AllKinds flags;
  ParseArgs(flags.table, {"--count=2", "--policy=random", "--path=a",
                          "--count=8", "--policy=hash", "--path=b"});
  EXPECT_EQ(flags.count, 8);
  EXPECT_EQ(flags.policy, "hash");
  EXPECT_EQ(flags.path, "b");
}

TEST(FlagSetTest, ListAccumulatesAndSplitsOnCommas) {
  AllKinds flags;
  ParseArgs(flags.table, {"--item=a,b", "--item=c", "--item=d,,e"});
  EXPECT_EQ(flags.items,
            (std::vector<std::string>{"a", "b", "c", "d", "e"}));
}

TEST(FlagSetTest, UsageNamesEveryFlagWithItsHelp) {
  AllKinds flags;
  const std::string usage = flags.table.Usage();
  EXPECT_EQ(usage.rfind("usage: prog [options]\n", 0), 0u) << usage;
  for (const char* flag :
       {"--count=N", "--slots=N", "--seed=N", "--ratio=X", "--path=PATH",
        "--no-cache", "--policy=hash|random", "--item=NAME",
        "--speedup=X|inf", "--log-level=LEVEL"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
  // A help text over two lines continues in the help column.
  const size_t first = usage.find("a path\n");
  ASSERT_NE(first, std::string::npos);
  const size_t column = first - (usage.rfind('\n', first) + 1);
  EXPECT_EQ(usage.compare(first + 7, column + 15,
                          std::string(column, ' ') + "over two lines\n"),
            0)
      << usage;
}

TEST(FlagSetDeathTest, HelpExitsZeroWithTheUsage) {
  AllKinds flags;
  EXPECT_EXIT(ParseArgs(flags.table, {"--help"}),
              ::testing::ExitedWithCode(0), "usage: prog");
  EXPECT_EXIT(ParseArgs(flags.table, {"--count=2", "-h"}),
              ::testing::ExitedWithCode(0), "--speedup=X\\|inf");
}

TEST(FlagSetDeathTest, UsageErrorsExit64NamingTheFlag) {
  AllKinds flags;
  const auto exits64 = [&flags](std::vector<std::string> args,
                                const char* message) {
    EXPECT_EXIT(ParseArgs(flags.table, std::move(args)),
                ::testing::ExitedWithCode(64), message);
  };
  exits64({"--bogus"}, "unknown flag: --bogus");
  exits64({"count=3"}, "unknown flag: count=3");
  exits64({"--count=abc"}, "bad value for --count");
  exits64({"--count=11"}, "bad value for --count: '11'");
  exits64({"--slots=0"}, "bad value for --slots");
  exits64({"--ratio=1.5"}, "bad value for --ratio");
  exits64({"--policy=bogus"}, "want hash\\|random");
  exits64({"--log-level=bogus"}, "bad value for --log-level: 'bogus'");
  exits64({"--no-cache=1"}, "bad value for --no-cache: '1' \\(want no value");
  exits64({"--count"}, "bad value for --count");
  exits64({"--item=a,bad"}, "want a name other than bad");
  exits64({"--speedup=fast"}, "want a number, or inf");
  EXPECT_EXIT(flags.table.UsageError("at least one --item is required"),
              ::testing::ExitedWithCode(64), "at least one --item");
}

}  // namespace
}  // namespace telekit
