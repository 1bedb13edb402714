// Unit tests for ns_common: errors/results, strings, config, rng, clock, log.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace ns {
namespace {

// ---- Result / Error ----

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = make_error(ErrorCode::kTimeout, "too slow");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kTimeout);
  EXPECT_EQ(r.error().message, "too slow");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, ValueThrowsOnError) {
  Result<int> r = make_error(ErrorCode::kInternal, "boom");
  EXPECT_THROW((void)r.value(), BadResultAccess);
}

TEST(ResultTest, VoidSpecialization) {
  Status ok = ok_status();
  EXPECT_TRUE(ok.ok());
  Status bad = make_error(ErrorCode::kProtocol, "bad");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kProtocol);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(ErrorTest, ToStringIncludesCodeAndMessage) {
  const Error e = make_error(ErrorCode::kNoServer, "nothing alive");
  EXPECT_EQ(e.to_string(), "NO_SERVER: nothing alive");
  const Error bare = make_error(ErrorCode::kTimeout);
  EXPECT_EQ(bare.to_string(), "TIMEOUT");
}

TEST(ErrorTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(error_code_name(static_cast<ErrorCode>(c)), "UNKNOWN") << "code " << c;
  }
}

TEST(ErrorTest, RetryabilityClassification) {
  EXPECT_TRUE(is_retryable(ErrorCode::kConnectFailed));
  EXPECT_TRUE(is_retryable(ErrorCode::kConnectionClosed));
  EXPECT_TRUE(is_retryable(ErrorCode::kTimeout));
  EXPECT_TRUE(is_retryable(ErrorCode::kServerFailure));
  EXPECT_TRUE(is_retryable(ErrorCode::kServerOverloaded));
  EXPECT_FALSE(is_retryable(ErrorCode::kBadArguments));
  EXPECT_FALSE(is_retryable(ErrorCode::kUnknownProblem));
  EXPECT_FALSE(is_retryable(ErrorCode::kExecutionFailed));
  EXPECT_FALSE(is_retryable(ErrorCode::kProtocol));
}

// ---- strings ----

TEST(StringsTest, Trim) {
  EXPECT_EQ(strings::trim("  hi  "), "hi");
  EXPECT_EQ(strings::trim("hi"), "hi");
  EXPECT_EQ(strings::trim("\t\n hi \r"), "hi");
  EXPECT_EQ(strings::trim("   "), "");
  EXPECT_EQ(strings::trim(""), "");
}

TEST(StringsTest, SplitPreservesEmptyFields) {
  const auto parts = strings::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitWsSkipsRuns) {
  const auto parts = strings::split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, PrefixSuffix) {
  EXPECT_TRUE(strings::starts_with("foobar", "foo"));
  EXPECT_FALSE(strings::starts_with("fo", "foo"));
  EXPECT_TRUE(strings::ends_with("foobar", "bar"));
  EXPECT_FALSE(strings::ends_with("ar", "bar"));
}

TEST(StringsTest, ParseIntStrict) {
  EXPECT_EQ(strings::parse_int("42").value(), 42);
  EXPECT_EQ(strings::parse_int("-7").value(), -7);
  EXPECT_EQ(strings::parse_int("  42  ").value(), 42);
  EXPECT_FALSE(strings::parse_int("42x").has_value());
  EXPECT_FALSE(strings::parse_int("").has_value());
  EXPECT_FALSE(strings::parse_int("4.2").has_value());
}

TEST(StringsTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(strings::parse_double("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(strings::parse_double("-1e3").value(), -1000.0);
  EXPECT_FALSE(strings::parse_double("abc").has_value());
  EXPECT_FALSE(strings::parse_double("1.5junk").has_value());
}

TEST(StringsTest, Formatters) {
  EXPECT_EQ(strings::format_bytes(512), "512.00 B");
  EXPECT_EQ(strings::format_bytes(2048), "2.00 KiB");
  EXPECT_NE(strings::format_seconds(0.5).find("ms"), std::string::npos);
  EXPECT_NE(strings::format_seconds(2.0).find("s"), std::string::npos);
  EXPECT_NE(strings::format_seconds(5e-6).find("us"), std::string::npos);
}

// ---- config ----

TEST(ConfigTest, ParseBasics) {
  auto cfg = Config::parse("a = 1\nb=two\n# comment\n\nc = 3.5 # trailing\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg.value().get_int_or("a", 0), 1);
  EXPECT_EQ(cfg.value().get_or("b", ""), "two");
  EXPECT_DOUBLE_EQ(cfg.value().get_double_or("c", 0), 3.5);
  EXPECT_FALSE(cfg.value().contains("d"));
}

TEST(ConfigTest, ParseErrors) {
  EXPECT_FALSE(Config::parse("novalue\n").ok());
  EXPECT_FALSE(Config::parse("= empty key\n").ok());
}

TEST(ConfigTest, Bools) {
  auto cfg = Config::parse("t1=true\nt2=1\nt3=yes\nf1=false\nf2=off\njunk=maybe\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_TRUE(cfg.value().get_bool_or("t1", false));
  EXPECT_TRUE(cfg.value().get_bool_or("t2", false));
  EXPECT_TRUE(cfg.value().get_bool_or("t3", false));
  EXPECT_FALSE(cfg.value().get_bool_or("f1", true));
  EXPECT_FALSE(cfg.value().get_bool_or("f2", true));
  EXPECT_TRUE(cfg.value().get_bool_or("junk", true)) << "unparseable keeps fallback";
  EXPECT_TRUE(cfg.value().get_bool_or("missing", true));
}

TEST(ConfigTest, FromArgsAndMerge) {
  const char* argv[] = {"policy=mct", "servers=4"};
  auto cfg = Config::from_args(2, argv);
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg.value().get_or("policy", ""), "mct");

  auto base = Config::parse("policy=random\nport=9000\n").value();
  base.merge(cfg.value());
  EXPECT_EQ(base.get_or("policy", ""), "mct") << "args override file";
  EXPECT_EQ(base.get_int_or("port", 0), 9000);
}

TEST(ConfigTest, FromArgsRejectsBadShape) {
  const char* argv[] = {"notakeyvalue"};
  EXPECT_FALSE(Config::from_args(1, argv).ok());
}

// ---- rng ----

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u) << "all values of a small range should appear";
}

TEST(RngTest, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.03);
}

// ---- clock ----

TEST(ClockTest, StopwatchMeasuresSleep) {
  const Stopwatch watch;
  sleep_seconds(0.02);
  const double t = watch.elapsed();
  EXPECT_GE(t, 0.018);
  EXPECT_LT(t, 0.5);
}

TEST(ClockTest, BusySpinApproximatesTarget) {
  const double actual = busy_spin_seconds(0.01);
  EXPECT_GE(actual, 0.0099);
  EXPECT_LT(actual, 0.1);
  EXPECT_EQ(busy_spin_seconds(0.0), 0.0);
  EXPECT_EQ(busy_spin_seconds(-1.0), 0.0);
}

TEST(ClockTest, DeadlineExpiry) {
  Deadline d(0.02);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), 0.0);
  sleep_seconds(0.03);
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), 0.0);
}

TEST(ClockTest, NeverDeadline) {
  const Deadline d = Deadline::never();
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), 1e12);
}

// ---- log ----

namespace nslog = ::ns::log;  // `log` alone collides with std::log from <cmath>

TEST(LogTest, ParseLevels) {
  using nslog::Level;
  EXPECT_EQ(nslog::parse_level("trace"), Level::kTrace);
  EXPECT_EQ(nslog::parse_level("debug"), Level::kDebug);
  EXPECT_EQ(nslog::parse_level("info"), Level::kInfo);
  EXPECT_EQ(nslog::parse_level("warn"), Level::kWarn);
  EXPECT_EQ(nslog::parse_level("error"), Level::kError);
  EXPECT_EQ(nslog::parse_level("off"), Level::kOff);
  EXPECT_EQ(nslog::parse_level("bogus"), Level::kWarn);
}

TEST(LogTest, ThresholdGatesEnabled) {
  const auto saved = nslog::threshold();
  nslog::set_threshold(nslog::Level::kError);
  EXPECT_FALSE(nslog::enabled(nslog::Level::kInfo));
  EXPECT_TRUE(nslog::enabled(nslog::Level::kError));
  nslog::set_threshold(saved);
}

}  // namespace
}  // namespace ns
