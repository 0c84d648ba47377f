#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace fdx {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::IOError("").code(),         Status::NumericalError("").code(),
      Status::Timeout("").code(),         Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 6u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  FDX_ASSIGN_OR_RETURN(int h, Half(x));
  FDX_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(3).ok());
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("xyz", ','), (std::vector<std::string>{"xyz"}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  const std::string text = "alpha,beta,gamma";
  EXPECT_EQ(Join(Split(text, ','), ","), text);
}

TEST(StringUtilTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  x y \t"), "x y");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace(" \n "), "");
}

TEST(StringUtilTest, ParseExactAndNumberFlags) {
  int64_t i = 0;
  double d = 0.0;
  EXPECT_TRUE(ParseExact("42", &i));
  EXPECT_TRUE(ParseExact("-7", &i));
  EXPECT_EQ(i, -7);
  EXPECT_FALSE(ParseExact("4.2", &i));
  EXPECT_FALSE(ParseExact("x", &i));
  EXPECT_FALSE(ParseExact("", &i));
  EXPECT_TRUE(ParseExact("4.2", &d));
  EXPECT_TRUE(ParseExact("-1e3", &d));
  EXPECT_EQ(d, -1e3);
  EXPECT_FALSE(ParseExact("4.2x", &d));
  EXPECT_FALSE(ParseExact("", &d));
  // Subnormals parse (strtod would flag them ERANGE); overflow does not.
  EXPECT_TRUE(ParseExact("9.9999999999999694e-311", &d));
  EXPECT_EQ(d, 1e-310);
  EXPECT_FALSE(ParseExact("1e999", &d));

  // Number flags: finite, whole, in range; the error names all three.
  const double kMax = std::numeric_limits<double>::max();
  EXPECT_EQ(ParseNumberFlag("--x", "0.25", 0, 1).value(), 0.25);
  EXPECT_EQ(ParseNumberFlag("--x", "-3", -kMax, kMax).value(), -3.0);
  EXPECT_EQ(ParseNumberFlag("--x", "7", 0, 1).status().message(),
            "--x must be a finite number in [0, 1], got \"7\"");
  EXPECT_EQ(ParseNumberFlag("--x", "-1", 0, kMax).status().message(),
            "--x must be a finite number >= 0, got \"-1\"");
  for (const char* bad : {"", "abc", "5s", "nan", "inf", "1e999", " 1"}) {
    EXPECT_EQ(ParseNumberFlag("--x", bad, -kMax, kMax).status().message(),
              std::string("--x must be a finite number, got \"") + bad + "\"");
  }
  double out = 2.0;
  Status error = Status::OK();
  EXPECT_FALSE(ConsumeNumberFlag("--xy=1", "--x", 0, 1, &out, &error));
  EXPECT_TRUE(ConsumeNumberFlag("--x=0.5", "--x", 0, 1, &out, &error));
  EXPECT_EQ(out, 0.5);
  EXPECT_TRUE(error.ok());
  EXPECT_TRUE(ConsumeNumberFlag("--x=2", "--x", 0, 1, &out, &error));
  EXPECT_EQ(out, 0.5);
  EXPECT_FALSE(error.ok());
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.12345, 3), "0.123");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(1000), b.NextUint64(1000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_difference = false;
  for (int i = 0; i < 50; ++i) {
    if (a.NextUint64(1 << 30) != b.NextUint64(1 << 30)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(RngTest, NextIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(13);
  std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextDiscrete(weights), 1u);
  }
  // Statistical sanity: heavily skewed draw.
  weights = {9.0, 1.0};
  int zeros = 0;
  for (int i = 0; i < 2000; ++i) {
    if (rng.NextDiscrete(weights) == 0) ++zeros;
  }
  EXPECT_GT(zeros, 1600);
  EXPECT_LT(zeros, 1990);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(StopwatchTest, Monotone) {
  Stopwatch w;
  const double t1 = w.ElapsedSeconds();
  const double t2 = w.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  EXPECT_NEAR(w.ElapsedMillis(), w.ElapsedSeconds() * 1e3, 5.0);
}

TEST(DeadlineTest, UnlimitedNeverExpires) {
  Deadline d = Deadline::Unlimited();
  EXPECT_FALSE(d.Expired());
}

TEST(DeadlineTest, TinyBudgetExpires) {
  Deadline d(1e-9);
  // Burn a little time.
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_TRUE(d.Expired());
}

}  // namespace
}  // namespace fdx
