// Tests for the base utilities: RNG determinism and distribution, statistics
// accumulators, time conversions, logging plumbing.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/base/json.h"
#include "src/base/logging.h"
#include "src/base/panic.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/time.h"

namespace amber {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  // Bound 1 is always 0.
  EXPECT_EQ(rng.Below(1), 0u);
}

TEST(RngTest, BelowCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.Below(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(11);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // roughly uniform
}

TEST(RngTest, ReseedResetsSequence) {
  Rng rng(5);
  const uint64_t first = rng.Next();
  rng.Next();
  rng.Seed(5);
  EXPECT_EQ(rng.Next(), first);
}

TEST(AccumulatorTest, BasicMoments) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    acc.Add(v);
  }
  EXPECT_EQ(acc.count(), 8);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);  // sample stddev
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(AccumulatorTest, EmptyIsSafe) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0);
  EXPECT_EQ(acc.min(), 0.0);
  EXPECT_EQ(acc.max(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(AccumulatorTest, SingleSampleHasZeroVariance) {
  Accumulator acc;
  acc.Add(3.5);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.mean(), 3.5);
}

TEST(AccumulatorTest, ResetClears) {
  Accumulator acc;
  acc.Add(1);
  acc.Reset();
  EXPECT_EQ(acc.count(), 0);
}

TEST(SamplesTest, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(90), 90.1, 0.2);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
}

TEST(SamplesTest, AddAfterSortResorts) {
  Samples s;
  s.Add(10);
  s.Add(20);
  EXPECT_DOUBLE_EQ(s.Median(), 15.0);
  s.Add(0);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(s.Median(), 10.0);
}

TEST(SamplesTest, EmptyPercentilePanics) {
  Samples s;
  EXPECT_DEATH(s.Percentile(50), "empty");
}

TEST(PanicDeathTest, NoHookStillAborts) {
  // With no hook installed, Panic prints the message and aborts without any
  // "black box:" line — the hookless path must not touch the null hook.
  SetPanicHook(nullptr);
  EXPECT_DEATH(Panic("plain abort", "panic_test.cc", 7), "panic: plain abort at panic_test\\.cc:7");
}

TEST(PanicDeathTest, HookRunsAndPathIsAnnounced) {
  SetPanicHook([](const std::string& msg, const char* file, int line) {
    return std::string("HOOK_") + msg + "_" + std::to_string(line) + ".json";
  });
  EXPECT_DEATH(Panic("boom", "panic_test.cc", 9), "black box: HOOK_boom_9\\.json");
  SetPanicHook(nullptr);
}

TEST(PanicDeathTest, HookReturningEmptyPrintsNoBlackBoxLine) {
  // A hook that writes nothing returns "": Panic must treat it like the
  // no-hook case (no announcement) and still reach abort().
  SetPanicHook([](const std::string&, const char*, int) { return std::string(); });
  EXPECT_DEATH(Panic("quiet hook", "panic_test.cc", 11), "panic: quiet hook at panic_test\\.cc:11");
  SetPanicHook(nullptr);
}

TEST(CounterTest, AddAndReset) {
  Counter c;
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Millis(1.5), 1'500'000);
  EXPECT_EQ(Micros(2.0), 2'000);
  EXPECT_EQ(Seconds(0.001), Millis(1.0));
  EXPECT_DOUBLE_EQ(ToMillis(kSecond), 1000.0);
  EXPECT_DOUBLE_EQ(ToMicros(kMillisecond), 1000.0);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
}

TEST(JsonTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("l1\nl2\tx\r"), "l1\\nl2\\tx\\r");
  EXPECT_EQ(JsonEscape(std::string("x\x01y")), "x\\u0001y");
  EXPECT_EQ(JsonQuote("q\"\x01"), "\"q\\\"\\u0001\"");
}

TEST(JsonTest, NumbersAreExactWhenIntegral) {
  EXPECT_EQ(JsonNumber(0), "0");
  EXPECT_EQ(JsonNumber(-42), "-42");
  EXPECT_EQ(JsonNumber(1234567890123.0), "1234567890123");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  EXPECT_EQ(JsonNumber(1.0 / 3.0), "0.333333333");
  EXPECT_EQ(JsonNumber(std::nan("")), "0");
  EXPECT_EQ(JsonNumber(HUGE_VAL), "0");
}

TEST(LoggingTest, LevelGatesOutput) {
  const LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  // These must be no-ops (and cheap: the stream body is not evaluated).
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return "x";
  };
  AMBER_LOG(kDebug) << expensive();
  AMBER_LOG(kInfo) << expensive();
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(old);
}

TEST(LoggingTest, TimeSourceStampsLines) {
  SetLogTimeSource([]() -> int64_t { return 5'000'000; });
  AMBER_LOG(kError) << "stamped line (expected in test output)";
  SetLogTimeSource(nullptr);
}

}  // namespace
}  // namespace amber
