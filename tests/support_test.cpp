// Unit tests for the support layer: deterministic RNG, statistics, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>

#include "obs/trace.hpp"
#include "support/knob.hpp"
#include "support/log.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace bzc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent(7);
  Rng childBefore = parent.fork(3);
  const std::uint64_t firstDraw = childBefore.next();
  // Forking with the same tag from the same parent state reproduces.
  Rng parent2(7);
  Rng childAgain = parent2.fork(3);
  EXPECT_EQ(childAgain.next(), firstDraw);
}

TEST(Rng, ForkDifferentTagsDecorrelated) {
  Rng parent(7);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(13);
  std::vector<int> counts(8, 0);
  const int draws = 80000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, draws / 8, draws / 8 * 0.1);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(19);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(draws), 0.3, 0.02);
}

TEST(Rng, GeometricMeanIsTwo) {
  Rng rng(29);
  double sum = 0;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) sum += rng.geometricFlips();
  EXPECT_NEAR(sum / draws, 2.0, 0.05);
}

TEST(Rng, GeometricMinimumIsOne) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.geometricFlips(), 1u);
}

TEST(Rng, ExponentialMeanIsOne) {
  Rng rng(37);
  double sum = 0;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) sum += rng.exponential();
  EXPECT_NEAR(sum / draws, 1.0, 0.03);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(41);
  const auto perm = rng.permutation(100);
  std::set<std::uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(43);
  const auto sample = rng.sampleWithoutReplacement(50, 20);
  std::set<std::uint32_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 20u);
  for (auto v : sample) EXPECT_LT(v, 50u);
}

TEST(Rng, SampleWholePopulation) {
  Rng rng(47);
  const auto sample = rng.sampleWithoutReplacement(10, 10);
  std::set<std::uint32_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, SampleTooLargeThrows) {
  Rng rng(53);
  EXPECT_THROW((void)rng.sampleWithoutReplacement(5, 6), std::invalid_argument);
}

TEST(RunningStat, MatchesDirectComputation) {
  RunningStat stat;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0;
  for (double x : xs) {
    stat.add(x);
    sum += x;
  }
  EXPECT_EQ(stat.count(), xs.size());
  EXPECT_DOUBLE_EQ(stat.mean(), sum / xs.size());
  EXPECT_DOUBLE_EQ(stat.min(), 1.0);
  EXPECT_DOUBLE_EQ(stat.max(), 16.0);
  // Sample variance by hand.
  double ss = 0;
  for (double x : xs) ss += (x - stat.mean()) * (x - stat.mean());
  EXPECT_NEAR(stat.variance(), ss / (xs.size() - 1), 1e-9);
}

TEST(RunningStat, MergeEqualsSequential) {
  RunningStat a;
  RunningStat b;
  RunningStat all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeEmptySides) {
  RunningStat a;
  a.add(3.0);
  a.add(5.0);

  RunningStat empty;
  a.merge(empty);  // empty right side is a no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_NEAR(a.variance(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);

  RunningStat b;
  b.merge(a);  // empty left side adopts the right side wholesale
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 4.0);
  EXPECT_NEAR(b.variance(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(b.min(), 3.0);
  EXPECT_DOUBLE_EQ(b.max(), 5.0);

  RunningStat c;
  RunningStat d;
  c.merge(d);  // both empty stays empty, not NaN
  EXPECT_EQ(c.count(), 0u);
  EXPECT_EQ(c.mean(), 0.0);
  EXPECT_EQ(c.variance(), 0.0);
}

TEST(RunningStat, MergeSingleElementSides) {
  // Two singletons combine into an exact two-sample stat: the Chan update
  // must not lose the cross term when either m2 is still zero.
  RunningStat a;
  RunningStat b;
  a.add(2.0);
  b.add(6.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_NEAR(a.variance(), 8.0, 1e-12);  // ((2-4)^2 + (6-4)^2) / (2-1)
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);

  // Singleton merged into a larger side matches the sequential stat.
  RunningStat seq;
  for (const double x : {2.0, 6.0, 7.0}) seq.add(x);
  RunningStat single;
  single.add(7.0);
  a.merge(single);
  EXPECT_EQ(a.count(), seq.count());
  EXPECT_NEAR(a.mean(), seq.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), seq.variance(), 1e-12);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.variance(), 0.0);
}

TEST(Quantile, OrderStatistics) {
  std::vector<double> xs = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
}

TEST(Quantile, SingleElement) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.3), 7.0);
}

TEST(Quantile, EmptyThrows) {
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
}

TEST(FitLinear, ExactLine) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double v : x) y.push_back(3.0 * v - 2.0);
  const LinearFit fit = fitLinear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, -2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(FitLinear, NoisyLineHighR2) {
  Rng rng(59);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + 5.0 + (rng.uniformDouble() - 0.5));
  }
  const LinearFit fit = fitLinear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.01);
  EXPECT_GT(fit.r2, 0.999);
}

TEST(FitLinear, MismatchedSizesThrow) {
  EXPECT_THROW((void)fitLinear({1, 2}, {1}), std::invalid_argument);
  EXPECT_THROW((void)fitLinear({1}, {1}), std::invalid_argument);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bin 0
  h.add(9.9);    // bin 4
  h.add(-3.0);   // clamps to bin 0
  h.add(100.0);  // clamps to bin 4
  h.add(5.0);    // bin 2
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(2), 1u);
  EXPECT_EQ(h.bin(4), 2u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_FALSE(h.render().empty());
}

TEST(Histogram, InvalidRangeThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.addRow({"alpha", Table::num(1.5, 1)});
  t.addRow({"a-very-long-name", Table::integer(42)});
  const std::string rendered = t.render();
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("1.5"), std::string::npos);
  EXPECT_NE(rendered.find("42"), std::string::npos);
  // Header separator present.
  EXPECT_NE(rendered.find("|--"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
}

TEST(Table, FormattersProduceExpectedText) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::integer(-7), "-7");
  EXPECT_EQ(Table::percent(0.5, 0), "50%");
}

TEST(Knob, ParsesWholeDecimalIntegersInRange) {
  EXPECT_EQ(parseUnsigned("12", 1, 100), 12u);
  EXPECT_EQ(parseUnsigned("0", 0, 100), 0u);
  EXPECT_EQ(parseUnsigned("007", 1, 100), 7u);
  EXPECT_EQ(parseUnsigned("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(parseUnsigned("100", 1, 100), 100u);
}

TEST(Knob, RejectsGarbageAndOutOfRange) {
  for (const char* bad : {"", "abc", "1e6", "12x", " 5", "5 ", "+5", "-1", "0x10", "1.5",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parseUnsigned(bad, 0, UINT64_MAX).has_value()) << '"' << bad << '"';
  }
  EXPECT_FALSE(parseUnsigned("0", 1, 100).has_value());
  EXPECT_FALSE(parseUnsigned("101", 1, 100).has_value());
  EXPECT_FALSE(parseUnsigned("4294967296", 1, UINT32_MAX).has_value());
}

TEST(Knob, EnvKnobFallsBackWhenUnsetAndReadsValidValues) {
  ::unsetenv("BZC_TEST_KNOB");
  EXPECT_EQ(envKnob("BZC_TEST_KNOB", 5, 1, 100), 5u);
  ::setenv("BZC_TEST_KNOB", "42", 1);
  EXPECT_EQ(envKnob("BZC_TEST_KNOB", 5, 1, 100), 42u);
  ::unsetenv("BZC_TEST_KNOB");
}

TEST(Knob, EnvChoiceIndexesAcceptedValuesAndReadsEmptyAsUnset) {
  ::unsetenv("BZC_TEST_KNOB");
  EXPECT_EQ(envChoice("BZC_TEST_KNOB", {"text", "json"}), std::nullopt);
  ::setenv("BZC_TEST_KNOB", "", 1);
  EXPECT_EQ(envChoice("BZC_TEST_KNOB", {"text", "json"}), std::nullopt);
  ::setenv("BZC_TEST_KNOB", "json", 1);
  EXPECT_EQ(envChoice("BZC_TEST_KNOB", {"text", "json"}), 1u);
  ::unsetenv("BZC_TEST_KNOB");
}

TEST(Knob, ArgKnobFallsBackPastArgcAndReadsValidValues) {
  char prog[] = "prog";
  char value[] = "42";
  char* argv[] = {prog, value, nullptr};
  EXPECT_EQ(argKnob(2, argv, 1, "n", 5, 1, 100), 42u);
  EXPECT_EQ(argKnob(2, argv, 2, "seed", 5, 1, 100), 5u);
  EXPECT_EQ(argKnob(1, argv, 1, "n", 5, 1, 100), 5u);
}

TEST(KnobDeathTest, EnvKnobExitsOnGarbage) {
  for (const char* bad : {"1e6", "abc", "0", ""}) {
    ::setenv("BZC_TEST_KNOB", bad, 1);
    EXPECT_EXIT((void)envKnob("BZC_TEST_KNOB", 5, 1, 100), ::testing::ExitedWithCode(2),
                "BZC_TEST_KNOB");
  }
  ::unsetenv("BZC_TEST_KNOB");
}

TEST(KnobDeathTest, ArgKnobExitsOnGarbage) {
  // "1e3" is the case atoi read as 1; "4096x" the one it read as 4096.
  for (const char* bad : {"1e3", "4096x", "abc", "0", "101", ""}) {
    std::string text = bad;
    char prog[] = "prog";
    char* argv[] = {prog, text.data(), nullptr};
    EXPECT_EXIT((void)argKnob(2, argv, 1, "n", 5, 1, 100), ::testing::ExitedWithCode(2),
                "n='" + text + "'");
  }
}

// The trace knobs parse through envKnob too: "1e3" and "-3" are the values
// atoi read as 1 trial, "false" the one a first-character check read as on.
// The threadsafe style re-runs each child from main, so every child gets a
// fresh once-per-process ensureEnvTraceConfig.
TEST(KnobDeathTest, TraceTrialsExitsOnGarbage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* bad : {"abc", "-3", "1e3", "0", "4294967296", ""}) {
    ::setenv("BZC_TRACE_TRIALS", bad, 1);
    EXPECT_EXIT(obs::ensureEnvTraceConfig(), ::testing::ExitedWithCode(2), "BZC_TRACE_TRIALS");
  }
  ::unsetenv("BZC_TRACE_TRIALS");
}

TEST(KnobDeathTest, TraceFlowExitsOnGarbage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* bad : {"false", "true", "2", "-1", ""}) {
    ::setenv("BZC_TRACE_FLOW", bad, 1);
    EXPECT_EXIT(obs::ensureEnvTraceConfig(), ::testing::ExitedWithCode(2), "BZC_TRACE_FLOW");
  }
  ::unsetenv("BZC_TRACE_FLOW");
}

// An unopenable record path exits like a bad knob, before any trial runs,
// instead of throwing from a runner worker and aborting the process.
TEST(KnobDeathTest, TraceExitsOnUnopenablePath) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("BZC_TRACE", "/nonexistent/dir/x.jsonl", 1);
  EXPECT_EXIT(obs::ensureEnvTraceConfig(), ::testing::ExitedWithCode(2),
              "BZC_TRACE: cannot open /nonexistent/dir/x.jsonl");
  ::unsetenv("BZC_TRACE");
}

// BZC_LOG is read during static initialisation, so the threadsafe style's
// re-executed child exits before main, whatever the statement.
TEST(KnobDeathTest, LogExitsOnGarbage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* bad : {"verbose", "WARN", "3"}) {
    ::setenv("BZC_LOG", bad, 1);
    EXPECT_EXIT((void)logLevel(), ::testing::ExitedWithCode(2),
                "BZC_LOG='" + std::string(bad) + "': expected one of trace.debug.info.warn");
  }
  ::unsetenv("BZC_LOG");
}

// BZC_ASSERT is live in debug builds and in -DBZC_CHECKED=ON builds, and
// compiled out otherwise; either way kAssertsLive says which. A run that
// needs live asserts (the checked CI job) sets BZC_EXPECT_ASSERTS=1, so a
// checked build whose option no longer reaches the compiler fails here
// instead of passing as a plain Release build.
TEST(Require, AssertFiresExactlyWhenLive) {
  const char* expect = std::getenv("BZC_EXPECT_ASSERTS");
  if (expect != nullptr && std::string(expect) == "1") {
    EXPECT_TRUE(kAssertsLive) << "BZC_EXPECT_ASSERTS=1 but BZC_ASSERT is compiled out";
  }
  if (kAssertsLive) {
    EXPECT_THROW(BZC_ASSERT(1 + 1 == 3), std::logic_error);
  } else {
    EXPECT_NO_THROW(BZC_ASSERT(1 + 1 == 3));
  }
  EXPECT_NO_THROW(BZC_ASSERT(1 + 1 == 2));
}

}  // namespace
}  // namespace bzc
