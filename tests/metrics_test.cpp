// Tests for the analytics layer (DESIGN.md §13): the seeded-bootstrap CIs on
// Distribution are bitwise thread-count invariant, degenerate to the mean for
// a single trial, and a pure function of the sample and the bootstrap seed.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/experiment.hpp"
#include "support/rng.hpp"

namespace bzc {
namespace {

/// A small static beacon scenario; each test sets its trial count.
ScenarioSpec bootstrapSpec() {
  ScenarioSpec spec;
  spec.name = "bootstrap";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 4;
  spec.protocol = ProtocolKind::Beacon;
  spec.beaconLimits.maxPhase = 8;
  spec.beaconLimits.maxTotalRounds = 20'000;
  spec.masterSeed = 0xb5;
  return spec;
}

// ---------------------------------------------------------------------------
// Bootstrap CIs: seeded in the serial aggregation pass, so thread-count
// invariant bitwise; degenerate (= mean) for a single trial.
// ---------------------------------------------------------------------------

TEST(BootstrapCi, ThreadCountInvariantBitwise) {
  ScenarioSpec spec = bootstrapSpec();
  spec.trials = 6;
  ExperimentRunner one(1);
  ExperimentRunner eight(8);
  const ExperimentSummary a = one.run(spec);
  const ExperimentSummary b = eight.run(spec);
  EXPECT_EQ(a.combinedFingerprint, b.combinedFingerprint);
  const auto expectSame = [](const Distribution& x, const Distribution& y) {
    EXPECT_EQ(x.mean, y.mean);
    EXPECT_EQ(x.stddev, y.stddev);
    EXPECT_EQ(x.ci95lo, y.ci95lo);
    EXPECT_EQ(x.ci95hi, y.ci95hi);
  };
  expectSame(a.fracDecided, b.fracDecided);
  expectSame(a.totalRounds, b.totalRounds);
  expectSame(a.totalMessages, b.totalMessages);
  // With several distinct trials the interval is a real interval around the
  // mean, not a placeholder.
  EXPECT_LE(a.totalRounds.ci95lo, a.totalRounds.mean);
  EXPECT_GE(a.totalRounds.ci95hi, a.totalRounds.mean);
  EXPECT_LT(a.totalRounds.ci95lo, a.totalRounds.ci95hi);
  EXPECT_GT(a.totalRounds.stddev, 0.0);
}

TEST(BootstrapCi, SingleTrialDegeneratesToMean) {
  ScenarioSpec spec = bootstrapSpec();
  spec.trials = 1;
  ExperimentRunner runner(2);
  const ExperimentSummary s = runner.run(spec);
  EXPECT_EQ(s.totalRounds.stddev, 0.0);
  EXPECT_EQ(s.totalRounds.ci95lo, s.totalRounds.mean);
  EXPECT_EQ(s.totalRounds.ci95hi, s.totalRounds.mean);
}

TEST(BootstrapCi, DistributionOverloadIsDeterministic) {
  const std::vector<double> sample = {1.0, 4.0, 2.0, 8.0, 5.0};
  const Distribution a = Distribution::of(sample, Rng(42));
  const Distribution b = Distribution::of(sample, Rng(42));
  EXPECT_EQ(a.ci95lo, b.ci95lo);
  EXPECT_EQ(a.ci95hi, b.ci95hi);
  EXPECT_LT(a.ci95lo, a.ci95hi);
  // A different bootstrap seed moves the interval, not the moments.
  const Distribution c = Distribution::of(sample, Rng(43));
  EXPECT_EQ(a.mean, c.mean);
  EXPECT_EQ(a.stddev, c.stddev);
  EXPECT_TRUE(c.ci95lo != a.ci95lo || c.ci95hi != a.ci95hi);
}

}  // namespace
}  // namespace bzc
