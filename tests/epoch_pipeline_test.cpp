// Tests for pipelined epoch execution, whose depth is the trial's worker
// budget (DESIGN.md §11): paired bit-identity of budgets 2/4/8 against the
// budget-1 serial path across every churn model, the budget-beyond-recounts
// edge case, and invariance across runner widths (which set the budget). These
// are the pins behind the claim in DESIGN.md §11 that the depth is a pure
// scheduling choice — every field of ChurnTrialResult, including each
// EpochReport, must match exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "churn/epoch_runner.hpp"
#include "churn/schedule.hpp"
#include "extra_layouts.hpp"
#include "runtime/experiment.hpp"
#include "runtime/thread_pool.hpp"

namespace bzc {
namespace {

ScenarioSpec basePipelineSpec() {
  ScenarioSpec spec;
  spec.name = "epoch-pipeline";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 4;
  spec.protocol = ProtocolKind::Pipeline;
  spec.pipelineParams.agreement.initialOnesFraction = 0.7;
  spec.pipelineParams.agreement.walkLengthFactor = 0.5;
  spec.pipelineParams.estimateSafetyFactor = 1.5;
  spec.pipelineParams.countingLimits.maxPhase = 8;
  spec.pipelineParams.countingLimits.maxTotalRounds = 20'000;
  spec.trials = 4;
  spec.masterSeed = 0x9a;  // overridden per test
  return spec;
}

/// Every field of both EpochReports must agree — the pipeline may only change
/// *when* a recount executes, never what it computes.
void expectEpochReportsIdentical(const EpochReport& a, const EpochReport& b,
                                 const std::string& where) {
  EXPECT_EQ(a.epoch, b.epoch) << where;
  EXPECT_EQ(a.liveN, b.liveN) << where;
  EXPECT_EQ(a.byzCount, b.byzCount) << where;
  EXPECT_EQ(a.joins, b.joins) << where;
  EXPECT_EQ(a.leaves, b.leaves) << where;
  EXPECT_EQ(a.rewires, b.rewires) << where;
  EXPECT_EQ(a.recounted, b.recounted) << where;
  EXPECT_DOUBLE_EQ(a.estimate, b.estimate) << where;
  EXPECT_DOUBLE_EQ(a.staleness, b.staleness) << where;
  EXPECT_DOUBLE_EQ(a.drift, b.drift) << where;
  EXPECT_DOUBLE_EQ(a.spectralGap, b.spectralGap) << where;
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.messages, b.messages) << where;
  EXPECT_EQ(a.bits, b.bits) << where;
  EXPECT_DOUBLE_EQ(a.fracAgreeing, b.fracAgreeing) << where;
  EXPECT_EQ(a.fingerprint, b.fingerprint) << where;
}

void expectTrialResultsIdentical(const ChurnTrialResult& a, const ChurnTrialResult& b,
                                 const std::string& where) {
  EXPECT_EQ(a.outcome.resultFingerprint, b.outcome.resultFingerprint) << where;
  EXPECT_EQ(a.outcome.totalRounds, b.outcome.totalRounds) << where;
  EXPECT_EQ(a.outcome.totalMessages, b.outcome.totalMessages) << where;
  EXPECT_EQ(a.outcome.totalBits, b.outcome.totalBits) << where;
  EXPECT_EQ(a.outcome.hitRoundCap, b.outcome.hitRoundCap) << where;
  EXPECT_DOUBLE_EQ(a.outcome.quality.fracDecided, b.outcome.quality.fracDecided) << where;
  EXPECT_DOUBLE_EQ(a.outcome.quality.fracWithinWindow, b.outcome.quality.fracWithinWindow)
      << where;
  EXPECT_DOUBLE_EQ(a.outcome.quality.meanRatio, b.outcome.quality.meanRatio) << where;
  EXPECT_EQ(a.outcome.quality.maxDecisionRound, b.outcome.quality.maxDecisionRound) << where;
  ASSERT_EQ(layouts::namesOf(a.outcome.extra), layouts::namesOf(b.outcome.extra)) << where;
  for (const auto& [name, value] : a.outcome.extra) {
    EXPECT_DOUBLE_EQ(value, b.outcome.extra.at(name)) << where << " extra " << name;
  }
  ASSERT_EQ(a.epochs.size(), b.epochs.size()) << where;
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    expectEpochReportsIdentical(a.epochs[e], b.epochs[e], where + " epoch " + std::to_string(e));
  }
}

/// runChurnTrialDetailed with `budget` installed as the trial's worker budget,
/// as ExperimentRunner does around every trial.
ChurnTrialResult runAtBudget(const ScenarioSpec& spec, std::uint32_t trial, unsigned budget) {
  const WorkerBudgetScope scope(budget);
  return runChurnTrialDetailed(spec, trial);
}

TEST(EpochPipeline, PipelinedMatchesSequentialAcrossModelsAndBudgets) {
  // The tentpole pin: budgets {2, 4, 8} against the budget-1 serial path, for
  // each churn model, comparing the full detailed trajectory field by field.
  struct Model {
    const char* name;
    ChurnSchedule schedule;
  };
  const Model models[] = {
      {"steady", ChurnSchedule::steady(/*epochs=*/6, /*rate=*/0.08, /*recountEvery=*/1)},
      {"flashCrowd", ChurnSchedule::flashCrowd(/*epochs=*/6, /*fraction=*/0.4, /*atEpoch=*/3,
                                               /*recountEvery=*/2)},
      {"massExodus", ChurnSchedule::massExodus(/*epochs=*/6, /*fraction=*/0.3, /*atEpoch=*/3,
                                               /*recountEvery=*/2)},
      {"byzantine", ChurnSchedule::byzantine(/*epochs=*/6, /*honestRate=*/0.06,
                                             /*rejoinBoost=*/1.5, /*recountEvery=*/1)},
  };
  for (const Model& model : models) {
    ScenarioSpec spec = basePipelineSpec();
    spec.masterSeed = 0xd1f0;
    spec.churn = model.schedule;
    for (std::uint32_t trial = 0; trial < 3; ++trial) {
      const ChurnTrialResult serial = runAtBudget(spec, trial, 1);
      for (const unsigned budget : {2u, 4u, 8u}) {
        const ChurnTrialResult piped = runAtBudget(spec, trial, budget);
        expectTrialResultsIdentical(serial, piped,
                                    std::string(model.name) + " budget " +
                                        std::to_string(budget) + " trial " +
                                        std::to_string(trial));
      }
    }
  }
  EXPECT_EQ(trialWorkerBudget(), 1u);  // every scope restored the default
}

TEST(EpochPipeline, BudgetBeyondRecountCountIsIdentity) {
  // budget > epochs (and budget >> recount count under cadence) must clamp to
  // the available work without deadlock or divergence.
  ScenarioSpec spec = basePipelineSpec();
  spec.masterSeed = 0xdee9;
  spec.churn = ChurnSchedule::steady(/*epochs=*/3, /*rate=*/0.08, /*recountEvery=*/2);
  for (std::uint32_t trial = 0; trial < 2; ++trial) {
    const ChurnTrialResult serial = runAtBudget(spec, trial, 1);
    const ChurnTrialResult piped = runAtBudget(spec, trial, 8);  // > the 3-epoch trajectory
    expectTrialResultsIdentical(serial, piped,
                                "budget 8 over 3 epochs trial " + std::to_string(trial));
  }
}

TEST(EpochPipeline, ScenarioRunIsInvariantAcrossRunnerWidths) {
  // End-to-end through ExperimentRunner: 2 trials on 1/2/4/8-thread runners
  // get budgets 1/1/2/4, so the aggregated summary (fingerprints, cost
  // distributions, churn extras) is pinned across pipeline depths.
  ScenarioSpec spec = basePipelineSpec();
  spec.name = "pipelined-churn-invariance";
  spec.churn = ChurnSchedule::steady(/*epochs=*/4, /*rate=*/0.08, /*recountEvery=*/1);
  spec.trials = 2;
  spec.masterSeed = 0x51de;

  ExperimentRunner serialRunner(1);
  const ExperimentSummary base = serialRunner.run(spec);
  ASSERT_EQ(base.perTrial.size(), 2u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    ExperimentRunner runner(threads);
    const ExperimentSummary wide = runner.run(spec);
    EXPECT_EQ(base.combinedFingerprint, wide.combinedFingerprint) << threads << " threads";
    ASSERT_EQ(base.perTrial.size(), wide.perTrial.size());
    for (std::size_t i = 0; i < base.perTrial.size(); ++i) {
      EXPECT_EQ(base.perTrial[i].resultFingerprint, wide.perTrial[i].resultFingerprint)
          << threads << " threads, trial " << i;
    }
    ASSERT_EQ(layouts::namesOf(base.extras), layouts::namesOf(wide.extras));
    for (const auto& [name, d] : base.extras) {
      EXPECT_DOUBLE_EQ(d.mean, wide.extras.at(name).mean) << threads << " threads, extra " << name;
    }
  }
}

}  // namespace
}  // namespace bzc
