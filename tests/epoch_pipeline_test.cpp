// Tests for pipelined epoch execution on the trial's pool (DESIGN.md §11):
// paired bit-identity of one trial alone on 2/4/8-thread runners against the
// one-thread serial path across every churn model, the width-beyond-recounts
// edge case, and invariance of multi-trial runs across runner widths. These
// are the pins behind the claim in DESIGN.md §11 that the width is a pure
// scheduling choice — every field of ChurnTrialResult, including each
// EpochReport, must match exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "churn/epoch_runner.hpp"
#include "churn/schedule.hpp"
#include "counting/local/attacks.hpp"
#include "extra_layouts.hpp"
#include "runtime/experiment.hpp"

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

/// runChurnTrialDetailed as the one trial of a runner `width` threads wide.
ChurnTrialResult runAtWidth(const ScenarioSpec& spec, std::uint32_t trial, unsigned width) {
  ExperimentRunner runner(width);
  ChurnTrialResult result;
  (void)runner.runCustom(spec.name, 1, [&](std::uint32_t) {
    result = runChurnTrialDetailed(spec, trial);
    return result.outcome;
  });
  return result;
}

TEST(EpochPipeline, PipelinedMatchesSequentialAcrossModelsAndWidths) {
  // The tentpole pin: runner widths {2, 4, 8} against the one-thread serial
  // path, for each churn model, comparing the full detailed trajectory field
  // by field.
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
      const ChurnTrialResult serial = runAtWidth(spec, trial, 1);
      for (const unsigned width : {2u, 4u, 8u}) {
        const ChurnTrialResult piped = runAtWidth(spec, trial, width);
        expectTrialResultsIdentical(serial, piped,
                                    std::string(model.name) + " width " +
                                        std::to_string(width) + " trial " +
                                        std::to_string(trial));
      }
    }
  }
}

TEST(EpochPipeline, WidthBeyondRecountCountIsIdentity) {
  // width > epochs (and width >> recount count under cadence) leaves threads
  // idle, without deadlock or divergence.
  ScenarioSpec spec = basePipelineSpec();
  spec.masterSeed = 0xdee9;
  spec.churn = ChurnSchedule::steady(/*epochs=*/3, /*rate=*/0.08, /*recountEvery=*/2);
  for (std::uint32_t trial = 0; trial < 2; ++trial) {
    const ChurnTrialResult serial = runAtWidth(spec, trial, 1);
    const ChurnTrialResult piped = runAtWidth(spec, trial, 8);  // > the 3-epoch trajectory
    expectTrialResultsIdentical(serial, piped,
                                "width 8 over 3 epochs trial " + std::to_string(trial));
  }
}

TEST(EpochPipeline, ScenarioRunIsInvariantAcrossRunnerWidths) {
  // End-to-end through ExperimentRunner: 2 trials on 1/2/4/8-thread runners
  // share the pool with each other's recounts, and the aggregated summary
  // (fingerprints, cost distributions, churn extras) is pinned across widths.
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

/// The protocol-following adversary, counting its live instances: one is
/// alive exactly while a Local recount runs.
class CountedLocalAdversary final : public LocalAdversary {
 public:
  explicit CountedLocalAdversary(std::atomic<int>& live) : live_(live) { live_.fetch_add(1); }
  ~CountedLocalAdversary() override { live_.fetch_sub(1); }
  void prepare(LocalAttackContext& ctx) override { inner_->prepare(ctx); }
  Emission emit(NodeId b, Round r) override { return inner_->emit(b, r); }
  [[nodiscard]] bool relaysHonest() const override { return inner_->relaysHonest(); }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::atomic<int>& live_;
  std::unique_ptr<LocalAdversary> inner_ = makeHonestLocalAdversary();
};

TEST(EpochPipeline, FailedRecountRetiresTheTrialsOtherRecounts) {
  // The third recount to start throws. The trial rethrows from its epoch's
  // wait, but only after every other recount it submitted has finished: none
  // is alive or starts once run() returns, and the runner stays usable.
  ScenarioSpec spec;
  spec.name = "churn-local-throwing-recount";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.byzGamma = 0.5;
  spec.protocol = ProtocolKind::Local;
  spec.churn = ChurnSchedule::steady(/*epochs=*/12, /*rate=*/0.08, /*recountEvery=*/1);
  spec.trials = 1;
  spec.masterSeed = 0x7e7a;
  std::atomic<int> calls{0}, live{0};
  ScenarioSpec throwing = spec;
  throwing.localAdversary = [&calls, &live]() -> std::unique_ptr<LocalAdversary> {
    if (calls.fetch_add(1) == 2) throw std::runtime_error("third recount");
    return std::make_unique<CountedLocalAdversary>(live);
  };

  ExperimentRunner runner(4);
  EXPECT_THROW((void)runner.run(throwing), std::runtime_error);
  const int callsAtReturn = calls.load();
  EXPECT_EQ(live.load(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(calls.load(), callsAtReturn);
  EXPECT_EQ(live.load(), 0);

  const ExperimentSummary clean = runner.run(spec);
  const ExperimentSummary serial = ExperimentRunner(1).run(spec);
  ASSERT_EQ(clean.perTrial.size(), 1u);
  EXPECT_EQ(clean.perTrial[0].resultFingerprint, serial.perTrial[0].resultFingerprint);
  EXPECT_EQ(clean.extras.at("recounts").mean, 12.0);
}

}  // namespace
}  // namespace bzc
