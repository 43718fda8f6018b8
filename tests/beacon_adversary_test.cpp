// Tests for the beacon-adversary subsystem (src/adversary/beacon/) and the
// mixed-coalition layer (src/adversary/coalition*): the behaviour signatures
// of the presets, the adaptive and grafting strategies, the
// deterministic budget partition, cross-stage blackboard sharing, and
// thread-count invariance of a mixed cross-stage coalition selected purely
// from the ScenarioSpec.
#include <gtest/gtest.h>

#include <cmath>

#include "adversary/beacon/profile.hpp"
#include "adversary/beacon/strategies.hpp"
#include "adversary/coalition.hpp"
#include "agreement/pipeline.hpp"
#include "counting/beacon/protocol.hpp"
#include "extra_layouts.hpp"
#include "graph/generators.hpp"
#include "runtime/experiment.hpp"
#include "runtime/fingerprint.hpp"

namespace bzc {
namespace {

// ---------------------------------------------------------------------------
// Shared fixture: one graph + Byzantine set + seed, different adversaries.
// ---------------------------------------------------------------------------

struct BeaconRun {
  Graph g;
  ByzantineSet byz;

  static BeaconRun make(std::size_t byzCount = 10) {
    Rng gen(70);
    Graph g = hnd(192, 8, gen);
    PlacementSpec spec;
    spec.kind = byzCount > 0 ? Placement::Random : Placement::None;
    spec.count = byzCount;
    Rng prng(71);
    ByzantineSet byz = placeByzantine(g, spec, prng);
    return {std::move(g), std::move(byz)};
  }

  [[nodiscard]] BeaconOutcome runGallery(const BeaconAdversaryProfile& profile) const {
    const auto adversary = makeBeaconAdversary(profile, g, byz);
    BeaconLimits limits;
    limits.maxPhase = 8;
    limits.maxTotalRounds = 20'000;
    Rng rng(72);
    return runBeaconCounting(g, byz, *adversary, {}, limits, rng);
  }
};

TEST(PresetMigration, StrategyStatsExposeTheBehaviourSignatures) {
  const BeaconRun fx = BeaconRun::make();
  const BeaconOutcome suppressed = fx.runGallery(BeaconAdversaryProfile::suppressor());
  EXPECT_GT(suppressed.stats.adversary.relaysSuppressed, 0u);
  EXPECT_GT(suppressed.stats.adversary.continuesSuppressed, 0u);
  EXPECT_EQ(suppressed.stats.adversary.beaconsForged, 0u);

  const BeaconOutcome tampered = fx.runGallery(BeaconAdversaryProfile::tamperer());
  EXPECT_GT(tampered.stats.adversary.relaysTampered, 0u);
  EXPECT_EQ(tampered.stats.adversary.relaysTampered, tampered.stats.adversary.beaconsForged);

  const BeaconOutcome spammed = fx.runGallery(BeaconAdversaryProfile::continueSpammer());
  EXPECT_GT(spammed.stats.adversary.continuesSpammed, 0u);
  EXPECT_EQ(spammed.stats.adversary.beaconsForged, 0u);
}

// ---------------------------------------------------------------------------
// Strategies beyond the fixed presets: adaptive flooding and prefix grafting.
// ---------------------------------------------------------------------------

TEST(AdaptiveFlooder, UnreachableToleranceIsThePlainFlooderBitForBit) {
  const BeaconRun fx = BeaconRun::make();
  const BeaconOutcome plain = fx.runGallery(BeaconAdversaryProfile::flooder());
  const BeaconOutcome adaptive =
      fx.runGallery(BeaconAdversaryProfile::adaptiveFlooder(~0ULL));
  EXPECT_EQ(fingerprint(plain.result, fx.g.numNodes()),
            fingerprint(adaptive.result, fx.g.numNodes()));
  EXPECT_EQ(plain.stats.beaconsForged, adaptive.stats.beaconsForged);
  EXPECT_EQ(adaptive.stats.adversary.pressureBackoffs, 0u);
}

TEST(AdaptiveFlooder, BlacklistPressureThrottlesForgingMonotonically) {
  const BeaconRun fx = BeaconRun::make();
  // Tolerance 0 backs off the moment the defence reacts; loosening the
  // tolerance monotonically restores forging, up to the plain flooder.
  const BeaconOutcome tight = fx.runGallery(BeaconAdversaryProfile::adaptiveFlooder(0));
  const BeaconOutcome mid = fx.runGallery(BeaconAdversaryProfile::adaptiveFlooder(400));
  const BeaconOutcome loose = fx.runGallery(BeaconAdversaryProfile::adaptiveFlooder(~0ULL));
  EXPECT_GT(tight.stats.adversary.pressureBackoffs, 0u);
  EXPECT_LT(tight.stats.beaconsForged, loose.stats.beaconsForged);
  EXPECT_LE(tight.stats.beaconsForged, mid.stats.beaconsForged);
  EXPECT_LE(mid.stats.beaconsForged, loose.stats.beaconsForged);
}

TEST(PrefixGrafter, SplicesHonestPrefixesInsteadOfFreshIds) {
  const BeaconRun fx = BeaconRun::make();
  const BeaconOutcome grafted = fx.runGallery(BeaconAdversaryProfile::prefixGrafter());
  const BeaconOutcome tampered = fx.runGallery(BeaconAdversaryProfile::tamperer());
  // The grafter replaces relays like the tamperer...
  EXPECT_GT(grafted.stats.adversary.relaysTampered, 0u);
  // ...but carries real honest IDs into its forged prefixes, where the
  // tamperer uses fresh fabricated IDs only.
  EXPECT_GT(grafted.stats.adversary.prefixGrafts, 0u);
  EXPECT_EQ(tampered.stats.adversary.prefixGrafts, 0u);
  EXPECT_NE(fingerprint(grafted.result, fx.g.numNodes()),
            fingerprint(tampered.result, fx.g.numNodes()));
}

// ---------------------------------------------------------------------------
// Mixed coalitions: partition, cross-stage blackboard, dispatch.
// ---------------------------------------------------------------------------

CoalitionPlan floodAndHuntPlan(double flooderShare = 0.5) {
  return CoalitionPlan::split(
      "beacon-flooders", flooderShare, BeaconAdversaryProfile::flooder(),
      AgreementAttackProfile::adaptiveMinority(), "walk-hunters",
      BeaconAdversaryProfile::none(), AgreementAttackProfile::hunter(2));
}

TEST(CoalitionPartition, SubsetsAreDisjointAndSizesSumToTheBudget) {
  Rng gen(80);
  const Graph g = hnd(256, 8, gen);
  PlacementSpec pspec;
  pspec.kind = Placement::Random;
  pspec.count = 23;  // odd budget: remainder distribution must still be exact
  Rng prng(81);
  const ByzantineSet byz = placeByzantine(g, pspec, prng);

  CoalitionPlan plan;
  plan.subsets.push_back({"a", 0.5, BeaconAdversaryProfile::flooder(),
                          AgreementAttackProfile::adaptiveMinority()});
  plan.subsets.push_back({"b", 0.3, BeaconAdversaryProfile::tamperer(),
                          AgreementAttackProfile::dropper()});
  plan.subsets.push_back({"c", 0.2, BeaconAdversaryProfile::none(),
                          AgreementAttackProfile::hunter(2)});
  const CoalitionAssignment assign = partitionBudget(plan, byz);

  ASSERT_EQ(assign.sizes.size(), 3u);
  std::size_t total = 0;
  for (std::size_t s : assign.sizes) total += s;
  EXPECT_EQ(total, byz.count());  // sizes sum to B exactly
  // Every Byzantine node belongs to exactly one subset; honest nodes to none.
  std::vector<std::size_t> counted(3, 0);
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    if (byz.contains(u)) {
      ASSERT_NE(assign.subsetOf[u], CoalitionAssignment::kNoSubset) << u;
      ++counted[assign.subsetOf[u]];
    } else {
      EXPECT_EQ(assign.subsetOf[u], CoalitionAssignment::kNoSubset) << u;
    }
  }
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(counted[s], assign.sizes[s]);
  // Shares 0.5/0.3/0.2 of 23: floors 11/6/4 = 21, remainder 2 -> 12/7/4.
  EXPECT_EQ(assign.sizes[0], 12u);
  EXPECT_EQ(assign.sizes[1], 7u);
  EXPECT_EQ(assign.sizes[2], 4u);
}

TEST(CoalitionPartition, ZeroShareSubsetsNeverReceiveRemainderBudget) {
  Rng gen(86);
  const Graph g = hnd(128, 8, gen);
  PlacementSpec pspec;
  pspec.kind = Placement::Random;
  pspec.count = 5;  // floors to {0, 2, 2}: the remainder must skip subset 0
  Rng prng(87);
  const ByzantineSet byz = placeByzantine(g, pspec, prng);
  CoalitionPlan plan;
  plan.subsets.push_back({"idle", 0.0, BeaconAdversaryProfile::full(),
                          AgreementAttackProfile::adaptiveMinority()});
  plan.subsets.push_back({"a", 1.0, BeaconAdversaryProfile::flooder(),
                          AgreementAttackProfile::adaptiveMinority()});
  plan.subsets.push_back({"b", 1.0, BeaconAdversaryProfile::none(),
                          AgreementAttackProfile::hunter(2)});
  const CoalitionAssignment assign = partitionBudget(plan, byz);
  EXPECT_EQ(assign.sizes[0], 0u);  // allocated nothing, gets nothing
  EXPECT_EQ(assign.sizes[1] + assign.sizes[2], byz.count());
}

TEST(CoalitionPartition, VictimAnchoringRespectsExplicitNodeZero) {
  // The sentinel means "the scenario's victim"; an explicit victim — node 0
  // included — always wins.
  const BeaconAdversaryProfile sentinel =
      BeaconAdversaryProfile::targetedFlooder(BeaconAdversaryProfile::kScenarioVictim, 3);
  EXPECT_EQ(anchorBeaconProfile(sentinel, 5).victim, 5u);
  const BeaconAdversaryProfile explicitZero = BeaconAdversaryProfile::targetedFlooder(0, 3);
  EXPECT_EQ(anchorBeaconProfile(explicitZero, 5).victim, 0u);
  // Unanchored sentinels must never reach the strategy factory.
  Rng gen(88);
  const Graph g = hnd(64, 8, gen);
  const ByzantineSet byz(64, {1});
  EXPECT_THROW((void)makeBeaconAdversary(sentinel, g, byz), std::invalid_argument);
}

TEST(CoalitionPartition, AssignmentIsDeterministic) {
  Rng gen(82);
  const Graph g = hnd(128, 8, gen);
  PlacementSpec pspec;
  pspec.kind = Placement::Random;
  pspec.count = 9;
  Rng prng(83);
  const ByzantineSet byz = placeByzantine(g, pspec, prng);
  const CoalitionPlan plan = floodAndHuntPlan();
  const CoalitionAssignment a = partitionBudget(plan, byz);
  const CoalitionAssignment b = partitionBudget(plan, byz);
  EXPECT_EQ(a.subsetOf, b.subsetOf);
  EXPECT_EQ(a.sizes, b.sizes);
}

TEST(CrossStageBlackboard, BeaconStageHitsAreVisibleInTheAgreementOutcome) {
  // A pipeline whose ONLY coalition-aware behaviour is the counting-stage
  // targeted flooder: the agreement stage's coalitionHits can be nonzero only
  // if both stages really share one blackboard.
  Rng gen(84);
  const Graph g = hnd(192, 8, gen);
  PlacementSpec pspec;
  pspec.kind = Placement::Surround;
  pspec.count = 16;
  pspec.victim = 3;
  pspec.moatRadius = 2;
  Rng prng(85);
  const ByzantineSet byz = placeByzantine(g, pspec, prng);

  // Surround mans the wall just OUTSIDE the moat radius (distance 3 here),
  // so the forging radius must reach it.
  const auto beacon = makeBeaconAdversary(BeaconAdversaryProfile::targetedFlooder(3, 3), g, byz);
  PipelineParams params;
  params.agreement.initialOnesFraction = 0.7;
  params.agreement.walkLengthFactor = 0.5;
  params.countingLimits.maxPhase = 8;
  params.countingLimits.maxTotalRounds = 20'000;
  Rng rng(86);
  const PipelineOutcome out =
      runCountingThenAgreement(g, byz, PipelineAdversaries{*beacon, nullptr}, params, rng);
  EXPECT_GT(out.counting.stats.adversary.beaconsForged, 0u);
  EXPECT_GT(out.agreement.adversary.coalitionHits, 0u);  // recorded by the counting stage
}

TEST(MixedCoalition, DispatchRoutesEachSubsetsBehaviour) {
  // 50/50 beacon-flooders + walk-hunters: the run must show BOTH signatures —
  // forged beacons in the counting stage and victim-targeted taints in the
  // agreement stage — while pure runs show only their own.
  ScenarioSpec spec;
  spec.name = "mixed-flood-hunt";
  spec.graph = {GraphKind::Hnd, 192, 8, 0.1};
  spec.placement.kind = Placement::Surround;
  spec.placement.count = 12;
  spec.placement.victim = 3;
  spec.placement.moatRadius = 2;
  spec.protocol = ProtocolKind::Pipeline;
  spec.pipelineParams.agreement.initialOnesFraction = 0.7;
  spec.pipelineParams.agreement.walkLengthFactor = 0.5;
  spec.pipelineParams.countingLimits.maxPhase = 8;
  spec.pipelineParams.countingLimits.maxTotalRounds = 20'000;
  spec.coalitionPlan = floodAndHuntPlan();
  spec.trials = 8;
  spec.masterSeed = 0xbeac;

  ExperimentRunner runner(2);
  const ExperimentSummary s = runner.run(spec);
  ASSERT_EQ(layouts::namesOf(s.extras), layouts::kAgreement);
  EXPECT_GT(s.extras.at("beaconForged").min, 0.0);    // flooder subset acted
  EXPECT_GT(s.extras.at("coalitionHits").min, 0.0);   // hunter subset acted
  EXPECT_DOUBLE_EQ(s.extras.at("coalitionSubsets").mean, 2.0);
  EXPECT_GE(s.extras.at("combinedScore").min, 0.0);
  EXPECT_LE(s.extras.at("combinedScore").max, 1.0);

  // Pure-hunter plan at the same budget: no beacon-stage forging.
  ScenarioSpec pureHunter = spec;
  pureHunter.name = "pure-hunt";
  pureHunter.coalitionPlan.subsets.clear();
  pureHunter.coalitionPlan.subsets.push_back(
      {"hunters", 1.0, BeaconAdversaryProfile::none(), AgreementAttackProfile::hunter(2)});
  const ExperimentSummary hunterOnly = runner.run(pureHunter);
  EXPECT_DOUBLE_EQ(hunterOnly.extras.at("beaconForged").max, 0.0);
  EXPECT_GT(hunterOnly.extras.at("coalitionHits").min, 0.0);
}

TEST(MixedCoalition, ScenarioIsThreadCountInvariantAt48Trials) {
  // The acceptance criterion: a mixed cross-stage coalition selected purely
  // from the ScenarioSpec, bit-identical at 1, 2 and 8 threads over 48 trials.
  ScenarioSpec spec;
  spec.name = "mixed-invariance";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Surround;
  spec.placement.count = 10;
  spec.placement.victim = 3;
  spec.placement.moatRadius = 2;
  spec.protocol = ProtocolKind::Pipeline;
  spec.pipelineParams.agreement.initialOnesFraction = 0.7;
  spec.pipelineParams.agreement.walkLengthFactor = 0.5;
  spec.pipelineParams.countingLimits.maxPhase = 8;
  spec.pipelineParams.countingLimits.maxTotalRounds = 20'000;
  spec.coalitionPlan = CoalitionPlan::split(
      "grafters", 0.5, BeaconAdversaryProfile::prefixGrafter(),
      AgreementAttackProfile::flipper(0.8), "hunters", BeaconAdversaryProfile::none(),
      AgreementAttackProfile::hunter(2));
  spec.trials = 48;
  spec.masterSeed = 0x50c1;

  ExperimentSummary byThreads[3];
  const unsigned counts[3] = {1, 2, 8};
  for (int t = 0; t < 3; ++t) {
    ExperimentRunner runner(counts[t]);
    byThreads[t] = runner.run(spec);
  }
  ASSERT_EQ(byThreads[0].perTrial.size(), 48u);
  for (int t = 1; t < 3; ++t) {
    EXPECT_EQ(byThreads[0].combinedFingerprint, byThreads[t].combinedFingerprint)
        << "mixed coalition diverged at " << counts[t] << " threads";
    for (std::size_t i = 0; i < 48; ++i) {
      EXPECT_EQ(byThreads[0].perTrial[i].resultFingerprint,
                byThreads[t].perTrial[i].resultFingerprint)
          << "trial " << i << " diverged at " << counts[t] << " threads";
    }
  }
  // Both subsets' signatures survive aggregation.
  EXPECT_GT(byThreads[0].extras.at("flipped").mean, 0.0);
  EXPECT_GT(byThreads[0].extras.at("coalitionHits").mean, 0.0);
}

TEST(Profiles, BeaconNamesAndKnobsRoundTrip) {
  EXPECT_STREQ(beaconAttackKindName(BeaconAttackKind::PrefixGrafter), "prefix-grafter");
  EXPECT_EQ(BeaconAdversaryProfile::flooder(5).fakePrefixLength, 5u);
  EXPECT_EQ(BeaconAdversaryProfile::targetedFlooder(9, 6).victim, 9u);
  EXPECT_EQ(BeaconAdversaryProfile::targetedFlooder(9, 6).forgeRadius, 6u);
  EXPECT_EQ(BeaconAdversaryProfile::adaptiveFlooder(17).pressureTolerance, 17u);
  EXPECT_EQ(BeaconAdversaryProfile::prefixGrafter(4).graftLength, 4u);
  EXPECT_EQ(BeaconAdversaryProfile::adaptiveFlooder().name, "adaptive-flooder");
  ScenarioSpec spec;
  EXPECT_EQ(spec.beaconAdversary.kind, BeaconAttackKind::None);
}

}  // namespace
}  // namespace bzc
