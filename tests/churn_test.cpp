// Tests for the dynamic-network churn subsystem (src/churn/): overlay
// regularity-repair invariants, churn-model event shapes, epoch-stream
// determinism and thread-count invariance from ScenarioSpec, and the paired
// zero-churn identity against the static pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "churn/churn_model.hpp"
#include "churn/dynamic_overlay.hpp"
#include "churn/epoch_runner.hpp"
#include "extra_layouts.hpp"
#include "graph/generators.hpp"
#include "runtime/experiment.hpp"

namespace bzc {
namespace {

DynamicOverlay makeOverlay(NodeId n, NodeId d, std::uint64_t seed,
                           std::size_t byzCount = 0) {
  Rng g(seed);
  const Graph graph = hnd(n, d, g);
  std::vector<NodeId> byzMembers;
  for (NodeId u = 0; u < byzCount; ++u) byzMembers.push_back(u * 3 % n);
  std::sort(byzMembers.begin(), byzMembers.end());
  byzMembers.erase(std::unique(byzMembers.begin(), byzMembers.end()), byzMembers.end());
  return DynamicOverlay(graph, ByzantineSet(n, byzMembers), d);
}

/// Full invariant audit: exact d-regularity, no self-loops, stub conservation
/// (2|E| == d * n), and a Graph materialisation that satisfies the same.
void expectRegularInvariants(const DynamicOverlay& overlay) {
  const NodeId d = overlay.targetDegree();
  EXPECT_EQ(overlay.degreeDeficit(), 0u);
  EXPECT_EQ(2 * overlay.edgeCount(), static_cast<std::size_t>(d) * overlay.liveCount());
  const OverlaySnapshot snap = overlay.snapshot();  // Graph ctor rejects self-loops
  ASSERT_EQ(snap.graph.numNodes(), overlay.liveCount());
  for (NodeId u = 0; u < snap.graph.numNodes(); ++u) {
    EXPECT_EQ(snap.graph.degree(u), d);
    for (NodeId v : snap.graph.neighbors(u)) EXPECT_NE(v, u);
  }
  EXPECT_EQ(snap.byz.count(), overlay.byzCount());
}

// ---------------------------------------------------------------------------
// DynamicOverlay repair invariants.
// ---------------------------------------------------------------------------

TEST(DynamicOverlay, SeedsFromGraphAsIdentity) {
  Rng g(11);
  const Graph graph = hnd(64, 8, g);
  const ByzantineSet byz(64, {1, 5, 9});
  DynamicOverlay overlay(graph, byz, 8);
  EXPECT_EQ(overlay.liveCount(), 64u);
  EXPECT_EQ(overlay.byzCount(), 3u);
  const OverlaySnapshot snap = overlay.snapshot();
  // Graph CSR form is canonical in the edge multiset, so the round-trip is
  // exact — the property the zero-churn identity rides on.
  EXPECT_EQ(snap.graph.edgeList(), graph.edgeList());
  EXPECT_EQ(snap.byz.members(), byz.members());
  expectRegularInvariants(overlay);
}

TEST(DynamicOverlay, LeaveRepairsBackToRegularity) {
  DynamicOverlay overlay = makeOverlay(96, 8, 21);
  Rng rng(77);
  for (std::uint64_t id : {5ULL, 17ULL, 42ULL, 43ULL, 80ULL}) {
    ASSERT_TRUE(overlay.leave(id, rng));
    overlay.repairToRegular(rng);
    expectRegularInvariants(overlay);
  }
  EXPECT_EQ(overlay.liveCount(), 91u);
  EXPECT_FALSE(overlay.isLive(42));
}

TEST(DynamicOverlay, JoinWiresToFullDegree) {
  DynamicOverlay overlay = makeOverlay(64, 8, 22);
  Rng rng(78);
  const std::uint64_t id = overlay.join(false, rng);
  EXPECT_EQ(id, 64u);  // global ids are monotone
  EXPECT_TRUE(overlay.isLive(id));
  EXPECT_EQ(overlay.degreeOf(id), 8u);
  expectRegularInvariants(overlay);
  // A Byzantine join is flagged.
  const std::uint64_t byzId = overlay.join(true, rng);
  EXPECT_EQ(overlay.byzCount(), 1u);
  EXPECT_TRUE(overlay.isLive(byzId));
  expectRegularInvariants(overlay);
}

TEST(DynamicOverlay, ChurnStormKeepsInvariants) {
  // Interleaved joins/leaves/rewires with repair after each batch, as the
  // epoch loop applies them.
  DynamicOverlay overlay = makeOverlay(128, 8, 23, 9);
  Rng rng(79);
  for (int batch = 0; batch < 12; ++batch) {
    for (int k = 0; k < 6; ++k) {
      const auto& members = overlay.members();
      const std::uint64_t victim =
          members[static_cast<std::size_t>(rng.uniform(members.size()))].id;
      overlay.leave(victim, rng);
    }
    for (int k = 0; k < 5; ++k) overlay.join(rng.bernoulli(0.3), rng);
    for (int k = 0; k < 10; ++k) overlay.rewire(rng);
    overlay.repairToRegular(rng);
    expectRegularInvariants(overlay);
  }
}

TEST(DynamicOverlay, RefusesToShrinkBelowFloor) {
  DynamicOverlay overlay = makeOverlay(16, 4, 24);
  Rng rng(80);
  std::size_t departed = 0;
  for (std::uint64_t id = 0; id < 16; ++id) departed += overlay.leave(id, rng) ? 1 : 0;
  EXPECT_EQ(overlay.liveCount(), overlay.membershipFloor());
  EXPECT_EQ(departed, 16u - overlay.membershipFloor());
  overlay.repairToRegular(rng);
  expectRegularInvariants(overlay);
}

TEST(DynamicOverlay, RewirePreservesDegreesAndAvoidsSelfLoops) {
  DynamicOverlay overlay = makeOverlay(64, 6, 25);
  Rng rng(81);
  for (int k = 0; k < 500; ++k) overlay.rewire(rng);
  expectRegularInvariants(overlay);  // degrees untouched by swaps
}

// ---------------------------------------------------------------------------
// Churn models: deterministic streams and signature shapes.
// ---------------------------------------------------------------------------

TEST(ChurnModel, EventsAreAPureFunctionOfStream) {
  const ChurnSchedule schedule = ChurnSchedule::steady(6, 0.08);
  for (std::uint32_t epoch : {2u, 3u, 5u}) {
    DynamicOverlay a = makeOverlay(128, 8, 31, 6);
    DynamicOverlay b = makeOverlay(128, 8, 31, 6);
    auto modelA = makeChurnModel(schedule);
    auto modelB = makeChurnModel(schedule);
    Rng rngA = Rng(9).fork(epoch);
    Rng rngB = Rng(9).fork(epoch);
    const ChurnEvents evA = modelA->epochEvents(a, epoch, rngA);
    const ChurnEvents evB = modelB->epochEvents(b, epoch, rngB);
    EXPECT_EQ(evA.honestJoins, evB.honestJoins);
    EXPECT_EQ(evA.byzJoins, evB.byzJoins);
    EXPECT_EQ(evA.leaves, evB.leaves);
    EXPECT_EQ(evA.rewires, evB.rewires);
  }
}

TEST(ChurnModel, FlashCrowdSpikesOnlyAtItsEpoch) {
  DynamicOverlay overlay = makeOverlay(128, 8, 32);
  ChurnSchedule schedule = ChurnSchedule::flashCrowd(6, 4.0, /*atEpoch=*/3);
  auto model = makeChurnModel(schedule);
  Rng quiet = Rng(5).fork(2);
  Rng spike = Rng(5).fork(3);
  const ChurnEvents before = model->epochEvents(overlay, 2, quiet);
  const ChurnEvents at = model->epochEvents(overlay, 3, spike);
  EXPECT_EQ(before.honestJoins, 0u);  // zero background rates in the preset
  EXPECT_GE(at.honestJoins, 4u * 128u);
}

TEST(ChurnModel, MassExodusDrainsItsFraction) {
  DynamicOverlay overlay = makeOverlay(128, 8, 33);
  auto model = makeChurnModel(ChurnSchedule::massExodus(4, 0.5, /*atEpoch=*/2));
  Rng rng = Rng(6).fork(2);
  const ChurnEvents ev = model->epochEvents(overlay, 2, rng);
  EXPECT_GE(ev.leaves.size(), 60u);  // ~half of 128, capped by the floor headroom
  std::set<std::uint64_t> unique(ev.leaves.begin(), ev.leaves.end());
  EXPECT_EQ(unique.size(), ev.leaves.size());  // departures are distinct
}

TEST(ChurnModel, ByzantineChurnInflatesTheBudget) {
  // Honest members churn at equal join/leave rates; Byzantine members fake
  // departures and rejoin 2-for-1. After a few epochs the Byzantine count
  // must exceed the initial budget even though honest membership only drifts.
  ChurnSchedule schedule = ChurnSchedule::byzantine(8, 0.05, /*rejoinBoost=*/2.0);
  DynamicOverlay overlay = makeOverlay(256, 8, 34, 16);
  const std::size_t initialByz = overlay.byzCount();
  ASSERT_EQ(initialByz, 16u);
  auto model = makeChurnModel(schedule);
  for (std::uint32_t epoch = 2; epoch <= 8; ++epoch) {
    Rng eventRng = Rng(7).fork(epoch);
    Rng repairRng = Rng(8).fork(epoch);
    const ChurnEvents ev = model->epochEvents(overlay, epoch, eventRng);
    applyChurnEvents(overlay, ev, repairRng);
    expectRegularInvariants(overlay);
  }
  EXPECT_GT(overlay.byzCount(), initialByz);
  EXPECT_GT(static_cast<double>(overlay.byzCount()) / static_cast<double>(overlay.liveCount()),
            static_cast<double>(initialByz) / 256.0);
}

TEST(ChurnModel, PoissonDrawMatchesMeanRoughly) {
  Rng rng(4096);
  double sum = 0;
  const int reps = 4000;
  for (int i = 0; i < reps; ++i) sum += poissonDraw(6.5, rng);
  EXPECT_NEAR(sum / reps, 6.5, 0.2);
  EXPECT_EQ(poissonDraw(0.0, rng), 0u);
}

// ---------------------------------------------------------------------------
// EpochRunner: zero-churn identity, determinism, thread invariance.
// ---------------------------------------------------------------------------

ScenarioSpec staticPipelineSpec() {
  ScenarioSpec spec;
  spec.name = "churn-pipeline";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 4;
  spec.protocol = ProtocolKind::Pipeline;
  spec.beaconAdversary = BeaconAdversaryProfile::flooder();
  spec.pipelineParams.agreement.initialOnesFraction = 0.7;
  spec.pipelineParams.agreement.walkLengthFactor = 0.5;
  spec.pipelineParams.estimateSafetyFactor = 1.5;
  spec.pipelineParams.countingLimits.maxPhase = 8;
  spec.pipelineParams.countingLimits.maxTotalRounds = 20'000;
  spec.trials = 12;
  spec.masterSeed = 0x9a;
  return spec;
}

TEST(EpochRunner, ZeroChurnReproducesStaticPipelineFingerprints) {
  // The acceptance gate: a ChurnSchedule that produces no events must leave
  // the pipeline bit-identical to the static path — same per-trial
  // fingerprints, same costs — because epoch 1 uses the very streams
  // materializeTrial hands the static runner.
  const ScenarioSpec staticSpec = staticPipelineSpec();
  ScenarioSpec churnSpec = staticSpec;
  churnSpec.churn = ChurnSchedule::steady(/*epochs=*/1, /*rate=*/0.0);
  ASSERT_TRUE(churnSpec.churn.enabled());

  ExperimentRunner runner(2);
  const ExperimentSummary a = runner.run(staticSpec);
  const ExperimentSummary b = runner.run(churnSpec);
  EXPECT_EQ(a.combinedFingerprint, b.combinedFingerprint);
  ASSERT_EQ(a.perTrial.size(), b.perTrial.size());
  for (std::size_t i = 0; i < a.perTrial.size(); ++i) {
    EXPECT_EQ(a.perTrial[i].resultFingerprint, b.perTrial[i].resultFingerprint) << "trial " << i;
    EXPECT_EQ(a.perTrial[i].totalRounds, b.perTrial[i].totalRounds);
    EXPECT_EQ(a.perTrial[i].totalMessages, b.perTrial[i].totalMessages);
    EXPECT_EQ(a.perTrial[i].totalBits, b.perTrial[i].totalBits);
    EXPECT_DOUBLE_EQ(a.perTrial[i].quality.fracDecided, b.perTrial[i].quality.fracDecided);
  }
}

TEST(EpochRunner, ZeroRateMultiEpochKeepsEpochOneStatic) {
  // With nonzero epochs but zero rates, epoch 1's recount must still equal
  // the static run exactly (later epochs fork fresh protocol streams).
  const ScenarioSpec staticSpec = staticPipelineSpec();
  const TrialOutcome staticOutcome = ExperimentRunner::runTrial(staticSpec, 3);

  ScenarioSpec churnSpec = staticSpec;
  churnSpec.churn = ChurnSchedule::steady(/*epochs=*/3, /*rate=*/0.0);
  const ChurnTrialResult detailed = runChurnTrialDetailed(churnSpec, 3);
  ASSERT_EQ(detailed.epochs.size(), 3u);
  EXPECT_EQ(detailed.epochs[0].fingerprint, staticOutcome.resultFingerprint);
  EXPECT_EQ(detailed.epochs[0].rounds, staticOutcome.totalRounds);
  // No events anywhere: membership is frozen.
  for (const EpochReport& e : detailed.epochs) {
    EXPECT_EQ(e.liveN, 128u);
    EXPECT_EQ(e.joins + e.leaves + e.rewires, 0u);
  }
}

TEST(EpochRunner, ChurnTrialIsAPureFunctionOfSpecAndIndex) {
  ScenarioSpec spec = staticPipelineSpec();
  spec.churn = ChurnSchedule::steady(/*epochs=*/4, /*rate=*/0.06);
  const ChurnTrialResult a = runChurnTrialDetailed(spec, 5);
  const ChurnTrialResult b = runChurnTrialDetailed(spec, 5);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].liveN, b.epochs[e].liveN);
    EXPECT_EQ(a.epochs[e].joins, b.epochs[e].joins);
    EXPECT_EQ(a.epochs[e].leaves, b.epochs[e].leaves);
    EXPECT_EQ(a.epochs[e].fingerprint, b.epochs[e].fingerprint);
    EXPECT_DOUBLE_EQ(a.epochs[e].spectralGap, b.epochs[e].spectralGap);
  }
  EXPECT_EQ(a.outcome.resultFingerprint, b.outcome.resultFingerprint);
  // Different trials take different trajectories.
  const ChurnTrialResult c = runChurnTrialDetailed(spec, 6);
  EXPECT_NE(a.outcome.resultFingerprint, c.outcome.resultFingerprint);
}

TEST(EpochRunner, NonzeroChurnScenarioIsThreadCountInvariant) {
  // The T10-shaped acceptance row: a nonzero-churn 48-trial scenario must be
  // bit-identical at 1, 2 and 8 threads (every epoch stream forks from
  // (masterSeed, trial, epoch), never from worker scheduling).
  ScenarioSpec spec;
  spec.name = "t10-row-invariance";
  spec.graph = {GraphKind::Hnd, 96, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 4;
  spec.protocol = ProtocolKind::Pipeline;
  spec.pipelineParams.agreement.initialOnesFraction = 0.7;
  spec.pipelineParams.agreement.walkLengthFactor = 0.5;
  spec.pipelineParams.estimateSafetyFactor = 1.5;
  spec.pipelineParams.countingLimits.maxPhase = 8;
  spec.pipelineParams.countingLimits.maxTotalRounds = 20'000;
  spec.churn = ChurnSchedule::steady(/*epochs=*/4, /*rate=*/0.08, /*recountEvery=*/2);
  spec.trials = 48;
  spec.masterSeed = 0x10c4;

  ExperimentSummary byThreads[3];
  const unsigned counts[3] = {1, 2, 8};
  for (int t = 0; t < 3; ++t) {
    ExperimentRunner runner(counts[t]);
    byThreads[t] = runner.run(spec);
  }
  ASSERT_EQ(byThreads[0].perTrial.size(), 48u);
  for (int t = 1; t < 3; ++t) {
    EXPECT_EQ(byThreads[0].combinedFingerprint, byThreads[t].combinedFingerprint)
        << "churn scenario diverged at " << counts[t] << " threads";
    for (std::size_t i = 0; i < 48; ++i) {
      EXPECT_EQ(byThreads[0].perTrial[i].resultFingerprint,
                byThreads[t].perTrial[i].resultFingerprint)
          << "trial " << i << " diverged at " << counts[t] << " threads";
    }
  }
  // The churn extras made it through aggregation, and churn actually happened.
  ASSERT_EQ(layouts::namesOf(byThreads[0].extras), layouts::kChurn);
  EXPECT_GT(byThreads[0].extras.at("joins").mean + byThreads[0].extras.at("leaves").mean, 0.0);
  EXPECT_DOUBLE_EQ(byThreads[0].extras.at("epochs").mean, 4.0);
  EXPECT_DOUBLE_EQ(byThreads[0].extras.at("recounts").mean, 2.0);  // cadence 2 over 4 epochs
}

TEST(EpochRunner, StalenessTracksGrowthBetweenRecounts) {
  // Flash crowd at epoch 3 with recounts only at epochs 1 and 5: the stale
  // estimate must drift away from ln n(t) right after the spike, then snap
  // back once the network recounts.
  ScenarioSpec spec;
  spec.name = "staleness";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 4;
  spec.protocol = ProtocolKind::Beacon;
  spec.beaconLimits.maxPhase = 10;
  spec.beaconLimits.maxTotalRounds = 20'000;
  spec.churn = ChurnSchedule::flashCrowd(/*epochs=*/5, /*fraction=*/6.0, /*atEpoch=*/3,
                                         /*recountEvery=*/4);
  spec.masterSeed = 0x57a1;

  const ChurnTrialResult r = runChurnTrialDetailed(spec, 0);
  ASSERT_EQ(r.epochs.size(), 5u);
  EXPECT_TRUE(r.epochs[0].recounted);
  EXPECT_FALSE(r.epochs[2].recounted);
  EXPECT_TRUE(r.epochs[4].recounted);
  EXPECT_GT(r.epochs[2].liveN, 6 * 128u);  // the crowd arrived
  // Post-spike staleness exceeds the pre-spike epochs' and the post-recount
  // epoch improves on it.
  EXPECT_GT(r.epochs[2].staleness, r.epochs[1].staleness);
  EXPECT_LT(r.epochs[4].staleness, r.epochs[3].staleness);
  // Drift is zero exactly at recount epochs, jumps with the crowd, and the
  // recount re-anchors it.
  EXPECT_DOUBLE_EQ(r.epochs[0].drift, 0.0);
  EXPECT_DOUBLE_EQ(r.epochs[4].drift, 0.0);
  EXPECT_GT(r.epochs[2].drift, 0.1);
  EXPECT_GE(r.outcome.extra.at("maxDrift"), r.epochs[2].drift);
  EXPECT_DOUBLE_EQ(r.outcome.extra.at("maxStaleness"),
                   std::max({r.epochs[0].staleness, r.epochs[1].staleness, r.epochs[2].staleness,
                             r.epochs[3].staleness, r.epochs[4].staleness}));
}

TEST(EpochRunner, ByzantineChurnComposesWithWalkAdversary) {
  // The adversarial churn model rides the same declarative path as the walk
  // adversary: Byzantine rejoiners keep answering as the selected strategy.
  ScenarioSpec spec;
  spec.name = "byz-churn-agreement";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 8;
  spec.protocol = ProtocolKind::Agreement;
  spec.agreementParams.initialOnesFraction = 0.7;
  spec.agreementParams.attack = AgreementAttackProfile::dropper();
  spec.churn = ChurnSchedule::byzantine(/*epochs=*/5, /*honestRate=*/0.04, /*rejoinBoost=*/2.0);
  spec.trials = 6;
  spec.masterSeed = 0xb12c;

  ExperimentRunner runner(2);
  const ExperimentSummary s = runner.run(spec);
  ASSERT_EQ(layouts::namesOf(s.extras), layouts::kChurn);
  EXPECT_GT(s.extras.at("byzInflation").mean, 1.0);  // the budget inflated
  EXPECT_GT(s.extras.at("finalByz").mean, 8.0);
  EXPECT_GT(s.extras.at("lastAgree").mean, 0.0);  // agreement still ran on the last epoch
}

TEST(EpochRunner, ShrinkingOverlayClampsConfiguredFocusNodes) {
  // A spanning-tree scenario whose configured root index outlives the
  // membership that backed it: the per-epoch spec must clamp root (and
  // victim) into the compacted index range instead of throwing.
  ScenarioSpec spec;
  spec.name = "shrinking-tree";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 4;
  spec.placement.victim = 120;
  spec.protocol = ProtocolKind::SpanningTree;
  spec.treeParams.root = 120;
  spec.churn = ChurnSchedule::massExodus(/*epochs=*/3, /*fraction=*/0.6, /*atEpoch=*/2);
  spec.masterSeed = 0x7ee;

  const ChurnTrialResult r = runChurnTrialDetailed(spec, 0);
  ASSERT_EQ(r.epochs.size(), 3u);
  EXPECT_LT(r.epochs[1].liveN, 90u);  // the exodus actually shrank past the root
  EXPECT_GT(r.outcome.quality.fracDecided, 0.0);
}

TEST(DynamicOverlay, MassDepartureWaveKeepsInvariantsAtScale) {
  // The incidence-indexed leave() path under the load it was built for: a
  // half-membership departure wave (the T10 mass-exodus shape) followed by a
  // full invariant audit. The per-departure edge-list sweep this replaced was
  // quadratic here.
  DynamicOverlay overlay = makeOverlay(2048, 8, 26, 32);
  Rng rng(90);
  std::size_t departed = 0;
  for (std::uint64_t id = 0; id < 2048; id += 2) departed += overlay.leave(id, rng) ? 1 : 0;
  EXPECT_EQ(departed, 1024u);
  overlay.repairToRegular(rng);
  expectRegularInvariants(overlay);
  // Join back into the thinned overlay: the index must survive both
  // directions of churn.
  for (int k = 0; k < 64; ++k) overlay.join(k % 3 == 0, rng);
  for (int k = 0; k < 200; ++k) overlay.rewire(rng);
  overlay.repairToRegular(rng);
  expectRegularInvariants(overlay);
}

}  // namespace
}  // namespace bzc
