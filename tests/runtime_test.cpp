// Tests for the runtime layer: SyncEngine round/window semantics, the thread
// pool, ExperimentRunner determinism, and the golden fingerprints pinning the
// SyncEngine migration to the pre-refactor protocol behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "churn/schedule.hpp"
#include "counting/local/attacks.hpp"
#include "extra_layouts.hpp"
#include "golden_scenarios.hpp"
#include "graph/generators.hpp"
#include "runtime/experiment.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/sync_engine.hpp"
#include "runtime/thread_pool.hpp"

namespace bzc {
namespace {

// ---------------------------------------------------------------------------
// Golden migration regressions. The constants were captured from the seed
// implementations (hand-rolled round loops) immediately before the SyncEngine
// migration; the migrated protocols must reproduce them bit-for-bit.
// ---------------------------------------------------------------------------

TEST(GoldenMigration, BeaconMatchesPreRefactorDecisions) {
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::none(), 0),
            0x01ad738b6673bf86ULL);
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::flooder(), 10),
            0x29553b28fa4d5ddcULL);
  // FirstSeen resolves ties by inbox position, so this one pins the engine's
  // delivery-order contract, not just the protocol logic.
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::FirstSeen,
                                      BeaconAdversaryProfile::flooder(), 10),
            0xf3b6aab96a9aed6cULL);
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::full(), 10),
            0xe7cb8414934dcdefULL);
  // The remaining presets, captured before the gallery became the only way
  // to name them.
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::tamperer(), 10),
            0x1a0ac9c1ba29d3f8ULL);
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::suppressor(), 10),
            0x95299c8341f26bfdULL);
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::continueSpammer(), 10),
            0xb974b6d5ca5538c9ULL);
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::targetedFlooder(7, 3), 10),
            0x7a928cad0a407c84ULL);
}

void expectLocalGoldens() {
  {
    auto adv = makeHonestLocalAdversary();
    EXPECT_EQ(golden::localFingerprint(*adv, Placement::Random), 0xbc818467520a5f14ULL);
  }
  {
    auto adv = makeConflictLocalAdversary();
    EXPECT_EQ(golden::localFingerprint(*adv, Placement::Random), 0xbd69b4b31ee42fceULL);
  }
  {
    auto adv = makeSilentLocalAdversary(1);
    EXPECT_EQ(golden::localFingerprint(*adv, Placement::Random), 0xa54443d8baa6aa5dULL);
  }
  {
    auto adv = makeFakeWorldLocalAdversary({});
    EXPECT_EQ(golden::localFingerprint(*adv, Placement::Surround), 0x6babc33f76dd3e65ULL);
  }
}

TEST(GoldenMigration, LocalMatchesPreRefactorDecisions) { expectLocalGoldens(); }

// Algorithm 1's end-of-round passes run over the trial's worker budget; the
// goldens must not see it. Fake-world grows the name pool mid-run and relays,
// so its logs are the ones a careless reservation would let move.
TEST(GoldenMigration, LocalGoldensHoldAtAnyWorkerBudget) {
  for (const unsigned budget : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "worker budget " << budget);
    const WorkerBudgetScope scope(budget);
    ASSERT_EQ(trialWorkerBudget(), budget);
    expectLocalGoldens();
  }
  EXPECT_EQ(trialWorkerBudget(), 1u);
}

TEST(GoldenMigration, AgreementOnEngineIsPinned) {
  // Captured from the SyncEngine walk-token implementation at migration time
  // (see golden_scenarios.hpp for why these pin the engine, not the oracle).
  EXPECT_EQ(golden::agreementFingerprint(0, 1.0), 0xc04be2f8613993a8ULL);
  EXPECT_EQ(golden::agreementFingerprint(8, 1.0), 0x1ed581d04cfd8fdaULL);
  EXPECT_EQ(golden::agreementFingerprint(8, 2.0), 0xfeb5c22bfec003a3ULL);
}

TEST(GoldenMigration, PipelineOnEngineIsPinned) {
  EXPECT_EQ(golden::pipelineFingerprint(BeaconAdversaryProfile::none(), 0), 0xf702f76c8582c57bULL);
  EXPECT_EQ(golden::pipelineFingerprint(BeaconAdversaryProfile::flooder(), 8),
            0x559fbf52906663baULL);
}

TEST(GoldenMigration, BaselinesMatchPreRefactorDecisions) {
  EXPECT_EQ(golden::geometricFingerprint(GeometricAttack::None), 0x927421feaa922dafULL);
  EXPECT_EQ(golden::geometricFingerprint(GeometricAttack::Inflate), 0x444da3032ea949b1ULL);
  EXPECT_EQ(golden::geometricFingerprint(GeometricAttack::Suppress), 0x74833fdbe117d7e1ULL);
  EXPECT_EQ(golden::supportFingerprint(SupportAttack::None), 0x8ae1332c4d96dcddULL);
  EXPECT_EQ(golden::supportFingerprint(SupportAttack::ZeroInject), 0x2e1a59de3c23bba2ULL);
  EXPECT_EQ(golden::supportFingerprint(SupportAttack::Suppress), 0x1eca799754ed6997ULL);
  EXPECT_EQ(golden::treeFingerprint(TreeAttack::None), 0xac3667db1751962fULL);
  EXPECT_EQ(golden::treeFingerprint(TreeAttack::Inflate), 0x2568f372c9e0136fULL);
  EXPECT_EQ(golden::treeFingerprint(TreeAttack::Mute), 0x571d62a92e69b3c7ULL);
}

// ---------------------------------------------------------------------------
// SyncEngine semantics.
// ---------------------------------------------------------------------------

using IntEngine = SyncEngine<int>;

TEST(SyncEngine, InboxPreservesQueueOrderAndRecvFiresInFirstDeliveryOrder) {
  // Star: center 0 with leaves 1..3.
  const Graph g = star(4);
  const ByzantineSet byz(4, {});
  IntEngine engine(g, byz);
  engine.broadcast(2, 20, 8);
  engine.broadcast(3, 30, 8);
  engine.broadcast(1, 10, 8);

  std::vector<NodeId> recvOrder;
  std::vector<int> centerInbox;
  auto res = engine.runWindow(1, [&](NodeId v, Round, std::span<const IntEngine::Delivery> box) {
    recvOrder.push_back(v);
    if (v == 0) {
      for (const auto& d : box) centerInbox.push_back(d.payload);
    }
  });
  EXPECT_EQ(res.status, WindowStatus::Completed);
  // Each leaf's only neighbour is the center, so exactly one node is touched,
  // and its inbox lists the senders in queue order, not index order.
  EXPECT_EQ(recvOrder, (std::vector<NodeId>{0}));
  EXPECT_EQ(centerInbox, (std::vector<int>{20, 30, 10}));
}

TEST(SyncEngine, QuiescentEmptyRoundIsCountedAndStops) {
  const Graph g = ring(4);
  const ByzantineSet byz(4, {});
  IntEngine engine(g, byz);
  const auto res = engine.runWindow(5, IntEngine::NoRecv{});
  EXPECT_EQ(res.status, WindowStatus::Quiesced);
  EXPECT_EQ(res.roundsRun, 1u);
  EXPECT_EQ(engine.round(), 1u);
}

TEST(SyncEngine, RunFullWindowKeepsGoingThroughIdleRounds) {
  const Graph g = ring(4);
  const ByzantineSet byz(4, {});
  IntEngine engine(g, byz);
  std::vector<Round> deliveries;
  auto emit = [&](Round w) {
    if (w == 3) engine.broadcast(0, 7, 8);  // traffic only in the last round
  };
  auto recv = [&](NodeId, Round w, std::span<const IntEngine::Delivery>) {
    deliveries.push_back(w);
  };
  const auto res = engine.runWindow(3, emit, recv, NoEnd{}, IdlePolicy::RunFullWindow);
  EXPECT_EQ(res.status, WindowStatus::Completed);
  EXPECT_EQ(res.roundsRun, 3u);
  EXPECT_EQ(deliveries, (std::vector<Round>{3, 3}));  // both ring neighbours of 0
}

TEST(SyncEngine, RoundCapStopsEndlessFlood) {
  const Graph g = ring(6);
  const ByzantineSet byz(6, {});
  IntEngine engine(g, byz, /*maxTotalRounds=*/4);
  engine.broadcast(0, 1, 8);
  auto echo = [&](NodeId v, Round, std::span<const IntEngine::Delivery>) {
    engine.broadcast(v, 1, 8);  // every receiver re-floods forever
  };
  const auto res = engine.runWindow(0, echo);
  EXPECT_EQ(res.status, WindowStatus::Capped);
  EXPECT_EQ(engine.round(), 4u);
  EXPECT_TRUE(engine.wouldExceed(1));
}

TEST(SyncEngine, EndHookStopsTheWindow) {
  const Graph g = ring(4);
  const ByzantineSet byz(4, {});
  IntEngine engine(g, byz);
  engine.broadcast(0, 1, 8);
  auto echo = [&](NodeId v, Round, std::span<const IntEngine::Delivery>) {
    engine.broadcast(v, 1, 8);
  };
  auto stopAfterTwo = [&](Round) { return engine.round() < 2; };
  const auto res = engine.runWindow(0, NoEmit{}, echo, stopAfterTwo);
  EXPECT_EQ(res.status, WindowStatus::Stopped);
  EXPECT_EQ(engine.round(), 2u);
}

TEST(SyncEngine, MetersHonestSendersOnly) {
  const Graph g = ring(4);  // every node has degree 2
  const ByzantineSet byz(4, {1});
  IntEngine engine(g, byz);
  engine.broadcast(0, 5, 32);  // honest broadcast: 2 copies of 32 bits
  engine.broadcast(1, 6, 32);  // Byzantine: delivered but never metered
  engine.unicast(2, 3, 7, 16);  // honest unicast: one copy
  std::size_t delivered = 0;
  auto res = engine.runWindow(1, [&](NodeId, Round, std::span<const IntEngine::Delivery> box) {
    delivered += box.size();
  });
  EXPECT_EQ(res.status, WindowStatus::Completed);
  EXPECT_EQ(delivered, 5u);  // 2 + 2 broadcast copies + 1 unicast
  MessageMeter meter = engine.releaseMeter();
  EXPECT_EQ(meter.messagesSent(0), 2u);
  EXPECT_EQ(meter.bitsSent(0), 64u);
  EXPECT_EQ(meter.maxMessageBits(0), 32u);
  EXPECT_EQ(meter.messagesSent(1), 0u);  // Byzantine traffic invisible to the meter
  EXPECT_EQ(meter.messagesSent(2), 1u);
  EXPECT_EQ(meter.bitsSent(2), 16u);
  EXPECT_EQ(meter.totalMessages(), 3u);
}

TEST(SyncEngine, SkipRoundsChargesWallClockWithoutTraffic) {
  const Graph g = ring(4);
  const ByzantineSet byz(4, {});
  IntEngine engine(g, byz, 10);
  engine.skipRounds(7);
  EXPECT_EQ(engine.round(), 7u);
  EXPECT_FALSE(engine.wouldExceed(3));
  EXPECT_TRUE(engine.wouldExceed(4));
}

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threadCount(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int rep = 0; rep < 5; ++rep) {
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallelFor(16,
                                [&](std::size_t i) {
                                  if (i == 3) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> ran{0};
  pool.parallelFor(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

// ---------------------------------------------------------------------------
// ExperimentRunner determinism: the acceptance criterion. Same ScenarioSpec +
// master seed must give identical per-trial CountingResults (witnessed by
// fingerprints) at 1, 2 and 8 threads, with >= 32 trials in parallel.
// ---------------------------------------------------------------------------

ScenarioSpec cheapScenario() {
  ScenarioSpec spec;
  spec.name = "geometric-inflate-hnd";
  spec.graph = {GraphKind::Hnd, 256, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.byzGamma = 0.55;
  spec.protocol = ProtocolKind::GeometricMax;
  spec.geometricAttack = GeometricAttack::Inflate;
  spec.trials = 48;
  spec.masterSeed = 0xfeed;
  return spec;
}

TEST(ExperimentRunner, ThreadCountInvariantAndSeedDeterministic) {
  const ScenarioSpec spec = cheapScenario();
  ExperimentSummary byThreads[3];
  const unsigned counts[3] = {1, 2, 8};
  for (int t = 0; t < 3; ++t) {
    ExperimentRunner runner(counts[t]);
    EXPECT_EQ(runner.threadCount(), counts[t]);
    byThreads[t] = runner.run(spec);
  }
  ASSERT_EQ(byThreads[0].perTrial.size(), 48u);
  for (int t = 1; t < 3; ++t) {
    EXPECT_EQ(byThreads[0].combinedFingerprint, byThreads[t].combinedFingerprint);
    ASSERT_EQ(byThreads[t].perTrial.size(), 48u);
    for (std::size_t i = 0; i < 48; ++i) {
      EXPECT_EQ(byThreads[0].perTrial[i].resultFingerprint,
                byThreads[t].perTrial[i].resultFingerprint)
          << "trial " << i << " diverged at " << counts[t] << " threads";
    }
    EXPECT_DOUBLE_EQ(byThreads[0].fracDecided.mean, byThreads[t].fracDecided.mean);
    EXPECT_DOUBLE_EQ(byThreads[0].totalRounds.p90, byThreads[t].totalRounds.p90);
  }
  // Re-running with the same master seed reproduces; a different seed must not.
  ExperimentRunner runner(8);
  EXPECT_EQ(runner.run(spec).combinedFingerprint, byThreads[0].combinedFingerprint);
  ScenarioSpec reseeded = spec;
  reseeded.masterSeed = 0xbeef;
  EXPECT_NE(runner.run(reseeded).combinedFingerprint, byThreads[0].combinedFingerprint);
}

TEST(ExperimentRunner, BeaconScenarioParallelTrialsAggregates) {
  ScenarioSpec spec;
  spec.name = "beacon-flooder";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.byzGamma = 0.55;
  spec.protocol = ProtocolKind::Beacon;
  spec.beaconAdversary = BeaconAdversaryProfile::flooder();
  spec.beaconLimits.maxPhase = 8;
  spec.beaconLimits.maxTotalRounds = 20'000;
  spec.trials = 32;
  spec.masterSeed = 7;

  ExperimentRunner runner(8);
  const ExperimentSummary summary = runner.run(spec);
  ASSERT_EQ(summary.perTrial.size(), 32u);
  EXPECT_GT(summary.fracDecided.mean, 0.5);  // flooders hit small n hard; T2 covers quality
  EXPECT_GT(summary.meanRatio.mean, 0.0);
  EXPECT_GE(summary.totalRounds.min, 1.0);
  EXPECT_LE(summary.fracDecided.min, summary.fracDecided.p50);
  EXPECT_LE(summary.fracDecided.p50, summary.fracDecided.max);

  ExperimentRunner serial(1);
  EXPECT_EQ(serial.run(spec).combinedFingerprint, summary.combinedFingerprint);
}

TEST(ExperimentRunner, PipelineScenarioThreadCountInvariant) {
  // Acceptance criterion of the agreement migration: the counting->agreement
  // pipeline, run declaratively, must produce identical per-trial results at
  // any thread count (every stream, walk-token trajectories included, is a
  // pure function of (masterSeed, trial index)).
  ScenarioSpec spec;
  spec.name = "pipeline-flooder";
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
  spec.trials = 24;
  spec.masterSeed = 0x9a;

  ExperimentSummary byThreads[3];
  const unsigned counts[3] = {1, 2, 8};
  for (int t = 0; t < 3; ++t) {
    ExperimentRunner runner(counts[t]);
    byThreads[t] = runner.run(spec);
  }
  ASSERT_EQ(byThreads[0].perTrial.size(), 24u);
  for (int t = 1; t < 3; ++t) {
    EXPECT_EQ(byThreads[0].combinedFingerprint, byThreads[t].combinedFingerprint)
        << "pipeline diverged at " << counts[t] << " threads";
  }
  // The agreement-stage metrics come through the declarative extras.
  ASSERT_EQ(layouts::namesOf(byThreads[0].extras), layouts::kAgreement);
  EXPECT_GT(byThreads[0].extras.at("fracAgreeing").mean, 0.5);
  EXPECT_LE(byThreads[0].extras.at("fracAgreeing").max, 1.0);
  EXPECT_GT(byThreads[0].extras.at("agreementRounds").min, 0.0);
  EXPECT_GT(byThreads[0].totalMessages.min, 0.0);
}

TEST(ExperimentRunner, AgreementScenarioThreadCountInvariant) {
  ScenarioSpec spec;
  spec.name = "agreement-oracle";
  spec.graph = {GraphKind::Hnd, 192, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 5;
  spec.protocol = ProtocolKind::Agreement;
  spec.agreementParams.initialOnesFraction = 0.7;
  spec.trials = 24;
  spec.masterSeed = 0x55;

  ExperimentRunner parallel(8);
  ExperimentRunner serial(1);
  const ExperimentSummary a = parallel.run(spec);
  const ExperimentSummary b = serial.run(spec);
  EXPECT_EQ(a.combinedFingerprint, b.combinedFingerprint);
  ASSERT_EQ(layouts::namesOf(a.extras), layouts::kAgreement);
  // 5 Byzantine nodes at n = 192 is over the sqrt(n)/polylog budget, so
  // convergence is partial; the invariance above is what this test pins.
  EXPECT_GT(a.extras.at("fracAgreeing").mean, 0.5);
  EXPECT_GT(a.extras.at("compromised").mean, 0.0);
}

TEST(ExperimentRunner, TrialWorkerBudgetSharesThePoolAmongTrials) {
  // max(1, threads / trials), installed around every trial.
  const auto budgets = [](unsigned threads, std::uint32_t trials) {
    ExperimentRunner runner(threads);
    const ExperimentSummary s = runner.runCustom("budget", trials, [](std::uint32_t) {
      TrialOutcome t;
      t.extra.set("budget", static_cast<double>(trialWorkerBudget()));
      return t;
    });
    return std::make_pair(s.extras.at("budget").min, s.extras.at("budget").max);
  };
  EXPECT_EQ(budgets(1, 1), std::make_pair(1.0, 1.0));
  EXPECT_EQ(budgets(8, 1), std::make_pair(8.0, 8.0));
  EXPECT_EQ(budgets(8, 3), std::make_pair(2.0, 2.0));
  EXPECT_EQ(budgets(4, 4), std::make_pair(1.0, 1.0));
  EXPECT_EQ(budgets(2, 9), std::make_pair(1.0, 1.0));
  EXPECT_EQ(trialWorkerBudget(), 1u);  // the calling thread keeps its own
}

TEST(ExperimentRunner, LocalSingleTrialInvariantAcrossRunnerWidths) {
  // One trial in flight gets the whole pool as its worker budget, so this
  // runs Algorithm 1's end-of-round passes on 1, 2, 4 and 8 threads.
  ScenarioSpec spec;
  spec.name = "local-one-trial";
  spec.graph = {GraphKind::Hnd, 256, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.byzGamma = 0.5;
  spec.protocol = ProtocolKind::Local;
  spec.trials = 1;
  spec.masterSeed = 0x10ca1;

  // Protocol-following Byzantine nodes (the honest control), then fake-world.
  for (const bool fakeWorld : {false, true}) {
    SCOPED_TRACE(fakeWorld ? "fake-world" : "honest");
    if (fakeWorld) spec.localAdversary = [] { return makeFakeWorldLocalAdversary({}); };
    std::uint64_t reference = 0;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      ExperimentRunner runner(threads);
      const ExperimentSummary declarative = runner.run(spec);
      const ExperimentSummary custom = runner.runCustom(
          spec.name, 1, [&spec](std::uint32_t i) { return ExperimentRunner::runTrial(spec, i); });
      ASSERT_EQ(declarative.perTrial.size(), 1u);
      ASSERT_EQ(custom.perTrial.size(), 1u);
      const std::uint64_t fp = declarative.perTrial[0].resultFingerprint;
      if (threads == 1) reference = fp;
      EXPECT_EQ(fp, reference) << "run() diverged at " << threads << " threads";
      EXPECT_EQ(custom.perTrial[0].resultFingerprint, reference)
          << "runCustom() diverged at " << threads << " threads";
      EXPECT_GT(declarative.fracDecided.mean, 0.0);
    }
  }
}

TEST(ExperimentRunner, ChurnSingleTrialInvariantAcrossRunnerWidths) {
  // One churn trial in flight gets the whole pool as its worker budget, which
  // sets the epoch pipeline's depth: recounts run on pipeline workers on 2, 4
  // and 8 threads.
  ScenarioSpec pipeline;
  pipeline.name = "churn-pipeline-one-trial";
  pipeline.graph = {GraphKind::Hnd, 128, 8, 0.1};
  pipeline.placement.kind = Placement::Random;
  pipeline.placement.count = 4;
  pipeline.protocol = ProtocolKind::Pipeline;
  pipeline.pipelineParams.agreement.initialOnesFraction = 0.7;
  pipeline.pipelineParams.agreement.walkLengthFactor = 0.5;
  pipeline.pipelineParams.estimateSafetyFactor = 1.5;
  pipeline.pipelineParams.countingLimits.maxPhase = 8;
  pipeline.churn = ChurnSchedule::steady(/*epochs=*/4, /*rate=*/0.08, /*recountEvery=*/1);
  pipeline.trials = 1;
  pipeline.masterSeed = 0xc1a0;

  // Algorithm 1 recounts: with three recounts they run on pipeline workers
  // at budget 1; with one they run inline on the trial's own budget.
  ScenarioSpec local;
  local.name = "churn-local-one-trial";
  local.graph = {GraphKind::Hnd, 128, 8, 0.1};
  local.placement.kind = Placement::Random;
  local.byzGamma = 0.5;
  local.protocol = ProtocolKind::Local;
  local.churn = ChurnSchedule::steady(/*epochs=*/3, /*rate=*/0.08, /*recountEvery=*/1);
  local.trials = 1;
  local.masterSeed = 0xc1a1;
  ScenarioSpec localInline = local;
  localInline.name = "churn-local-inline-one-trial";
  localInline.churn = ChurnSchedule::steady(/*epochs=*/2, /*rate=*/0.08, /*recountEvery=*/2);

  for (const ScenarioSpec* spec : {&pipeline, &local, &localInline}) {
    SCOPED_TRACE(spec->name);
    std::uint64_t reference = 0;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      ExperimentRunner runner(threads);
      const ExperimentSummary declarative = runner.run(*spec);
      const ExperimentSummary custom = runner.runCustom(
          spec->name, 1, [spec](std::uint32_t i) { return ExperimentRunner::runTrial(*spec, i); });
      ASSERT_EQ(declarative.perTrial.size(), 1u);
      ASSERT_EQ(custom.perTrial.size(), 1u);
      const std::uint64_t fp = declarative.perTrial[0].resultFingerprint;
      if (threads == 1) reference = fp;
      EXPECT_EQ(fp, reference) << "run() diverged at " << threads << " threads";
      EXPECT_EQ(custom.perTrial[0].resultFingerprint, reference)
          << "runCustom() diverged at " << threads << " threads";
      EXPECT_EQ(declarative.combinedFingerprint, custom.combinedFingerprint);
      EXPECT_GT(declarative.fracDecided.mean, 0.0);
    }
  }
}

TEST(ExperimentRunner, MaterializeTrialIsAPureFunctionOfSpecAndIndex) {
  const ScenarioSpec spec = cheapScenario();
  for (std::uint32_t i : {0u, 1u, 17u}) {
    MaterializedTrial a = materializeTrial(spec, i);
    MaterializedTrial b = materializeTrial(spec, i);
    EXPECT_EQ(a.graph.edgeList(), b.graph.edgeList());
    EXPECT_EQ(a.byz.members(), b.byz.members());
    EXPECT_EQ(a.runRng.next(), b.runRng.next());
  }
  // Different trials see different placements/graph streams.
  MaterializedTrial t0 = materializeTrial(spec, 0);
  MaterializedTrial t1 = materializeTrial(spec, 1);
  EXPECT_NE(t0.byz.members(), t1.byz.members());
}

TEST(ExperimentRunner, CustomTrialsAggregateExtraMetrics) {
  ExperimentRunner runner(4);
  const ExperimentSummary summary =
      runner.runCustom("extras", 10, [](std::uint32_t index) {
        TrialOutcome t;
        t.quality.fracDecided = 1.0;
        t.totalRounds = index + 1;
        t.resultFingerprint = index;
        t.extra.set("index", static_cast<double>(index));
        t.extra.set("two", 2.0);
        return t;
      });
  ASSERT_EQ(layouts::namesOf(summary.extras), (std::vector<std::string>{"index", "two"}));
  EXPECT_DOUBLE_EQ(summary.extras.at("index").mean, 4.5);
  EXPECT_DOUBLE_EQ(summary.extras.at("index").min, 0.0);
  EXPECT_DOUBLE_EQ(summary.extras.at("index").max, 9.0);
  EXPECT_DOUBLE_EQ(summary.extras.at("two").mean, 2.0);
  EXPECT_DOUBLE_EQ(summary.totalRounds.mean, 5.5);
}

TEST(NamedValues, SetOverwritesInPlaceAndAtNamesTheMissingKey) {
  NamedValues<double> record;
  record.set("a", 1.0);
  record.set("b", 2.0);
  record.set("a", 3.0);  // overwrite keeps the first insertion's position
  EXPECT_EQ(layouts::namesOf(record), (std::vector<std::string>{"a", "b"}));
  EXPECT_DOUBLE_EQ(record.at("a"), 3.0);
  EXPECT_THROW((void)record.at("nope"), std::invalid_argument);
  try {
    (void)record.at("nope");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("\"nope\""), std::string::npos) << e.what();
  }
}

TEST(ExperimentRunner, TrialsMustAgreeOnExtraMetricNamesAndOrder) {
  ExperimentRunner runner(2);
  const auto runWith = [&](const std::vector<std::string>& oddNames) {
    return runner.runCustom("disagree", 4, [&](std::uint32_t index) {
      TrialOutcome t;
      const std::vector<std::string> names =
          index == 3 ? oddNames : std::vector<std::string>{"x", "y"};
      for (const std::string& name : names) t.extra.set(name, 1.0);
      return t;
    });
  };
  EXPECT_NO_THROW((void)runWith({"x", "y"}));
  EXPECT_THROW((void)runWith({"y", "x"}), std::invalid_argument);  // order
  EXPECT_THROW((void)runWith({"x", "z"}), std::invalid_argument);  // name
  EXPECT_THROW((void)runWith({"x"}), std::invalid_argument);       // count
}

TEST(ExperimentRunner, KthExtraKeepsBootstrapStreamSixteenPlusK) {
  ExperimentRunner runner(3);
  const ExperimentSummary s = runner.runCustom("boot", 9, [](std::uint32_t index) {
    TrialOutcome t;
    t.extra.set("first", static_cast<double>(index * index));
    t.extra.set("second", static_cast<double>(index % 4));
    t.extra.set("third", 0.5 * index);
    return t;
  });
  std::size_t k = 0;
  for (const auto& [name, d] : s.extras) {
    std::vector<double> sample;
    for (const TrialOutcome& t : s.perTrial) sample.push_back(t.extra.at(name));
    const Distribution want = Distribution::of(sample, Rng(0xb0075eedULL).fork(16 + k));
    EXPECT_EQ(d.ci95lo, want.ci95lo) << name;
    EXPECT_EQ(d.ci95hi, want.ci95hi) << name;
    EXPECT_EQ(d.mean, want.mean) << name;
    EXPECT_LT(d.ci95lo, d.ci95hi) << name;  // a real resample, not the point estimate
    ++k;
  }
  EXPECT_EQ(k, 3u);
}

TEST(Distribution, QuantilesOnKnownSample) {
  const Distribution d = Distribution::of({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(d.mean, 3.0);
  EXPECT_DOUBLE_EQ(d.min, 1.0);
  EXPECT_DOUBLE_EQ(d.max, 5.0);
  EXPECT_DOUBLE_EQ(d.p50, 3.0);
}

}  // namespace
}  // namespace bzc
