// Shard-count invariance (DESIGN.md §10): the intra-trial sharded SyncEngine
// must reproduce the serial engine bit for bit at any shard count. The tests
// pin (a) every pre-existing golden fingerprint at S ∈ {1, 2, 4, 8}, (b) the
// acceptance-shaped 24/48-trial agreement / pipeline / churn / coalition
// scenarios through the declarative spec.shards knob, (c) trials × shards
// oversubscription, and (d) the sharded primitives themselves — engine hook
// ordering, the shard-tagged path arenas, the lock-free Coalition.
//
// Scenario scope: the ENTIRE strategy gallery is in the invariance class.
// Strategies that draw inside a shard-parallel recv hook (fractional
// droppers/flippers, walk tamperers, beacon tamperers/grafters/full) consume
// per-receiver streams forked per (node, iteration) and drained in the node's
// canonical inbox order, so their draw sequences are a pure function of the
// trial — independent of the shard count (they used to be merely
// deterministic per count, via per-shard forks; ROADMAP item closed by the
// epoch-pipelining PR). The RecvDrawing* suites below pin exactly that.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "adversary/token_arena.hpp"
#include "adversary/walk_adversary.hpp"
#include "counting/beacon/path.hpp"
#include "golden_scenarios.hpp"
#include "graph/generators.hpp"
#include "runtime/experiment.hpp"
#include "runtime/sync_engine.hpp"
#include "runtime/thread_pool.hpp"

namespace bzc {
namespace {

constexpr unsigned kShardCounts[] = {1, 2, 4, 8};

// ---------------------------------------------------------------------------
// Golden fingerprints at every shard count. The constants are the exact ones
// runtime_test.cpp pins for the serial engine — sharding must not move them.
// ---------------------------------------------------------------------------

TEST(GoldenSharding, AgreementGoldensAreShardCountInvariant) {
  for (unsigned s : kShardCounts) {
    EXPECT_EQ(golden::agreementFingerprint(0, 1.0, s), 0xc04be2f8613993a8ULL)
        << "benign agreement diverged at " << s << " shards";
    EXPECT_EQ(golden::agreementFingerprint(8, 1.0, s), 0x1ed581d04cfd8fdaULL)
        << "byzantine agreement diverged at " << s << " shards";
    EXPECT_EQ(golden::agreementFingerprint(8, 2.0, s), 0xfeb5c22bfec003a3ULL)
        << "overestimate agreement diverged at " << s << " shards";
  }
}

TEST(GoldenSharding, BeaconGoldensAreShardCountInvariant) {
  for (unsigned s : kShardCounts) {
    EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                        BeaconAdversaryProfile::none(), 0, s),
              0x01ad738b6673bf86ULL)
        << "benign beacon diverged at " << s << " shards";
    EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                        BeaconAdversaryProfile::flooder(), 10, s),
              0x29553b28fa4d5ddcULL)
        << "flooder beacon diverged at " << s << " shards";
    // FirstSeen resolves ties by inbox position: this one pins the sharded
    // scatter's per-inbox delivery order, not just the protocol logic.
    EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::FirstSeen,
                                        BeaconAdversaryProfile::flooder(), 10, s),
              0xf3b6aab96a9aed6cULL)
        << "FirstSeen beacon diverged at " << s << " shards";
  }
}

TEST(GoldenSharding, RecvDrawingBeaconProfilesAreShardCountInvariant) {
  // These strategies draw inside the relay hook; per-receiver streams make
  // them invariant, so the serial fingerprint now pins every shard count.
  // full()'s S == 1 value is unchanged from the per-shard-stream era: its
  // relay draws only mint forged IDs, and ID *values* don't steer decisions
  // (fresh random IDs are never blacklisted either way) — so the legacy
  // golden carries over rather than being re-captured.
  EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                      BeaconAdversaryProfile::full(), 10, 1),
            0xe7cb8414934dcdefULL);
  for (const BeaconAdversaryProfile& attack :
       {BeaconAdversaryProfile::full(), BeaconAdversaryProfile::tamperer()}) {
    const std::uint64_t serial =
        golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable, attack, 10, 1);
    for (unsigned s : {2u, 4u, 8u}) {
      EXPECT_EQ(golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable, attack, 10, s),
                serial)
          << "recv-drawing beacon profile diverged at " << s << " shards";
    }
  }
}

TEST(GoldenSharding, PipelineGoldensAreShardCountInvariant) {
  for (unsigned s : kShardCounts) {
    EXPECT_EQ(golden::pipelineFingerprint(BeaconAdversaryProfile::none(), 0, s),
              0xf702f76c8582c57bULL)
        << "benign pipeline diverged at " << s << " shards";
    EXPECT_EQ(golden::pipelineFingerprint(BeaconAdversaryProfile::flooder(), 8, s),
              0x559fbf52906663baULL)
        << "flooder pipeline diverged at " << s << " shards";
  }
}

// ---------------------------------------------------------------------------
// Declarative scenarios through spec.shards (mirrors the thread-count
// invariance suites in runtime_test / beacon_adversary_test / churn_test).
// ---------------------------------------------------------------------------

void expectShardCountInvariant(ScenarioSpec spec) {
  ExperimentSummary bySpec[4];
  for (int i = 0; i < 4; ++i) {
    spec.shards = kShardCounts[i];
    ExperimentRunner runner(2);
    bySpec[i] = runner.run(spec);
  }
  ASSERT_EQ(bySpec[0].perTrial.size(), spec.trials);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(bySpec[0].combinedFingerprint, bySpec[i].combinedFingerprint)
        << spec.name << " diverged at " << kShardCounts[i] << " shards";
    ASSERT_EQ(bySpec[i].perTrial.size(), spec.trials);
    for (std::size_t t = 0; t < spec.trials; ++t) {
      EXPECT_EQ(bySpec[0].perTrial[t].resultFingerprint, bySpec[i].perTrial[t].resultFingerprint)
          << spec.name << " trial " << t << " diverged at " << kShardCounts[i] << " shards";
    }
    EXPECT_DOUBLE_EQ(bySpec[0].fracDecided.mean, bySpec[i].fracDecided.mean);
    EXPECT_DOUBLE_EQ(bySpec[0].totalRounds.p90, bySpec[i].totalRounds.p90);
  }
}

TEST(ShardedScenarios, AgreementScenarioIsShardCountInvariant) {
  ScenarioSpec spec;
  spec.name = "agreement-oracle-sharded";
  spec.graph = {GraphKind::Hnd, 192, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 5;
  spec.protocol = ProtocolKind::Agreement;
  spec.agreementParams.initialOnesFraction = 0.7;
  spec.trials = 24;
  spec.masterSeed = 0x55;
  expectShardCountInvariant(spec);
}

TEST(ShardedScenarios, PipelineFlooderScenarioIsShardCountInvariant) {
  ScenarioSpec spec;
  spec.name = "pipeline-flooder-sharded";
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
  expectShardCountInvariant(spec);
}

TEST(ShardedScenarios, RecvDrawingWalkGalleryIsShardCountInvariant) {
  // Fractional droppers/flippers and the tamperer draw per relayed token
  // inside the recv hook; with per-receiver streams the whole walk gallery is
  // invariant (not just the draw-free p = 1.0 corners adversary_test pins).
  const AgreementAttackProfile gallery[] = {
      AgreementAttackProfile::dropper(0.8),
      AgreementAttackProfile::flipper(0.8),
      AgreementAttackProfile::tamperer(0.8),
  };
  const char* names[] = {"dropper08", "flipper08", "tamperer08"};
  for (std::size_t i = 0; i < 3; ++i) {
    ScenarioSpec spec;
    spec.name = std::string("walk-gallery-sharded-") + names[i];
    spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
    spec.placement.kind = Placement::Random;
    spec.placement.count = 6;
    spec.protocol = ProtocolKind::Agreement;
    spec.agreementParams.initialOnesFraction = 0.7;
    spec.agreementParams.attack = gallery[i];
    spec.trials = 12;
    spec.masterSeed = 0xd4a0 + i;
    expectShardCountInvariant(spec);
  }
}

TEST(ShardedScenarios, PrefixGrafterScenarioIsShardCountInvariant) {
  // The grafter splices *observed* honest prefixes into forged beacons — the
  // strongest value-dependence in the beacon gallery, so scenario-level
  // invariance here exercises the per-receiver streams hardest.
  ScenarioSpec spec;
  spec.name = "prefix-grafter-sharded";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 6;
  spec.protocol = ProtocolKind::Beacon;
  spec.beaconAdversary = BeaconAdversaryProfile::prefixGrafter(2);
  spec.beaconLimits.maxPhase = 8;
  spec.beaconLimits.maxTotalRounds = 20'000;
  spec.trials = 12;
  spec.masterSeed = 0x96af;
  expectShardCountInvariant(spec);
}

TEST(ShardedScenarios, ChurnScenarioIsShardCountInvariant) {
  // The T10-shaped row: every epoch recount inherits spec.shards through
  // runProtocolTrial, so a churn trajectory must be shard-count invariant too.
  ScenarioSpec spec;
  spec.name = "t10-row-sharded";
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
  expectShardCountInvariant(spec);
}

TEST(ShardedScenarios, MixedCoalitionScenarioIsShardCountInvariant) {
  // Cross-stage coalition on the shared lock-free blackboard. Both subsets
  // are recv-draw-free (flooders draw in the emit phase, hunters derive the
  // coalition bit from round-constant state), so the whole scenario sits in
  // the invariance class.
  ScenarioSpec spec;
  spec.name = "mixed-coalition-sharded";
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
      "beacon-flooders", 0.5, BeaconAdversaryProfile::flooder(),
      AgreementAttackProfile::adaptiveMinority(), "walk-hunters",
      BeaconAdversaryProfile::none(), AgreementAttackProfile::hunter(2));
  spec.trials = 48;
  spec.masterSeed = 0x50c1;
  expectShardCountInvariant(spec);
}

TEST(ShardedScenarios, TrialsTimesShardsOversubscriptionMatchesSerial) {
  // 8 trial threads × 4 shards on whatever cores exist: run() narrows the
  // trial pool to threadCount()/shards, and the outcome must match the fully
  // serial run regardless.
  ScenarioSpec spec;
  spec.name = "oversubscription";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 4;
  spec.protocol = ProtocolKind::Pipeline;
  spec.beaconAdversary = BeaconAdversaryProfile::flooder();
  spec.pipelineParams.agreement.initialOnesFraction = 0.7;
  spec.pipelineParams.agreement.walkLengthFactor = 0.5;
  spec.pipelineParams.countingLimits.maxPhase = 8;
  spec.pipelineParams.countingLimits.maxTotalRounds = 20'000;
  spec.trials = 12;
  spec.masterSeed = 0x05b5;

  ScenarioSpec wide = spec;
  wide.shards = 4;
  ExperimentRunner eight(8);
  const ExperimentSummary oversubscribed = eight.run(wide);

  ScenarioSpec serial = spec;
  serial.shards = 1;
  ExperimentRunner one(1);
  const ExperimentSummary reference = one.run(serial);

  EXPECT_EQ(oversubscribed.combinedFingerprint, reference.combinedFingerprint);
  ASSERT_EQ(oversubscribed.perTrial.size(), reference.perTrial.size());
  for (std::size_t t = 0; t < reference.perTrial.size(); ++t) {
    EXPECT_EQ(oversubscribed.perTrial[t].resultFingerprint,
              reference.perTrial[t].resultFingerprint);
  }
}

// ---------------------------------------------------------------------------
// Engine-level ordering: a shard-aware hook at S > 1 must see every inbox in
// the same per-receiver order, produce the same traffic and meter the same
// totals as the serial engine running the identical protocol.
// ---------------------------------------------------------------------------

using IntEngine = SyncEngine<int>;

struct EchoTrace {
  std::vector<std::vector<int>> inboxes;  ///< per node, concatenated across rounds
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
};

// Every receiver forwards each delivery once more (decremented ttl payload),
// alternating broadcast/unicast by parity — deterministic per receiver, so
// the trace is comparable even though cross-shard recv order is not.
EchoTrace runEcho(const Graph& g, const ByzantineSet& byz, unsigned shards) {
  EchoTrace trace;
  trace.inboxes.resize(g.numNodes());
  IntEngine engine(g, byz, /*maxTotalRounds=*/64, shards);
  engine.broadcast(0, 6, 8);
  engine.broadcast(static_cast<NodeId>(g.numNodes() / 2), 5, 8);
  engine.unicast(1, 2, 4, 8);
  const auto recv = [&](IntEngine::ShardLane& lane, NodeId v, Round,
                        std::span<const IntEngine::Delivery> box) {
    for (const auto& d : box) {
      trace.inboxes[v].push_back(d.payload);
      if (d.payload <= 0) continue;
      if (v % 2 == 0) {
        lane.broadcast(v, d.payload - 1, 8);
      } else {
        lane.unicast(v, g.neighbors(v).front(), d.payload - 1, 8);
      }
    }
  };
  const auto res = engine.runWindow(0, NoEmit{}, recv, NoEnd{});
  EXPECT_EQ(res.status, WindowStatus::Quiesced);
  trace.rounds = engine.round();
  MessageMeter meter = engine.releaseMeter();
  trace.messages = meter.totalMessages();
  trace.bits = meter.totalBits();
  return trace;
}

TEST(ShardedEngine, ShardedHookMatchesSerialAtEveryShardCount) {
  Rng rng(0x5a5a);
  const Graph g = hnd(64, 4, rng);
  const ByzantineSet byz(64, {7, 13});
  const EchoTrace serial = runEcho(g, byz, 1);
  EXPECT_GT(serial.rounds, 2u);
  for (unsigned s : {2u, 4u, 8u, 16u}) {
    const EchoTrace sharded = runEcho(g, byz, s);
    EXPECT_EQ(sharded.rounds, serial.rounds) << s << " shards";
    EXPECT_EQ(sharded.messages, serial.messages) << s << " shards";
    EXPECT_EQ(sharded.bits, serial.bits) << s << " shards";
    for (NodeId v = 0; v < 64; ++v) {
      EXPECT_EQ(sharded.inboxes[v], serial.inboxes[v])
          << "inbox of node " << v << " diverged at " << s << " shards";
    }
  }
}

TEST(ShardedEngine, ShardCountIsClampedToNodesAndCap) {
  Rng rng(0xc1a);
  const Graph g = hnd(8, 2, rng);
  const ByzantineSet byz(8, {});
  IntEngine tiny(g, byz, 0, 32);
  EXPECT_EQ(tiny.shardCount(), 8u);  // clamped to n
  IntEngine wide(g, byz, 0, 5);
  EXPECT_EQ(wide.shardCount(), 5u);
  EXPECT_EQ(wide.shardOf(0), 0u);
  EXPECT_EQ(wide.shardOf(7), 3u);  // ceil(8/5) = 2 nodes per shard
  std::vector<int> owner(8, -1);
  wide.forEachShard([&](std::size_t s, NodeId lo, NodeId hi) {
    for (NodeId v = lo; v < hi; ++v) owner[v] = static_cast<int>(s);
  });
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(owner[v], static_cast<int>(wide.shardOf(v)));
  }
}

// ---------------------------------------------------------------------------
// Shard-tagged path arenas.
// ---------------------------------------------------------------------------

TEST(PathArenaSharding, ShardZeroRefsAreLegacyIndices) {
  PathArena arena(4);
  EXPECT_EQ(arena.shardCount(), 4u);
  const PathRef a = arena.push(10, kNullPath);  // legacy 2-arg goes to shard 0
  const PathRef b = arena.push(0, 11, a);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  PathArena serial;  // default: one shard, plain indices
  EXPECT_EQ(serial.push(10, kNullPath), 0u);
  EXPECT_EQ(serial.push(11, 0u), 1u);
}

TEST(PathArenaSharding, CrossShardChainsResolve) {
  PathArena arena(4);
  const PathRef root = arena.push(1, 100, kNullPath);
  const PathRef mid = arena.push(3, 200, root);
  const PathRef tip = arena.push(0, 300, mid);
  EXPECT_NE(root, mid);
  EXPECT_NE(mid, tip);
  EXPECT_EQ(arena.node(tip), 300u);
  EXPECT_EQ(arena.prev(tip), mid);
  EXPECT_EQ(arena.node(mid), 200u);
  EXPECT_EQ(arena.prev(mid), root);
  EXPECT_EQ(arena.node(root), 100u);
  EXPECT_EQ(arena.prev(root), kNullPath);
  EXPECT_EQ(arena.size(), 3u);
  arena.clear();
  EXPECT_EQ(arena.size(), 0u);
  // Recycled lanes start from index 0 again.
  EXPECT_EQ(arena.push(0, 7, kNullPath), 0u);
}

TEST(BeaconPathArenaSharding, LanesShareCrossShardPrefixes) {
  BeaconPathArena arena(4);
  BeaconPathArena::Lane lane0 = arena.lane(0);
  BeaconPathArena::Lane lane2 = arena.lane(2);
  const BeaconPathRef origin = lane0.append(kNoBeaconPath, 41);
  const BeaconPathRef hop = lane2.append(origin, 42);
  const BeaconPathRef tip = lane0.append(hop, 43);
  EXPECT_GE(hop, 0);  // shard tags keep refs positive (int32)
  EXPECT_EQ(arena.length(tip), 3u);
  EXPECT_EQ(arena.last(tip), 43u);
  EXPECT_EQ(arena.materialize(tip), (std::vector<PublicId>{41, 42, 43}));
  std::vector<PublicId> prefix;
  EXPECT_TRUE(arena.walkPrefix(tip, 1, [&](PublicId id) {
    prefix.push_back(id);
    return true;
  }));
  EXPECT_EQ(prefix, (std::vector<PublicId>{42, 41}));  // suffix-first, last hop spared
  // Legacy 2-arg append and shard-0 lanes produce plain indices.
  BeaconPathArena serial;
  EXPECT_EQ(serial.append(kNoBeaconPath, 9), 0);
  EXPECT_EQ(serial.append(0, 10), 1);
}

// ---------------------------------------------------------------------------
// Lock-free Coalition blackboard under concurrent strategies.
// ---------------------------------------------------------------------------

TEST(CoalitionSharding, FirstAgreeOnWinsAndHitsTallyExactly) {
  Coalition board;
  EXPECT_FALSE(board.hasAgreedBit());
  ThreadPool pool(8);
  pool.parallelFor(256, [&](std::size_t i) {
    board.agreeOn(static_cast<std::uint8_t>(i % 2));
    board.recordHit();
  });
  EXPECT_TRUE(board.hasAgreedBit());
  EXPECT_LE(board.agreedBit(), 1u);
  EXPECT_EQ(board.hits(), 256u);
  // Later agreements never displace the installed bit.
  const std::uint8_t installed = board.agreedBit();
  board.agreeOn(static_cast<std::uint8_t>(1 - installed));
  EXPECT_EQ(board.agreedBit(), installed);
}

}  // namespace
}  // namespace bzc
