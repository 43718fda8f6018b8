// Tests for Algorithm 1: the record pool, view integration verdicts, the
// expansion checks, and the protocol under each adversary (Theorem 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "counting/local/attacks.hpp"
#include "counting/local/checks.hpp"
#include "counting/local/protocol.hpp"
#include "counting/local/view.hpp"
#include "graph/bfs.hpp"
#include "graph/expansion.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace bzc {
namespace {

struct PoolFixture {
  PoolFixture(NodeId n, NodeId d, std::uint64_t seed) : rng(seed), g(hnd(n, d, rng)) {
    Rng idRng = rng.fork(1);
    ids = std::make_unique<IdSpace>(n, idRng);
    pool = std::make_unique<RecordPool>(g, *ids);
  }
  Rng rng;
  Graph g;
  std::unique_ptr<IdSpace> ids;
  std::unique_ptr<RecordPool> pool;
};

TEST(RecordPool, HonestRecordsMatchGraph) {
  PoolFixture f(64, 4, 1);
  EXPECT_EQ(f.pool->numRecords(), 64u);
  for (NodeId u = 0; u < 64; ++u) {
    EXPECT_TRUE(f.pool->isHonest(u));
    EXPECT_EQ(f.pool->degree(u), f.g.degree(u));
    EXPECT_EQ(f.pool->recordName(u), u);
    EXPECT_EQ(f.pool->namePublicId(u), f.ids->publicId(u));
  }
}

TEST(RecordPool, FakeRecordsGetFreshNamesAndTracking) {
  PoolFixture f(16, 4, 2);
  const PublicId fakeId = 0x1234;
  const RecordIdx r = f.pool->addFake(fakeId, {f.ids->publicId(0), 0x5678});
  EXPECT_FALSE(f.pool->isHonest(r));
  EXPECT_EQ(f.pool->degree(r), 2u);
  EXPECT_TRUE(f.pool->needsRefTracking(f.pool->recordName(r)));
  EXPECT_TRUE(f.pool->needsRefTracking(0));  // honest node referenced by a fake
  EXPECT_TRUE(f.pool->lists(r, 0));
}

TEST(RecordPool, AliasesShareName) {
  PoolFixture f(16, 4, 3);
  const RecordIdx alias = f.pool->addFake(f.ids->publicId(5), {f.ids->publicId(0)});
  EXPECT_EQ(f.pool->recordName(alias), 5u);
  EXPECT_EQ(f.pool->aliases(5).size(), 2u);  // honest record + forgery
}

TEST(LocalView, SelfInstallAndBoundary) {
  PoolFixture f(32, 4, 4);
  LocalView view(f.pool.get(), 4);
  view.installSelf(7);
  EXPECT_EQ(view.size(), 1u);
  EXPECT_EQ(view.boundarySize(), static_cast<std::size_t>(f.g.degree(7)));
  EXPECT_TRUE(view.knows(7));
}

TEST(LocalView, IntegrationLayersAndDuplicates) {
  PoolFixture f(32, 4, 5);
  LocalView view(f.pool.get(), 4);
  view.installSelf(0);
  const NodeId nbr = f.g.neighbors(0)[0];
  EXPECT_EQ(view.integrate(nbr, 1), IntegrationVerdict::Ok);
  EXPECT_EQ(view.integrate(nbr, 1), IntegrationVerdict::Duplicate);
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(view.layerCounts()[1], 1u);
  EXPECT_EQ(view.roundMark(1), 1u);
}

TEST(LocalView, DegreeBoundRejected) {
  PoolFixture f(16, 4, 6);
  std::vector<PublicId> adj;
  for (int k = 0; k < 7; ++k) adj.push_back(0xA000 + k);  // degree 7 > Δ=4
  const RecordIdx bomb = f.pool->addFake(0xBEEF, adj);
  LocalView view(f.pool.get(), 4);
  view.installSelf(0);
  EXPECT_EQ(view.integrate(bomb, 1), IntegrationVerdict::DegreeBound);
}

TEST(LocalView, ConflictingAliasDetected) {
  PoolFixture f(16, 4, 7);
  // Forge node 1's record with a different adjacency.
  const RecordIdx forged = f.pool->addFake(f.ids->publicId(1), {0xD00D});
  LocalView view(f.pool.get(), 4);
  view.installSelf(0);
  ASSERT_EQ(view.integrate(1, 1), IntegrationVerdict::Ok);
  EXPECT_EQ(view.integrate(forged, 2), IntegrationVerdict::Conflict);
}

TEST(LocalView, IdenticalAliasIsDuplicate) {
  PoolFixture f(16, 4, 8);
  std::vector<PublicId> sameAdj;
  for (NodeId v : f.g.neighbors(1)) sameAdj.push_back(f.ids->publicId(v));
  const RecordIdx copy = f.pool->addFake(f.ids->publicId(1), sameAdj);
  LocalView view(f.pool.get(), 4);
  view.installSelf(0);
  ASSERT_EQ(view.integrate(1, 1), IntegrationVerdict::Ok);
  EXPECT_EQ(view.integrate(copy, 2), IntegrationVerdict::Duplicate);
}

TEST(LocalView, ForwardMutualMismatch) {
  PoolFixture f(16, 4, 9);
  // A fake record listing honest node 0, whose true record does not list it.
  const RecordIdx fake = f.pool->addFake(0xF00D, {f.ids->publicId(0)});
  LocalView view(f.pool.get(), 4);
  view.installSelf(0);  // node 0's record integrated (complete adjacency)
  EXPECT_EQ(view.integrate(fake, 1), IntegrationVerdict::MutualMismatch);
}

TEST(LocalView, ReverseMutualMismatch) {
  PoolFixture f(16, 4, 10);
  // Fake leaf claims an edge to a *fake* hub; the hub's record (integrated
  // later) omits the leaf.
  const RecordIdx leaf = f.pool->addFake(0xAAA, {0xBBB});
  const RecordIdx hub = f.pool->addFake(0xBBB, {0xCCC});
  LocalView view(f.pool.get(), 4);
  view.installSelf(0);
  ASSERT_EQ(view.integrate(leaf, 1), IntegrationVerdict::Ok);
  EXPECT_EQ(view.integrate(hub, 2), IntegrationVerdict::MutualMismatch);
}

TEST(LocalView, ConsistentFakeChainAccepted) {
  PoolFixture f(16, 4, 11);
  const RecordIdx a = f.pool->addFake(0x111, {0x222});
  const RecordIdx b = f.pool->addFake(0x222, {0x111, 0x333});
  LocalView view(f.pool.get(), 4);
  view.installSelf(0);
  EXPECT_EQ(view.integrate(a, 1), IntegrationVerdict::Ok);
  EXPECT_EQ(view.integrate(b, 2), IntegrationVerdict::Ok);
  EXPECT_EQ(view.boundarySize(),
            static_cast<std::size_t>(f.g.degree(0)) + 1);  // 0x333 referenced
}

TEST(LocalView, ViewGraphStructure) {
  // Triangle 0-1-2 plus pendant 3 on node 2.
  const Graph g(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  Rng rng(12);
  Rng idRng = rng.fork(1);
  IdSpace ids(4, idRng);
  RecordPool pool(g, ids);
  LocalView view(&pool, 3);
  view.installSelf(0);
  ASSERT_EQ(view.integrate(1, 1), IntegrationVerdict::Ok);
  ASSERT_EQ(view.integrate(2, 1), IntegrationVerdict::Ok);
  const Graph vg = view.buildViewGraph();
  // Vertices: 0,1,2 integrated + node 3 as boundary.
  EXPECT_EQ(vg.numNodes(), 4u);
  EXPECT_EQ(vg.numEdges(), 4u);  // triangle + 2-3
}

// --- Bit-identity pins for the view kernels. ---

// Reference view-graph build from the view's public state, with the plain
// hash-map boundary index: integrated vertices in integration order, then
// boundary names in first-encounter order; an edge between two integrated
// vertices is emitted by its lower-ordered endpoint only.
Graph referenceViewGraph(const RecordPool& pool, const LocalView& view) {
  const auto& log = view.integrationLog();
  std::unordered_map<NameId, NodeId> order;
  for (std::size_t i = 0; i < log.size(); ++i) {
    order.emplace(pool.recordName(log[i]), static_cast<NodeId>(i));
  }
  const auto total = static_cast<NodeId>(log.size());
  std::unordered_map<NameId, NodeId> boundaryIndex;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < total; ++i) {
    for (NameId a : pool.adjacency(log[i])) {
      const auto it = order.find(a);
      if (it != order.end()) {
        if (it->second > i) edges.emplace_back(i, it->second);
      } else {
        const auto [b, inserted] = boundaryIndex.try_emplace(
            a, static_cast<NodeId>(total + boundaryIndex.size()));
        edges.emplace_back(i, b->second);
      }
    }
  }
  return Graph(static_cast<NodeId>(total + boundaryIndex.size()), edges);
}

void expectSameGraph(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.numNodes(), want.numNodes());
  EXPECT_EQ(got.numEdges(), want.numEdges());
  for (NodeId u = 0; u < got.numNodes(); ++u) {
    const auto a = got.neighbors(u);
    const auto b = want.neighbors(u);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "vertex " << u;
  }
}

/// knows(r) must mean "r itself is in the integration log", for every record.
void expectKnowsMatchesLog(const RecordPool& pool, const LocalView& view) {
  const auto& log = view.integrationLog();
  for (RecordIdx r = 0; r < pool.numRecords(); ++r) {
    const bool inLog = std::find(log.begin(), log.end(), r) != log.end();
    EXPECT_EQ(view.knows(r), inLog) << "record " << r;
  }
}

/// Integrates the honest records within `radius` hops of `self`, layer by layer.
void integrateHonestBall(const PoolFixture& f, LocalView& view, NodeId self, std::uint32_t radius) {
  view.installSelf(self);
  const auto dist = bfsDistances(f.g, self);
  for (std::uint32_t d = 1; d <= radius; ++d) {
    for (NodeId v = 0; v < f.g.numNodes(); ++v) {
      if (dist[v] == d) {
        ASSERT_EQ(view.integrate(v, d), IntegrationVerdict::Ok);
      }
    }
  }
}

TEST(ViewKernels, FakeWorldWithDoubledNeighbourMatchesReference) {
  PoolFixture f(64, 4, 40);
  LocalView view(f.pool.get(), 8);
  integrateHonestBall(f, view, 0, 2);
  // Two honest names just outside the ball: boundary shared with the fakes.
  const auto dist = bfsDistances(f.g, 0);
  std::vector<PublicId> outside;
  for (NodeId v = 0; v < f.g.numNodes() && outside.size() < 2; ++v) {
    if (dist[v] == 3) outside.push_back(f.ids->publicId(v));
  }
  ASSERT_EQ(outside.size(), 2u);
  // F1 lists F2 twice and is integrated first, so it emits the F1-F2 edge
  // twice; F4 lists F3 twice but is integrated after F3, which emits once.
  const RecordIdx f1 = f.pool->addFake(0xF1, {0xF2, 0xF2, outside[0]});
  const RecordIdx f2 = f.pool->addFake(0xF2, {0xF1, 0xF3});
  const RecordIdx f3 = f.pool->addFake(0xF3, {0xF2, 0xF4, outside[0], outside[1]});
  const RecordIdx f4 = f.pool->addFake(0xF4, {0xF3, 0xF3});
  const RecordIdx f5 = f.pool->addFake(0xF5, {0xF6});
  for (const RecordIdx r : {f1, f2, f3, f4, f5}) {
    ASSERT_EQ(view.integrate(r, 3), IntegrationVerdict::Ok);
  }
  const Graph got = view.buildViewGraph();
  expectSameGraph(got, referenceViewGraph(*f.pool, view));
  const auto& log = view.integrationLog();
  const auto at = [&](RecordIdx r) {
    return static_cast<NodeId>(std::find(log.begin(), log.end(), r) - log.begin());
  };
  EXPECT_EQ(got.edgeMultiplicity(at(f1), at(f2)), 2u);
  EXPECT_EQ(got.edgeMultiplicity(at(f3), at(f4)), 1u);
  expectKnowsMatchesLog(*f.pool, view);
}

TEST(ViewKernels, RandomFakeWorldsMatchReference) {
  for (std::uint64_t seed = 50; seed < 56; ++seed) {
    PoolFixture f(128, 6, seed);
    LocalView view(f.pool.get(), 8);
    integrateHonestBall(f, view, 0, 2);
    // Fabricated records over 40 fake identities plus a few honest names,
    // with repeated entries; pool growth here postdates the view.
    Rng rng(seed * 7);
    std::vector<RecordIdx> fakes;
    for (int k = 0; k < 60; ++k) {
      std::vector<PublicId> adj;
      const auto deg = 1 + rng.uniform(6);
      for (std::uint64_t e = 0; e < deg; ++e) {
        adj.push_back(rng.uniform(8) == 0 ? f.ids->publicId(static_cast<NodeId>(rng.uniform(128)))
                                          : 0xA000 + rng.uniform(40));
      }
      fakes.push_back(f.pool->addFake(0xA000 + rng.uniform(40), adj));
    }
    std::size_t accepted = 0;
    for (int pass = 0; pass < 3; ++pass) {
      for (const RecordIdx r : fakes) {
        if (view.knows(r)) continue;
        if (view.integrate(r, 3 + pass) == IntegrationVerdict::Ok) ++accepted;
      }
      expectKnowsMatchesLog(*f.pool, view);
    }
    EXPECT_GT(accepted, 0u) << "seed " << seed;
    expectSameGraph(view.buildViewGraph(), referenceViewGraph(*f.pool, view));
  }
}

TEST(ViewKernels, KnowsTracksAliasesConflictsAndPoolGrowth) {
  PoolFixture f(16, 4, 41);
  LocalView view(f.pool.get(), 4);
  view.installSelf(0);
  expectKnowsMatchesLog(*f.pool, view);
  std::vector<PublicId> sameAdj;
  for (NodeId v : f.g.neighbors(1)) sameAdj.push_back(f.ids->publicId(v));
  const RecordIdx copy = f.pool->addFake(f.ids->publicId(1), sameAdj);
  const RecordIdx forged = f.pool->addFake(f.ids->publicId(1), {0xD00D});
  ASSERT_EQ(view.integrate(1, 1), IntegrationVerdict::Ok);
  EXPECT_EQ(view.integrate(copy, 2), IntegrationVerdict::Duplicate);
  EXPECT_EQ(view.integrate(forged, 2), IntegrationVerdict::Conflict);
  EXPECT_TRUE(view.knows(1));
  EXPECT_FALSE(view.knows(copy));
  EXPECT_FALSE(view.knows(forged));
  expectKnowsMatchesLog(*f.pool, view);
  // Grow the pool well past the view's bitset, then integrate the newest.
  RecordIdx last = 0;
  for (PublicId k = 0; k < 150; ++k) last = f.pool->addFake(0xB000 + k, {0xB000 + k + 1});
  EXPECT_FALSE(view.knows(last));
  expectKnowsMatchesLog(*f.pool, view);
  ASSERT_EQ(view.integrate(last, 3), IntegrationVerdict::Ok);
  EXPECT_TRUE(view.knows(last));
  expectKnowsMatchesLog(*f.pool, view);
}

// --- Expansion checks. ---

TEST(Checks, ExactViewExpansionDetectsExhaustion) {
  const Graph g = complete(6);
  Rng rng(13);
  Rng idRng = rng.fork(1);
  IdSpace ids(6, idRng);
  RecordPool pool(g, ids);
  LocalView view(&pool, 5);
  view.installSelf(0);
  // Partial view (4 of 6 nodes integrated): every subset still has outside
  // neighbours, including boundary vertices, so the minimum stays positive.
  for (NodeId v = 1; v < 4; ++v) ASSERT_EQ(view.integrate(v, 1), IntegrationVerdict::Ok);
  EXPECT_GT(exactViewSubsetExpansion(view), 0.4);
  // Full view: S = everything has Out(S) = 0 — the exhaustion signal the
  // algorithm decides on (Lemma 5's endgame).
  for (NodeId v = 4; v < 6; ++v) ASSERT_EQ(view.integrate(v, 2), IntegrationVerdict::Ok);
  EXPECT_DOUBLE_EQ(exactViewSubsetExpansion(view), 0.0);
}

TEST(Checks, MonitorHealthyMidFlood) {
  PoolFixture f(256, 8, 14);
  LocalView view(f.pool.get(), 8);
  view.installSelf(0);
  const auto dist = bfsDistances(f.g, 0);
  LocalCheckParams params;
  ExpansionMonitor monitor(params, 99);
  // Integrate layer by layer; mid-flood rounds must stay healthy.
  for (Round r = 1; r <= 2; ++r) {
    for (NodeId v = 0; v < f.g.numNodes(); ++v) {
      if (dist[v] == r) {
        ASSERT_EQ(view.integrate(v, r), IntegrationVerdict::Ok);
      }
    }
    EXPECT_EQ(monitor.inspect(view, r), ExpansionVerdict::Healthy) << "round " << r;
  }
}

TEST(Checks, MonitorFiresOnExhaustion) {
  PoolFixture f(128, 8, 15);
  LocalView view(f.pool.get(), 8);
  view.installSelf(0);
  const auto dist = bfsDistances(f.g, 0);
  const std::uint32_t ecc = eccentricity(f.g, 0);
  LocalCheckParams params;
  ExpansionMonitor monitor(params, 99);
  ExpansionVerdict last = ExpansionVerdict::Healthy;
  for (Round r = 1; r <= ecc + 1; ++r) {
    for (NodeId v = 0; v < f.g.numNodes(); ++v) {
      if (dist[v] == r) {
        ASSERT_EQ(view.integrate(v, r), IntegrationVerdict::Ok);
      }
    }
    last = monitor.inspect(view, r);
    if (last != ExpansionVerdict::Healthy) break;
  }
  EXPECT_EQ(last, ExpansionVerdict::BallGrowthViolation);
}

TEST(Checks, SpectralSweepIsAColdFiveTimesSpectralItersSolve) {
  Rng graphRng(16);
  const Graph g = hnd(160, 4, graphRng);
  const NodeId nInt = 120;
  LocalCheckParams params;
  ExpansionMonitor monitor(params, 99);
  // Direct solves on a copy of the monitor's stream, sorted like the sweep.
  Rng stream(99);
  const auto directOrder = [&](unsigned iters) {
    Rng rng = stream;
    const std::vector<double> f = fiedlerVector(g, iters, rng);
    std::vector<NodeId> order(nInt);
    std::iota(order.begin(), order.end(), NodeId{0});
    std::sort(order.begin(), order.end(),
              [&](NodeId a, NodeId b) { return f[a] != f[b] ? f[a] < f[b] : a < b; });
    return std::make_pair(order, rng);
  };
  const auto [first, afterFirst] = directOrder(5 * params.spectralIters);
  EXPECT_EQ(monitor.sweepOrder(g, nInt), first);
  // The iteration count is observable: a spectralIters-deep solve differs.
  EXPECT_NE(directOrder(params.spectralIters).first, first);
  // A same-size graph next round still gets a cold solve from the stream.
  stream = afterFirst;
  EXPECT_EQ(monitor.sweepOrder(g, nInt), directOrder(5 * params.spectralIters).first);
}

// --- Protocol-level tests. ---

struct LocalRun {
  LocalOutcome out;
  Graph g;
  ByzantineSet byz;
};

LocalRun runScenario(NodeId n, std::uint64_t seed, std::unique_ptr<LocalAdversary> adv,
                     Placement placement, std::size_t count, NodeId victim = 0,
                     std::uint32_t moatRadius = 1) {
  Rng rng(seed);
  Graph g = hnd(n, 8, rng);
  PlacementSpec spec;
  spec.kind = placement;
  spec.count = count;
  spec.victim = victim;
  spec.moatRadius = moatRadius;
  Rng prng = rng.fork(3);
  auto byz = placeByzantine(g, spec, prng);
  LocalParams params;
  Rng runRng = rng.fork(5);
  LocalOutcome out = runLocalCounting(g, byz, *adv, params, runRng, victim);
  return {std::move(out), std::move(g), std::move(byz)};
}

TEST(LocalProtocol, BenignDecidesAtDiameterScale) {
  const NodeId n = 512;
  auto run = runScenario(n, 20, makeHonestLocalAdversary(), Placement::None, 0);
  const std::uint32_t diam = exactDiameter(run.g);
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_TRUE(run.out.result.decisions[u].decided);
    EXPECT_GE(run.out.result.decisions[u].estimate, diam - 2.0);
    EXPECT_LE(run.out.result.decisions[u].estimate, diam + 1.0);
  }
  EXPECT_FALSE(run.out.result.hitRoundCap);
}

TEST(LocalProtocol, BenignDecisionsAreBallGrowth) {
  auto run = runScenario(256, 21, makeHonestLocalAdversary(), Placement::None, 0);
  EXPECT_GT(run.out.stats.ballGrowthDecisions, 250u);
  EXPECT_EQ(run.out.stats.inconsistencyDecisions, 0u);
  EXPECT_EQ(run.out.stats.sparseCutDecisions, 0u);
}

TEST(LocalProtocol, Deterministic) {
  auto a = runScenario(128, 22, makeHonestLocalAdversary(), Placement::None, 0);
  auto b = runScenario(128, 22, makeHonestLocalAdversary(), Placement::None, 0);
  for (NodeId u = 0; u < 128; ++u) {
    EXPECT_EQ(a.out.result.decisions[u].estimate, b.out.result.decisions[u].estimate);
  }
}

TEST(LocalProtocol, ByzantineActingHonestlyHarmless) {
  auto run = runScenario(256, 23, makeHonestLocalAdversary(), Placement::Random, 16);
  for (NodeId u = 0; u < 256; ++u) {
    if (run.byz.contains(u)) continue;
    EXPECT_TRUE(run.out.result.decisions[u].decided);
  }
  EXPECT_EQ(run.out.stats.inconsistencyDecisions, 0u);
}

TEST(LocalProtocol, SilentAttackYieldsDistanceEstimates) {
  // The mute cascade: node u decides at dist(u, Byz) or dist+1.
  auto run = runScenario(512, 24, makeSilentLocalAdversary(), Placement::Random, 22);
  for (NodeId u = 0; u < 512; ++u) {
    if (run.byz.contains(u)) continue;
    ASSERT_TRUE(run.out.result.decisions[u].decided);
    const double est = run.out.result.decisions[u].estimate;
    const double dist = run.out.stats.distToByz[u];
    EXPECT_GE(est, dist) << "node " << u;
    EXPECT_LE(est, dist + 2) << "node " << u;
  }
  EXPECT_GT(run.out.stats.muteDecisions, 400u);
}

TEST(LocalProtocol, ConflictAttackDetectedEverywhere) {
  auto run = runScenario(512, 25, makeConflictLocalAdversary(), Placement::Random, 22);
  const std::uint32_t diam = exactDiameter(run.g);
  for (NodeId u = 0; u < 512; ++u) {
    if (run.byz.contains(u)) continue;
    ASSERT_TRUE(run.out.result.decisions[u].decided);
    EXPECT_LE(run.out.result.decisions[u].estimate, diam + 1.0);
  }
  EXPECT_GT(run.out.stats.inconsistencyDecisions, 0u);
}

TEST(LocalProtocol, DegreeBombDetected) {
  auto run = runScenario(256, 26, makeDegreeBombLocalAdversary(), Placement::Random, 16);
  EXPECT_GT(run.out.stats.inconsistencyDecisions, 0u);
  for (NodeId u = 0; u < 256; ++u) {
    if (!run.byz.contains(u)) {
      EXPECT_TRUE(run.out.result.decisions[u].decided);
    }
  }
}

TEST(LocalProtocol, FakeWorldStringsAlongTheMoatedVictim) {
  // Remark 1: a victim surrounded by Byzantine nodes has its termination
  // time dictated by the adversary.
  const NodeId victim = 3;
  auto benign = runScenario(512, 27, makeHonestLocalAdversary(), Placement::None, 0);
  auto run = runScenario(512, 27, makeFakeWorldLocalAdversary(), Placement::Surround, 60, victim);
  ASSERT_TRUE(run.out.result.decisions[victim].decided);
  // The victim's estimate is inflated well past the benign diameter estimate.
  EXPECT_GT(run.out.result.decisions[victim].estimate,
            benign.out.result.decisions[victim].estimate + 3.0);
}

TEST(LocalProtocol, TheoremOneWindowForGoodNodes) {
  // Nodes far from Byzantine nodes (the Good set) decide within
  // [dist-to-Byz, diam+1] under any of the attacks.
  const NodeId n = 512;
  for (auto makeAdv : {&makeSilentLocalAdversary}) {
    auto run = runScenario(n, 28, (*makeAdv)(1), Placement::Random, 22);
    const std::uint32_t diam = exactDiameter(run.g);
    for (NodeId u = 0; u < n; ++u) {
      if (run.byz.contains(u)) continue;
      const double est = run.out.result.decisions[u].estimate;
      EXPECT_GE(est, run.out.stats.distToByz[u]);
      EXPECT_LE(est, diam + 1.0);
    }
  }
}

// Property sweep: benign estimates track the diameter across sizes (the
// Theorem 1 O(log n) time bound).
class LocalBenignSweep : public ::testing::TestWithParam<NodeId> {};

TEST_P(LocalBenignSweep, EstimateTracksDiameter) {
  const NodeId n = GetParam();
  auto run = runScenario(n, 300 + n, makeHonestLocalAdversary(), Placement::None, 0);
  const std::uint32_t diam = exactDiameter(run.g);
  for (NodeId u = 0; u < n; u += 37) {
    ASSERT_TRUE(run.out.result.decisions[u].decided);
    EXPECT_GE(run.out.result.decisions[u].estimate, diam - 2.0);
    EXPECT_LE(run.out.result.decisions[u].estimate, diam + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LocalBenignSweep, ::testing::Values<NodeId>(64, 128, 256, 512));

}  // namespace
}  // namespace bzc
