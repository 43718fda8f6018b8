// Tests for Algorithm 2: parameters, the path arena, and the full protocol
// under benign and adversarial conditions (Theorem 2, Corollary 1, and the
// blacklisting mechanism of §1.3).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "counting/beacon/blacklist.hpp"
#include "counting/beacon/params.hpp"
#include "counting/beacon/path.hpp"
#include "counting/beacon/protocol.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace bzc {
namespace {

TEST(BeaconParams, EpsilonMatchesEquationThree) {
  BeaconParams p;
  p.gamma = 0.55;
  p.delta = 0.1;
  // eq (3): epsilon = 1 - (1-delta)*gamma / ln d.
  const double expected = 1.0 - 0.9 * 0.55 / std::log(8.0);
  EXPECT_NEAR(p.epsilon(8), expected, 1e-12);
}

TEST(BeaconParams, SuffixGrowsWithPhase) {
  BeaconParams p;
  const std::uint32_t s5 = p.blacklistSuffix(5, 8);
  const std::uint32_t s20 = p.blacklistSuffix(20, 8);
  EXPECT_LE(s5, s20);
  // (1-eps) ~ 0.238 for the defaults: phase 20 suffix = floor(4.76) = 4.
  EXPECT_EQ(s20, 4u);
}

TEST(BeaconParams, IterationsMatchLineThree) {
  BeaconParams p;
  p.gamma = 0.55;
  for (std::uint32_t i : {2u, 5u, 9u}) {
    const auto expected = static_cast<std::uint32_t>(std::exp(0.45 * i)) + 1;
    EXPECT_EQ(p.iterationsForPhase(i), expected);
  }
}

TEST(BeaconParams, ActivationProbabilityShape) {
  BeaconParams p;
  p.c1 = 4.0;
  // c1*i/d^i, clamped to 1.
  EXPECT_DOUBLE_EQ(p.activationProbability(1, 2), 1.0);  // 4*1/2 = 2 -> clamp
  EXPECT_NEAR(p.activationProbability(5, 8), 4.0 * 5 / std::pow(8.0, 5), 1e-15);
  // Decreasing in the phase once past the clamp.
  EXPECT_GT(p.activationProbability(3, 8), p.activationProbability(4, 8));
}

TEST(BeaconParams, ValidationCatchesBadConstants) {
  BeaconParams p;
  p.gamma = 0.3;  // violates eq (2) with delta = 0.1
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.gamma = 0.55;
  p.delta = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.delta = 0.1;
  p.c1 = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(BeaconParams, RoundsPerIteration) {
  EXPECT_EQ(BeaconParams::roundsPerIteration(4), 13u);  // 2i+5
}

TEST(BeaconPathArena, AppendAndMaterialize) {
  BeaconPathArena arena;
  const BeaconPathRef a = arena.append(kNoBeaconPath, 10);
  const BeaconPathRef b = arena.append(a, 20);
  const BeaconPathRef c = arena.append(b, 30);
  EXPECT_EQ(arena.length(c), 3u);
  EXPECT_EQ(arena.last(c), 30u);
  const auto ids = arena.materialize(c);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 10u);
  EXPECT_EQ(ids[1], 20u);
  EXPECT_EQ(ids[2], 30u);
}

TEST(BeaconPathArena, SharedPrefixes) {
  BeaconPathArena arena;
  const BeaconPathRef a = arena.append(kNoBeaconPath, 1);
  const BeaconPathRef b1 = arena.append(a, 2);
  const BeaconPathRef b2 = arena.append(a, 3);
  EXPECT_EQ(arena.materialize(b1)[0], 1u);
  EXPECT_EQ(arena.materialize(b2)[0], 1u);
  EXPECT_EQ(arena.size(), 3u);  // prefix stored once
  // Refs are plain indices, and a cleared arena starts from 0 again.
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b2, 2);
  arena.clear();
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.append(kNoBeaconPath, 4), 0);
}

TEST(BeaconPathArena, WalkPrefixSkipsSuffix) {
  BeaconPathArena arena;
  BeaconPathRef p = kNoBeaconPath;
  for (PublicId id = 1; id <= 5; ++id) p = arena.append(p, id);
  std::vector<PublicId> visited;
  arena.walkPrefix(p, 2, [&](PublicId id) {
    visited.push_back(id);
    return true;
  });
  // Last 2 (5, 4) spared; prefix visited suffix-first: 3, 2, 1.
  ASSERT_EQ(visited.size(), 3u);
  EXPECT_EQ(visited[0], 3u);
  EXPECT_EQ(visited[2], 1u);
}

TEST(BeaconPathArena, WalkPrefixEarlyStop) {
  BeaconPathArena arena;
  BeaconPathRef p = kNoBeaconPath;
  for (PublicId id = 1; id <= 4; ++id) p = arena.append(p, id);
  int count = 0;
  const bool completed = arena.walkPrefix(p, 0, [&](PublicId) { return ++count < 2; });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 2);
}

TEST(BeaconPathArena, SuffixCoveringWholePath) {
  BeaconPathArena arena;
  BeaconPathRef p = arena.append(kNoBeaconPath, 9);
  bool visitedAny = false;
  EXPECT_TRUE(arena.walkPrefix(p, 5, [&](PublicId) {
    visitedAny = true;
    return true;
  }));
  EXPECT_FALSE(visitedAny);
}

// ---------------------------------------------------------------------------
// Protocol-level tests.

struct BenignRun {
  BeaconOutcome out;
  NodeId n;
};

BenignRun runBenign(NodeId n, std::uint64_t seed, BeaconParams params = {}) {
  Rng rng(seed);
  Graph g = hnd(n, 8, rng);
  const ByzantineSet none(n, {});
  Rng runRng = rng.fork(5);
  BenignRun r{runBeaconCounting(g, none, BeaconAdversaryProfile::none(), params, {}, runRng), n};
  return r;
}

TEST(BeaconProtocol, CorollaryOneBenignTermination) {
  const auto [out, n] = runBenign(1024, 21);
  // All nodes decide, the network quiesces, and the total round count is
  // polylogarithmic (Corollary 1: O(log n) phases of O(log n) rounds).
  for (NodeId u = 0; u < n; ++u) EXPECT_TRUE(out.result.decisions[u].decided);
  EXPECT_TRUE(out.stats.quiesced);
  EXPECT_FALSE(out.result.hitRoundCap);
  const double logN = std::log(static_cast<double>(n));
  EXPECT_LT(out.result.totalRounds, 10 * logN * logN);
}

TEST(BeaconProtocol, BenignEstimatesConcentrate) {
  const auto [out, n] = runBenign(1024, 22);
  double lo = 1e9;
  double hi = 0;
  for (NodeId u = 0; u < n; ++u) {
    lo = std::min(lo, out.result.decisions[u].estimate);
    hi = std::max(hi, out.result.decisions[u].estimate);
  }
  // Remark 2: estimates may differ per node but only within a constant band.
  EXPECT_LE(hi - lo, 2.0);
  // The decided phase tracks log_d(n) up to an additive constant.
  const double logdN = std::log(static_cast<double>(n)) / std::log(8.0);
  EXPECT_GE(hi, logdN - 1.0);
  EXPECT_LE(hi, logdN + 4.0);
}

TEST(BeaconProtocol, DeterministicGivenSeed) {
  const auto a = runBenign(256, 77);
  const auto b = runBenign(256, 77);
  for (NodeId u = 0; u < a.n; ++u) {
    EXPECT_EQ(a.out.result.decisions[u].estimate, b.out.result.decisions[u].estimate);
    EXPECT_EQ(a.out.result.decisions[u].round, b.out.result.decisions[u].round);
  }
  EXPECT_EQ(a.out.result.totalRounds, b.out.result.totalRounds);
}

TEST(BeaconProtocol, DifferentSeedsStillConcentrate) {
  const auto a = runBenign(512, 1);
  const auto b = runBenign(512, 2);
  EXPECT_NEAR(a.out.result.decisions[0].estimate, b.out.result.decisions[0].estimate, 2.0);
}

TEST(BeaconProtocol, BenignMessagesAreSmall) {
  const auto [out, n] = runBenign(512, 23);
  const ByzantineSet none(n, {});
  const auto honest = none.honestNodes();
  // A beacon carries O(i) = O(log n) IDs; with 64-bit IDs the budget below
  // equals a path of ~20 IDs — comfortably O(log n)·polylog bits.
  EXPECT_GT(out.result.meter.fractionWithin(honest, 64 * 21), 0.99);
}

BeaconOutcome runAttacked(NodeId n, std::uint64_t seed, const BeaconAdversaryProfile& attack,
                          BeaconParams params = {}, double gammaPlacement = 0.55) {
  Rng rng(seed);
  Graph g = hnd(n, 8, rng);
  PlacementSpec spec;
  spec.kind = Placement::Random;
  spec.count = byzantineBudget(n, gammaPlacement);
  Rng prng = rng.fork(3);
  const auto byz = placeByzantine(g, spec, prng);
  Rng runRng = rng.fork(5);
  BeaconLimits limits;
  limits.maxPhase = static_cast<std::uint32_t>(std::ceil(std::log(static_cast<double>(n)))) + 3;
  return runBeaconCounting(g, byz, attack, params, limits, runRng);
}

TEST(BeaconProtocol, FlooderMostNodesDecideInWindow) {
  const NodeId n = 1024;
  auto out = runAttacked(n, 31, BeaconAdversaryProfile::flooder());
  const double logN = std::log(static_cast<double>(n));
  std::size_t decided = 0;
  std::size_t honest = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (out.stats.decidedPhase[u] == 0 && !out.result.decisions[u].decided) {
      // Byzantine entries stay undecided; honest non-deciders counted below.
    }
  }
  Rng rng(31);
  Graph g = hnd(n, 8, rng);
  PlacementSpec spec;
  spec.kind = Placement::Random;
  spec.count = byzantineBudget(n, 0.55);
  Rng prng = rng.fork(3);
  const auto byz = placeByzantine(g, spec, prng);
  for (NodeId u = 0; u < n; ++u) {
    if (byz.contains(u)) continue;
    ++honest;
    if (!out.result.decisions[u].decided) continue;
    ++decided;
    const double ratio = out.result.decisions[u].estimate / logN;
    EXPECT_GT(ratio, 0.3) << "node " << u;
    EXPECT_LT(ratio, 1.8) << "node " << u;
  }
  // Theorem 2: at least (1 - beta) n honest nodes decide. The permanently
  // undecided are the Byzantine-adjacent ones (≈ B*d of them).
  EXPECT_GT(static_cast<double>(decided) / static_cast<double>(honest), 0.8);
}

TEST(BeaconProtocol, FlooderRaisesEstimatesAboveBenign) {
  const NodeId n = 512;
  const auto benign = runBenign(n, 41);
  auto attacked = runAttacked(n, 41, BeaconAdversaryProfile::flooder());
  double benignMean = 0;
  double attackedMean = 0;
  std::size_t cb = 0;
  std::size_t ca = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (benign.out.result.decisions[u].decided) {
      benignMean += benign.out.result.decisions[u].estimate;
      ++cb;
    }
    if (attacked.result.decisions[u].decided) {
      attackedMean += attacked.result.decisions[u].estimate;
      ++ca;
    }
  }
  benignMean /= cb;
  attackedMean /= ca;
  // Forged beacons keep nodes going for extra phases (≈ until the per-phase
  // iteration count exceeds B(n), per Lemma 11).
  EXPECT_GT(attackedMean, benignMean + 0.5);
}

TEST(BeaconProtocol, BlacklistingIsWhatStopsTheFlooder) {
  // Ablation (§1.3): with blacklisting disabled, forged beacons are always
  // accepted and nobody decides before the phase cap.
  const NodeId n = 256;
  BeaconParams noBlacklist;
  noBlacklist.blacklistEnabled = false;
  auto out = runAttacked(n, 51, BeaconAdversaryProfile::flooder(), noBlacklist);
  std::size_t decided = 0;
  for (NodeId u = 0; u < n; ++u) decided += out.result.decisions[u].decided ? 1 : 0;
  BeaconParams withBlacklist;
  auto ok = runAttacked(n, 51, BeaconAdversaryProfile::flooder(), withBlacklist);
  std::size_t decidedOk = 0;
  for (NodeId u = 0; u < n; ++u) decidedOk += ok.result.decisions[u].decided ? 1 : 0;
  EXPECT_LT(decided, decidedOk / 4) << "blacklisting off should stall decisions";
}

TEST(BeaconProtocol, SuppressorCausesEarlyDecisions) {
  const NodeId n = 512;
  const auto benign = runBenign(n, 61);
  auto suppressed = runAttacked(n, 61, BeaconAdversaryProfile::suppressor());
  // Suppression removes beacons, so estimates can only shrink (earlier
  // decisions), never grow.
  double benignMax = 0;
  double suppressedMax = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (benign.out.result.decisions[u].decided) {
      benignMax = std::max(benignMax, benign.out.result.decisions[u].estimate);
    }
    if (suppressed.result.decisions[u].decided) {
      suppressedMax = std::max(suppressedMax, suppressed.result.decisions[u].estimate);
    }
  }
  EXPECT_LE(suppressedMax, benignMax + 1.0);
}

TEST(BeaconProtocol, ContinueSpamPreventsQuiescenceNotDecisions) {
  const NodeId n = 256;
  auto out = runAttacked(n, 71, BeaconAdversaryProfile::continueSpammer());
  EXPECT_FALSE(out.stats.quiesced);  // Remark 3: adversary controls termination
  std::size_t decided = 0;
  for (NodeId u = 0; u < n; ++u) decided += out.result.decisions[u].decided ? 1 : 0;
  EXPECT_GT(decided, n * 8 / 10);  // decisions themselves unharmed
}

TEST(BeaconProtocol, ContinueMessagesPreventEarlyExit) {
  // Ablation: with continue messages disabled, decided nodes exit instead of
  // re-entering, beacons stop reaching late deciders, and the undecided tail
  // decides earlier (smaller estimates) than with the full protocol.
  BeaconParams noContinue;
  noContinue.continueEnabled = false;
  const NodeId n = 512;
  Rng rng(81);
  Graph g = hnd(n, 8, rng);
  const ByzantineSet none(n, {});
  Rng r1 = rng.fork(1);
  const auto without =
      runBeaconCounting(g, none, BeaconAdversaryProfile::none(), noContinue, {}, r1);
  Rng r2 = rng.fork(1);
  const auto with = runBeaconCounting(g, none, BeaconAdversaryProfile::none(), {}, {}, r2);
  double meanWithout = 0;
  double meanWith = 0;
  for (NodeId u = 0; u < n; ++u) {
    meanWithout += without.result.decisions[u].estimate;
    meanWith += with.result.decisions[u].estimate;
  }
  EXPECT_LE(meanWithout, meanWith);
}

TEST(BeaconProtocol, ChoicePoliciesBothSolveBenign) {
  for (BeaconChoicePolicy policy :
       {BeaconChoicePolicy::FirstSeen, BeaconChoicePolicy::PreferAcceptable}) {
    BeaconParams params;
    params.choice = policy;
    const NodeId n = 256;
    Rng rng(91);
    Graph g = hnd(n, 8, rng);
    const ByzantineSet none(n, {});
    Rng runRng = rng.fork(2);
    const auto out = runBeaconCounting(g, none, BeaconAdversaryProfile::none(), params, {}, runRng);
    for (NodeId u = 0; u < n; ++u) EXPECT_TRUE(out.result.decisions[u].decided);
  }
}

TEST(BeaconProtocol, RoundCapReported) {
  BeaconLimits limits;
  limits.maxTotalRounds = 50;  // absurdly small: must hit the cap
  const NodeId n = 256;
  Rng rng(101);
  Graph g = hnd(n, 8, rng);
  const ByzantineSet none(n, {});
  Rng runRng = rng.fork(2);
  const auto out = runBeaconCounting(g, none, BeaconAdversaryProfile::none(), {}, limits, runRng);
  EXPECT_TRUE(out.result.hitRoundCap);
}

// Property sweep (Theorem 2 benign shape): across sizes, every node decides,
// the decided phase stays within a fixed constant-ratio window of ln n, and
// the run quiesces.
class BenignSweep : public ::testing::TestWithParam<NodeId> {};

TEST_P(BenignSweep, WindowHolds) {
  const NodeId n = GetParam();
  const auto [out, size] = runBenign(n, 200 + n);
  const double logN = std::log(static_cast<double>(n));
  for (NodeId u = 0; u < size; ++u) {
    ASSERT_TRUE(out.result.decisions[u].decided);
    const double ratio = out.result.decisions[u].estimate / logN;
    EXPECT_GE(ratio, 0.3) << "n=" << n << " node " << u;
    EXPECT_LE(ratio, 1.3) << "n=" << n << " node " << u;
  }
  EXPECT_TRUE(out.stats.quiesced);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BenignSweep, ::testing::Values<NodeId>(128, 256, 512, 1024, 2048));

TEST(BlacklistSet, InsertReportsNewMembersAndClearEmpties) {
  BlacklistSet bl;
  EXPECT_TRUE(bl.empty());
  EXPECT_FALSE(bl.contains(0));
  EXPECT_TRUE(bl.insert(0));  // zero is an ordinary ID
  EXPECT_FALSE(bl.insert(0));
  EXPECT_TRUE(bl.insert(42));
  EXPECT_TRUE(bl.contains(0));
  EXPECT_TRUE(bl.contains(42));
  EXPECT_FALSE(bl.contains(43));
  EXPECT_EQ(bl.size(), 2U);
  bl.clear();
  EXPECT_TRUE(bl.empty());
  EXPECT_FALSE(bl.contains(0));
  EXPECT_FALSE(bl.contains(42));
  EXPECT_TRUE(bl.insert(42));  // a cleared set takes IDs again
  EXPECT_EQ(bl.size(), 1U);
}

TEST(BlacklistSet, NoPublicIdIsAMemberLikeAnyOther) {
  // A forged path may carry the all-ones ID: it must neither be lost nor
  // match the free slots of a table that does not hold it.
  BlacklistSet bl;
  EXPECT_FALSE(bl.contains(kNoPublicId));
  for (PublicId id = 1; id <= 20; ++id) bl.insert(id);
  EXPECT_FALSE(bl.contains(kNoPublicId));
  EXPECT_TRUE(bl.insert(kNoPublicId));
  EXPECT_FALSE(bl.insert(kNoPublicId));
  EXPECT_TRUE(bl.contains(kNoPublicId));
  EXPECT_FALSE(bl.empty());
  EXPECT_EQ(bl.size(), 21U);
  bl.clear();
  EXPECT_FALSE(bl.contains(kNoPublicId));

  BlacklistSet only;
  EXPECT_TRUE(only.insert(kNoPublicId));
  EXPECT_FALSE(only.empty());
  EXPECT_EQ(only.size(), 1U);
  EXPECT_FALSE(only.contains(0));
}

TEST(BlacklistSet, GrowthMatchesAReferenceSet) {
  // Sequential, random and all-ones-adjacent IDs across many doublings,
  // checked against std::set after every phase-style clear.
  Rng rng(77);
  BlacklistSet bl;
  for (int phase = 0; phase < 3; ++phase) {
    std::set<PublicId> ref;
    for (int k = 0; k < 5000; ++k) {
      PublicId id = 0;
      switch (rng.uniform(4)) {
        case 0: id = rng.uniform(3000); break;
        case 1: id = rng.next(); break;
        case 2: id = kNoPublicId - rng.uniform(4); break;
        default: id = static_cast<PublicId>(k) << 32; break;
      }
      EXPECT_EQ(bl.insert(id), ref.insert(id).second) << "id " << id;
    }
    EXPECT_EQ(bl.size(), ref.size());
    for (PublicId id = 0; id < 3000; ++id) EXPECT_EQ(bl.contains(id), ref.count(id) > 0);
    for (const PublicId id : ref) EXPECT_TRUE(bl.contains(id));
    bl.clear();
    EXPECT_TRUE(bl.empty());
    for (const PublicId id : ref) EXPECT_FALSE(bl.contains(id));
  }
}

}  // namespace
}  // namespace bzc
