// Deeper properties of the agreement layer: walk mixing identities,
// adversary-pressure monotonicity, iteration-freeze semantics, and pipeline
// robustness.
#include <gtest/gtest.h>

#include <cmath>

#include "agreement/majority.hpp"
#include "agreement/pipeline.hpp"
#include "agreement/random_walk.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace bzc {
namespace {

TEST(WalkProperties, ZeroLengthWalkStaysPut) {
  const Graph g = ring(10);
  const ByzantineSet none(10, {});
  Rng rng(1);
  for (NodeId u = 0; u < 10; ++u) {
    EXPECT_EQ(sampleViaWalk(g, none, u, 0, rng).endpoint, u);
  }
}

TEST(WalkProperties, CompromiseFlagMonotoneInByzCount) {
  Rng gen(2);
  const NodeId n = 512;
  const Graph g = hnd(n, 8, gen);
  auto compromisedFraction = [&](std::size_t byzCount) {
    PlacementSpec spec;
    spec.kind = Placement::Random;
    spec.count = byzCount;
    Rng prng(3);
    const auto byz = placeByzantine(g, spec, prng);
    Rng rng(4);
    std::size_t hits = 0;
    const int samples = 3000;
    for (int s = 0; s < samples; ++s) {
      const auto start = static_cast<NodeId>(rng.uniform(n));
      if (byz.contains(start)) continue;
      hits += sampleViaWalk(g, byz, start, 8, rng).compromised ? 1 : 0;
    }
    return static_cast<double>(hits) / samples;
  };
  const double f4 = compromisedFraction(4);
  const double f16 = compromisedFraction(16);
  const double f64 = compromisedFraction(64);
  EXPECT_LT(f4, f16);
  EXPECT_LT(f16, f64);
}

TEST(WalkProperties, TvDistanceDecreasesWithLength) {
  Rng gen(5);
  const Graph g = hnd(512, 8, gen);
  Rng rng(6);
  double prev = 1.0;
  for (std::uint32_t len : {1u, 4u, 10u}) {
    const double tv = walkEndpointTvDistance(g, 3, len, 3000, rng);
    EXPECT_LE(tv, prev + 0.05) << "len " << len;
    prev = tv;
  }
}

TEST(WalkProperties, TvDistanceStrictlyImprovesOnExpanderAcrossStarts) {
  // Monotone improvement from 1 step to mixing-time-scale walks must hold
  // from every start, not just a lucky one.
  Rng gen(40);
  const Graph g = hnd(512, 8, gen);
  for (NodeId start : {0u, 17u, 255u, 511u}) {
    Rng rng(41 + start);
    const double tvShort = walkEndpointTvDistance(g, start, 1, 3000, rng);
    const double tvLong = walkEndpointTvDistance(g, start, 12, 3000, rng);
    EXPECT_LT(tvLong, tvShort) << "start " << start;
    EXPECT_LT(tvLong, 0.25) << "start " << start;
  }
}

TEST(WalkProperties, CompromiseFlagMatchesTraceExactly) {
  // sampleViaWalk must mark compromise iff the walk's actual trajectory
  // (start included) touched a Byzantine node — never spuriously, never
  // missing a contact.
  Rng gen(42);
  const NodeId n = 256;
  const Graph g = hnd(n, 8, gen);
  PlacementSpec spec;
  spec.kind = Placement::Random;
  spec.count = 24;
  Rng prng(43);
  const auto byz = placeByzantine(g, spec, prng);
  Rng rng(44);
  std::vector<NodeId> trace;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto start = static_cast<NodeId>(rng.uniform(n));
    const auto len = static_cast<std::uint32_t>(rng.uniform(12));
    const WalkSample s = sampleViaWalk(g, byz, start, len, rng, &trace);
    ASSERT_EQ(trace.size(), static_cast<std::size_t>(len) + 1);
    ASSERT_EQ(trace.front(), start);
    ASSERT_EQ(trace.back(), s.endpoint);
    bool touched = false;
    for (NodeId v : trace) touched = touched || byz.contains(v);
    EXPECT_EQ(s.compromised, touched) << "trial " << trial;
    // Consecutive trace entries must be graph edges.
    for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
      ASSERT_TRUE(g.hasEdge(trace[i], trace[i + 1]));
    }
  }
}

TEST(MajorityProperties, UnanimousInputIsStable) {
  Rng gen(7);
  const NodeId n = 256;
  const Graph g = hnd(n, 8, gen);
  const ByzantineSet none(n, {});
  AgreementParams params;
  params.initialOnesFraction = 1.0;
  Rng rng(8);
  const auto out = runMajorityAgreement(g, none, std::log(256.0), params, rng);
  EXPECT_DOUBLE_EQ(out.fracAgreeing, 1.0);
  EXPECT_EQ(out.initialMajority, 1);
}

TEST(MajorityProperties, ZeroMajorityAlsoConverges) {
  Rng gen(9);
  const NodeId n = 512;
  const Graph g = hnd(n, 8, gen);
  const ByzantineSet none(n, {});
  AgreementParams params;
  params.initialOnesFraction = 0.25;  // majority is 0
  Rng rng(10);
  const auto out = runMajorityAgreement(g, none, std::log(512.0), params, rng);
  EXPECT_EQ(out.initialMajority, 0);
  EXPECT_TRUE(out.almostEverywhere(0.02));
}

TEST(MajorityProperties, CloserSplitIsHarder) {
  Rng gen(11);
  const NodeId n = 512;
  const Graph g = hnd(n, 8, gen);
  PlacementSpec spec;
  spec.kind = Placement::Random;
  spec.count = 6;
  Rng prng(12);
  const auto byz = placeByzantine(g, spec, prng);
  auto agreeAt = [&](double split) {
    AgreementParams params;
    params.initialOnesFraction = split;
    params.iterationFactor = 0.6;  // starve iterations so difficulty shows
    Rng rng(13);
    return runMajorityAgreement(g, byz, std::log(512.0), params, rng).fracAgreeing;
  };
  EXPECT_GE(agreeAt(0.85) + 0.02, agreeAt(0.55));
}

TEST(MajorityProperties, EngineRoundsScaleWithEstimate) {
  Rng gen(14);
  const NodeId n = 256;
  const Graph g = hnd(n, 8, gen);
  const ByzantineSet none(n, {});
  AgreementParams params;
  Rng r1(15);
  const auto small = runMajorityAgreement(g, none, 3.0, params, r1);
  Rng r2(15);
  const auto large = runMajorityAgreement(g, none, 12.0, params, r2);
  // Real engine rounds: with a uniform estimate L the run takes
  // ceil(2L) iterations of (2*ceil(L) + 1) rounds each.
  EXPECT_EQ(small.totalRounds, 6u * 7u);
  EXPECT_EQ(large.totalRounds, 24u * 25u);
  EXPECT_GT(large.totalRounds, 3 * small.totalRounds);
}

TEST(MajorityProperties, MessageCostsScaleWithWalkTraffic) {
  // Every sample is a token walking out and an answer walking back, all
  // unicast and engine-metered: iterations * 2 samples/node * 2*walkLen
  // messages per honest node (plus nothing else).
  Rng gen(30);
  const NodeId n = 256;
  const Graph g = hnd(n, 8, gen);
  const ByzantineSet none(n, {});
  AgreementParams params;
  Rng rng(31);
  const double L = 4.0;  // walkLen = 4, iters = 8
  const auto out = runMajorityAgreement(g, none, L, params, rng);
  // 8 iterations * 256 nodes * 2 tokens * (4 out + 4 back) hops.
  EXPECT_EQ(out.meter.totalMessages(), 8ull * 256 * 2 * 8);
  EXPECT_GT(out.meter.totalBits(), out.meter.totalMessages());  // > 1 bit/msg
}

TEST(MajorityProperties, FrozenNodesKeepTheirBit) {
  // Nodes with a small estimate stop iterating early but still hold a final
  // value; the outcome counts them.
  Rng gen(16);
  const NodeId n = 256;
  const Graph g = hnd(n, 8, gen);
  const ByzantineSet none(n, {});
  std::vector<double> estimates(n, std::log(256.0));
  for (NodeId u = 0; u < 32; ++u) estimates[u] = 1.0;  // early freezers
  AgreementParams params;
  params.initialOnesFraction = 0.8;
  Rng rng(17);
  const auto out = runMajorityAgreement(g, none, estimates, params, rng);
  EXPECT_EQ(out.honestCount, static_cast<std::size_t>(n));
  EXPECT_GT(out.fracAgreeing, 0.85);
}

TEST(PipelineProperties, FallbackEstimateCoversUndecided) {
  // Under heavy flooding some nodes never decide; the pipeline substitutes
  // the fallback estimate and agreement still proceeds.
  Rng gen(18);
  const NodeId n = 512;
  const Graph g = hnd(n, 8, gen);
  PlacementSpec spec;
  spec.kind = Placement::Random;
  spec.count = 6;
  Rng prng(19);
  const auto byz = placeByzantine(g, spec, prng);
  PipelineParams params;
  params.agreement.initialOnesFraction = 0.75;
  params.agreement.walkLengthFactor = 0.5;
  params.countingLimits.maxPhase = 9;
  params.fallbackEstimate = 5.0;
  Rng rng(20);
  const auto out = runCountingThenAgreement(g, byz, BeaconAdversaryProfile::flooder(), params, rng);
  EXPECT_GT(out.agreement.fracAgreeing, 0.85);
}

TEST(PipelineProperties, DeterministicEndToEnd) {
  Rng gen(21);
  const NodeId n = 256;
  const Graph g = hnd(n, 8, gen);
  const ByzantineSet none(n, {});
  PipelineParams params;
  Rng r1(22);
  const auto a = runCountingThenAgreement(g, none, BeaconAdversaryProfile::none(), params, r1);
  Rng r2(22);
  const auto b = runCountingThenAgreement(g, none, BeaconAdversaryProfile::none(), params, r2);
  EXPECT_EQ(a.agreement.fracAgreeing, b.agreement.fracAgreeing);
  EXPECT_EQ(a.totalRounds, b.totalRounds);
}

// Parameterised: agreement succeeds across estimate scales >= ln n (any
// constant-factor upper bound works — the §1.1 claim).
class EstimateScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(EstimateScaleSweep, UpperBoundsAllWork) {
  const double factor = GetParam();
  Rng gen(23);
  const NodeId n = 512;
  const Graph g = hnd(n, 8, gen);
  PlacementSpec spec;
  spec.kind = Placement::Random;
  spec.count = 5;
  Rng prng(24);
  const auto byz = placeByzantine(g, spec, prng);
  AgreementParams params;
  params.initialOnesFraction = 0.75;
  Rng rng(25);
  const auto out =
      runMajorityAgreement(g, byz, factor * std::log(static_cast<double>(n)), params, rng);
  EXPECT_TRUE(out.almostEverywhere(0.1)) << "factor " << factor << ": " << out.fracAgreeing;
}

INSTANTIATE_TEST_SUITE_P(Factors, EstimateScaleSweep, ::testing::Values(1.0, 1.5, 2.0));

}  // namespace
}  // namespace bzc
