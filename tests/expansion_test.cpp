// Tests for the vertex-expansion toolkit: exact enumeration vs the sweep and
// sampling estimators, spectral gap ordering across graph families.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "graph/expansion.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace bzc {
namespace {

TEST(OutNeighborhood, SimpleCases) {
  const Graph g = path(5);  // 0-1-2-3-4
  EXPECT_EQ(outNeighborhoodSize(g, {0}), 1u);
  EXPECT_EQ(outNeighborhoodSize(g, {2}), 2u);
  EXPECT_EQ(outNeighborhoodSize(g, {0, 1, 2}), 1u);
  EXPECT_EQ(outNeighborhoodSize(g, {0, 2, 4}), 2u);  // Out = {1, 3}
}

TEST(OutNeighborhood, ExpansionOfSet) {
  const Graph g = star(9);
  EXPECT_DOUBLE_EQ(vertexExpansionOfSet(g, {0}), 8.0);
  EXPECT_DOUBLE_EQ(vertexExpansionOfSet(g, {1}), 1.0);
  EXPECT_DOUBLE_EQ(vertexExpansionOfSet(g, {1, 2, 3, 4}), 0.25);  // Out = {0}
}

TEST(ExactExpansion, CompleteGraph) {
  // In K_n, every set of size s <= n/2 has Out of size n-s; the minimum over
  // s is at s = n/2.
  const Graph g = complete(8);
  EXPECT_DOUBLE_EQ(exactVertexExpansion(g), 1.0);  // (8-4)/4
}

TEST(ExactExpansion, RingIsTwoOverHalf) {
  // The worst set in a ring is a contiguous arc of n/2 nodes: Out = 2.
  const Graph g = ring(12);
  EXPECT_DOUBLE_EQ(exactVertexExpansion(g), 2.0 / 6.0);
}

TEST(ExactExpansion, StarWorstSetIsLeaves) {
  const Graph g = star(9);  // 8 leaves; worst: 4 leaves, Out = {centre}
  EXPECT_DOUBLE_EQ(exactVertexExpansion(g), 0.25);
}

TEST(ExactExpansion, SizeLimits) {
  EXPECT_THROW((void)exactVertexExpansion(ring(25)), std::invalid_argument);
}

TEST(BallProfile, PathProfileShrinks) {
  const Graph g = path(20);
  const auto profile = ballExpansionProfile(g, 0, 5);
  // From an endpoint: ball j has j+1 nodes, boundary 1 node.
  for (std::uint32_t j = 0; j <= 5; ++j) {
    EXPECT_NEAR(profile[j], 1.0 / (j + 1.0), 1e-12);
  }
}

TEST(BallProfile, ZeroAfterExhaustion) {
  const Graph g = ring(6);
  const auto profile = ballExpansionProfile(g, 0, 5);
  EXPECT_DOUBLE_EQ(profile[4], 0.0);  // ball(0,3) is everything
}

TEST(SweepCut, FindsPlantedBridge) {
  // Two K_6 joined by a single edge: the sweep must find the bridge.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < 6; ++u)
    for (NodeId v = u + 1; v < 6; ++v) {
      edges.emplace_back(u, v);
      edges.emplace_back(u + 6, v + 6);
    }
  edges.emplace_back(0, 6);
  const Graph g(12, edges);
  Rng rng(1);
  const SweepCut cut = fiedlerSweep(g, 200, rng);
  EXPECT_EQ(cut.smallSide, 6u);
  EXPECT_EQ(cut.outSize, 1u);
  EXPECT_NEAR(cut.expansion, 1.0 / 6.0, 1e-9);
}

TEST(SweepCut, UpperBoundsExactExpansion) {
  Rng rng(2);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng gen(100 + seed);
    const Graph g = hnd(16, 4, gen);
    const double exact = exactVertexExpansion(g);
    Rng sweepRng(seed);
    const SweepCut cut = fiedlerSweep(g, 300, sweepRng);
    EXPECT_GE(cut.expansion + 1e-9, exact);
  }
}

TEST(SweepCut, MaxPrefixRestricts) {
  const Graph g = ring(10);
  std::vector<NodeId> order = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const SweepCut unrestricted = sweepCutByOrder(g, order);
  EXPECT_EQ(unrestricted.smallSide, 5u);  // arc of 5, Out = 2
  const SweepCut restricted = sweepCutByOrder(g, order, 2);
  EXPECT_LE(restricted.smallSide, 2u);
  EXPECT_NEAR(restricted.expansion, 1.0, 1e-9);  // arc of 2, Out = 2
}

TEST(SweepCut, PartialOrderAllowed) {
  const Graph g = ring(10);
  std::vector<NodeId> partial = {0, 1, 2};
  const SweepCut cut = sweepCutByOrder(g, partial, 3);
  EXPECT_GE(cut.smallSide, 1u);
  EXPECT_LE(cut.smallSide, 3u);
}

TEST(SpectralGap, ExpanderBeatsRingAndBarbell) {
  Rng genA(3);
  const Graph expander = hnd(128, 8, genA);
  const Graph circle = ring(128);
  Rng genB(4);
  const Graph bridged = barbell(64, 8, 1, genB);
  Rng r1(5);
  Rng r2(6);
  Rng r3(7);
  const double gapExpander = spectralGapEstimate(expander, 300, r1);
  const double gapRing = spectralGapEstimate(circle, 300, r2);
  const double gapBarbell = spectralGapEstimate(bridged, 300, r3);
  EXPECT_GT(gapExpander, 5.0 * gapRing);
  EXPECT_GT(gapExpander, 5.0 * gapBarbell);
}

TEST(SampledUpperBound, RingFindsArc) {
  const Graph g = ring(64);
  Rng rng(8);
  const double bound = sampledExpansionUpperBound(g, 200, rng);
  // Connected samples on a ring are arcs with Out = 2; a long arc gives a
  // small ratio.
  EXPECT_LT(bound, 0.2);
}

TEST(SampledUpperBound, ExpanderStaysLarge) {
  Rng gen(9);
  const Graph g = hnd(128, 8, gen);
  Rng rng(10);
  EXPECT_GT(sampledExpansionUpperBound(g, 100, rng), 0.3);
}

// Bit-identity pin for the fused power iteration: a plain five-pass
// reference (walk, deflate-dot, deflate-subtract, norm-sum, divide) that the
// production kernel must reproduce bit for bit, on every input shape.
std::vector<double> referenceFiedlerVector(const Graph& g, unsigned iterations, Rng& rng) {
  const NodeId n = g.numNodes();
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniformDouble() - 0.5;
  auto deflate = [&](std::vector<double>& z) {
    double dot = 0.0;
    double norm = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      const double w = static_cast<double>(g.degree(u));
      dot += w * z[u];
      norm += w;
    }
    if (norm == 0) return;
    const double shift = dot / norm;
    for (auto& v : z) v -= shift;
  };
  auto normalize = [](std::vector<double>& z) {
    double norm = 0.0;
    for (double v : z) norm += v * v;
    norm = std::sqrt(norm);
    if (norm < 1e-300) return;
    for (auto& v : z) v /= norm;
  };
  std::vector<double> y(n);
  deflate(x);
  normalize(x);
  for (unsigned it = 0; it < iterations; ++it) {
    for (NodeId u = 0; u < n; ++u) {
      double acc = 0.0;
      const auto nbrs = g.neighbors(u);
      for (NodeId v : nbrs) acc += x[v];
      const double deg = static_cast<double>(nbrs.size());
      y[u] = deg > 0 ? 0.5 * x[u] + 0.5 * acc / deg : x[u];
    }
    x.swap(y);
    deflate(x);
    normalize(x);
  }
  return x;
}

void expectBitIdenticalFiedler(const Graph& g, unsigned iterations, std::uint64_t seed) {
  Rng a(seed);
  Rng b(seed);
  const auto got = fiedlerVector(g, iterations, a);
  const auto want = referenceFiedlerVector(g, iterations, b);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
        << "entry " << i << ": " << got[i] << " vs " << want[i];
  }
  EXPECT_EQ(a.next(), b.next()) << "both must draw the same random start";
}

TEST(FiedlerBitIdentity, RandomHnd) {
  for (const NodeId n : {NodeId{16}, NodeId{257}, NodeId{756}}) {
    Rng gen(100 + n);
    const Graph g = hnd(n, 8, gen);
    expectBitIdenticalFiedler(g, 50, 7 + n);
    expectBitIdenticalFiedler(g, 0, 9 + n);
  }
}

TEST(FiedlerBitIdentity, IsolatedVertices) {
  // Vertices 0, 5 and 9 have no edges: the deg == 0 branch of the walk.
  const Graph g(10, {{1, 2}, {2, 3}, {3, 4}, {4, 1}, {6, 7}, {7, 8}, {8, 6}, {1, 6}, {2, 7}});
  expectBitIdenticalFiedler(g, 40, 31);
}

TEST(FiedlerBitIdentity, ViewShapedMixedDegrees) {
  // An 8-regular core followed by low-degree "boundary" vertices of mixed
  // degree, like the spectral check's view graphs, with an odd vertex count.
  Rng gen(37);
  std::vector<std::pair<NodeId, NodeId>> edges = hnd(96, 8, gen).edgeList();
  for (NodeId b = 96; b < 131; ++b) {
    const auto links = 1 + gen.uniform(4);
    for (std::uint64_t k = 0; k < links; ++k) {
      edges.emplace_back(static_cast<NodeId>(gen.uniform(96)), b);
    }
  }
  const Graph g(131, edges);
  expectBitIdenticalFiedler(g, 50, 38);
}

TEST(FiedlerBitIdentity, EdgelessGraph) {
  // Degree sum 0: no deflation at all, only normalisation.
  const Graph g(6, {});
  expectBitIdenticalFiedler(g, 25, 32);
}

// Property sweep: h(H(n,d)) estimates stay comfortably above ring-level
// across sizes — the expansion assumption the algorithms rest on (T9 states
// the full audit).
class ExpansionSweep : public ::testing::TestWithParam<NodeId> {};

TEST_P(ExpansionSweep, HndExpansionBounded) {
  const NodeId n = GetParam();
  Rng gen(20 + n);
  const Graph g = hnd(n, 8, gen);
  Rng rng(21);
  const SweepCut cut = fiedlerSweep(g, 150, rng);
  EXPECT_GT(cut.expansion, 0.25) << "sweep found a sparse cut in H(" << n << ",8)";
  Rng rng2(22);
  EXPECT_GT(sampledExpansionUpperBound(g, 50, rng2), 0.25);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExpansionSweep, ::testing::Values<NodeId>(64, 128, 256, 512));

}  // namespace
}  // namespace bzc
