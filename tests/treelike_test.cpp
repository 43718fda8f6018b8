// Tests for the locally-tree-like classifier (Definition 3) and the Lemma 2
// bound on H(n,d).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/generators.hpp"
#include "graph/tree_like.hpp"
#include "support/rng.hpp"

namespace bzc {
namespace {

TEST(TreeLikeRadius, Formula) {
  // floor(log n / (10 log d)), at least 1.
  EXPECT_EQ(treeLikeRadius(1u << 19, 4), 1u);  // 19 ln2 / (10 * 2 ln2) < 1 -> clamp
  EXPECT_EQ(treeLikeRadius(1000, 8), 1u);
  // d = 2: radius 2 needs n >= 2^20.
  EXPECT_EQ(treeLikeRadius(1u << 20, 2), 2u);
  EXPECT_EQ(treeLikeRadius((1u << 20) - 1, 2), 1u);
}

TEST(TreeLike, TreeIsTreeLikeEverywhere) {
  const Graph g = binaryTree(31);
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    EXPECT_TRUE(isLocallyTreeLike(g, u, 3)) << "node " << u;
  }
  EXPECT_EQ(countTreeLike(g, 4), g.numNodes());
}

TEST(TreeLike, RingIsTreeLikeAtSmallRadius) {
  const Graph g = ring(20);
  // A ball of radius r < n/2 in a ring is a path: a tree.
  EXPECT_TRUE(isLocallyTreeLike(g, 0, 5));
}

TEST(TreeLike, RingClosesAtLargeRadius) {
  const Graph g = ring(10);
  // Radius 5 wraps around: the two frontier arms meet via an edge.
  EXPECT_FALSE(isLocallyTreeLike(g, 0, 5));
}

TEST(TreeLike, HypercubeFailsAtRadiusTwo) {
  const Graph g = hypercube(4);
  // Hypercubes are full of 4-cycles: radius-2 balls always contain one.
  EXPECT_TRUE(isLocallyTreeLike(g, 0, 1));
  EXPECT_FALSE(isLocallyTreeLike(g, 0, 2));
}

TEST(TreeLike, CompleteGraphFailsImmediately) {
  const Graph g = complete(5);
  EXPECT_FALSE(isLocallyTreeLike(g, 0, 1));  // triangle within the ball
}

TEST(TreeLike, ParallelEdgeBreaksTreeness) {
  const Graph g(3, {{0, 1}, {0, 1}, {1, 2}});
  EXPECT_FALSE(isLocallyTreeLike(g, 0, 1));
  EXPECT_FALSE(isLocallyTreeLike(g, 2, 2));
  EXPECT_TRUE(isLocallyTreeLike(g, 2, 1));  // radius 1 sees only the 1-2 edge
}

// The mask and the count share one BFS scratch across roots and reset only
// each ball's nodes, early exits included; a per-node call starts from a
// fresh scratch. On H(4096, 8) most radius-1 balls are trees, radius 2 mixes
// both answers and no radius-3 ball is a tree; the parallel edges fail balls
// at every radius. Early exits are therefore followed by balls that must pass.
TEST(TreeLike, MaskMatchesPerNodeCalls) {
  Rng rng31(31);
  const Graph small = hnd(128, 6, rng31);
  Rng rng41(41);
  const Graph expander = hnd(4096, 8, rng41);
  const Graph parallel(8, {{0, 1}, {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {5, 6},
                           {6, 7}});
  for (const Graph* g : {&small, &expander, &parallel}) {
    for (std::uint32_t r = 1; r <= 3; ++r) {
      const std::vector<char> mask = treeLikeMask(*g, r);
      std::size_t ones = 0;
      for (NodeId u = 0; u < g->numNodes(); ++u) {
        EXPECT_EQ(mask[u] != 0, isLocallyTreeLike(*g, u, r))
            << "n=" << g->numNodes() << " r=" << r << " u=" << u;
        ones += mask[u] != 0 ? 1 : 0;
      }
      EXPECT_EQ(countTreeLike(*g, r), ones) << "n=" << g->numNodes() << " r=" << r;
    }
  }
}

// Lemma 2: in H(n,d), at least n - O(n^0.8) nodes are locally tree-like at
// radius log n / (10 log d). The radius is 1 at these sizes, where the
// tree-like condition just asks for no short cycle through the 1-ball; the
// sweep checks the count stays within a modest constant times n^0.8.
class Lemma2Sweep : public ::testing::TestWithParam<std::tuple<NodeId, NodeId>> {};

TEST_P(Lemma2Sweep, MostNodesTreeLike) {
  const auto [n, d] = GetParam();
  Rng rng(1000 + n + d);
  const Graph g = hnd(n, d, rng);
  const std::uint32_t r = treeLikeRadius(n, d);
  const std::size_t treeLike = countTreeLike(g, r);
  const double allowance = 3.0 * std::pow(static_cast<double>(n), 0.8);
  EXPECT_GE(static_cast<double>(treeLike), static_cast<double>(n) - allowance)
      << "non-tree-like: " << (n - treeLike) << " allowance " << allowance;
}

INSTANTIATE_TEST_SUITE_P(Sizes, Lemma2Sweep,
                         ::testing::Combine(::testing::Values<NodeId>(256, 512, 1024, 2048),
                                            ::testing::Values<NodeId>(8, 12)));

// At radius 2 a ball has ~d^2 nodes and the collision probability scales as
// d^4/n: a majority of nodes is tree-like only once n >> d^4. The sweep
// checks the scaling at two sizes bracketing that threshold.
TEST(TreeLike, RadiusTwoFractionScalesWithN) {
  Rng rngSmall(77);
  const Graph small = hnd(4096, 8, rngSmall);
  Rng rngBig(78);
  const Graph big = hnd(65536, 8, rngBig);
  const double fracSmall =
      static_cast<double>(countTreeLike(small, 2)) / small.numNodes();
  const double fracBig = static_cast<double>(countTreeLike(big, 2)) / big.numNodes();
  EXPECT_GT(fracBig, fracSmall + 0.3);  // 16x more nodes: way fewer collisions
  EXPECT_GT(fracBig, 0.8);
}

}  // namespace
}  // namespace bzc
