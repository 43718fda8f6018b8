// Unit tests for the graph substrate: CSR graph, generators, BFS, DOT export.
#include <gtest/gtest.h>

#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "support/rng.hpp"

namespace bzc {
namespace {

TEST(Graph, BasicConstruction) {
  const Graph g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(g.numNodes(), 4u);
  EXPECT_EQ(g.numEdges(), 4u);
  EXPECT_EQ(g.maxDegree(), 2u);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(1, 0));
  EXPECT_FALSE(g.hasEdge(0, 2));
}

TEST(Graph, NeighborsSorted) {
  const Graph g(4, {{2, 0}, {2, 3}, {2, 1}});
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 3u);
}

TEST(Graph, SelfLoopRejected) {
  EXPECT_THROW(Graph(3, {{1, 1}}), std::invalid_argument);
}

TEST(Graph, OutOfRangeRejected) {
  EXPECT_THROW(Graph(3, {{0, 3}}), std::invalid_argument);
}

TEST(Graph, MultiEdgesKeptAndSimplified) {
  const Graph g(3, {{0, 1}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.numEdges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.multiEdgeCount(), 1u);
  const Graph s = g.simplified();
  EXPECT_EQ(s.numEdges(), 2u);
  EXPECT_EQ(s.degree(0), 1u);
  EXPECT_EQ(s.multiEdgeCount(), 0u);
}

// Parallel-edge coverage for hasEdge/edgeMultiplicity: the H(n,d)
// permutation model produces multigraphs, where the sought neighbour
// occupies a run of equal adjacency entries rather than a single slot.
TEST(Graph, HasEdgeWithParallelEdges) {
  const Graph g(4, {{0, 1}, {0, 1}, {0, 1}, {0, 3}, {2, 3}});
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(1, 0));
  EXPECT_TRUE(g.hasEdge(0, 3));
  EXPECT_FALSE(g.hasEdge(0, 2));
  EXPECT_FALSE(g.hasEdge(1, 2));
  EXPECT_FALSE(g.hasEdge(2, 0));
  // First/last neighbour positions (lower_bound edge cases).
  EXPECT_TRUE(g.hasEdge(3, 0));
  EXPECT_TRUE(g.hasEdge(3, 2));
  EXPECT_FALSE(g.hasEdge(3, 1));

  EXPECT_EQ(g.edgeMultiplicity(0, 1), 3u);
  EXPECT_EQ(g.edgeMultiplicity(1, 0), 3u);
  EXPECT_EQ(g.edgeMultiplicity(0, 3), 1u);
  EXPECT_EQ(g.edgeMultiplicity(0, 2), 0u);
  EXPECT_EQ(g.edgeMultiplicity(2, 3), 1u);
}

TEST(Graph, HasEdgeMatchesLinearScanOnMultigraph) {
  Rng rng(99);
  const Graph g = hnd(64, 6, rng);  // H(n,d) can produce parallel edges
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v = 0; v < g.numNodes(); ++v) {
      const auto nbrs = g.neighbors(u);
      std::size_t linear = 0;
      for (NodeId w : nbrs) linear += w == v ? 1 : 0;
      EXPECT_EQ(g.hasEdge(u, v), linear > 0) << u << "-" << v;
      EXPECT_EQ(g.edgeMultiplicity(u, v), linear) << u << "-" << v;
    }
  }
}

TEST(Graph, EdgeListRoundTrip) {
  const Graph g(5, {{0, 1}, {1, 2}, {3, 4}, {0, 4}});
  const auto edges = g.edgeList();
  EXPECT_EQ(edges.size(), 4u);
  const Graph h(5, edges);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(g.degree(u), h.degree(u));
}

TEST(Graph, InducedSubgraph) {
  const Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  const auto [sub, map] = g.inducedSubgraph({0, 1, 2});
  EXPECT_EQ(sub.numNodes(), 3u);
  EXPECT_EQ(sub.numEdges(), 2u);  // 0-1, 1-2 survive; 4-0 and 2-3 dropped
  EXPECT_EQ(map[0], 0u);
  EXPECT_EQ(map[3], kNoNode);
}

TEST(Generators, HndIsDRegular) {
  Rng rng(1);
  const Graph g = hnd(200, 8, rng);
  EXPECT_EQ(g.numNodes(), 200u);
  EXPECT_EQ(g.numEdges(), 800u);
  for (NodeId u = 0; u < g.numNodes(); ++u) EXPECT_EQ(g.degree(u), 8u);
}

TEST(Generators, HndConnectedWhp) {
  // A union of Hamiltonian cycles contains a Hamiltonian cycle: always
  // connected, by construction.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    EXPECT_TRUE(isConnected(hnd(128, 4, rng)));
  }
}

TEST(Generators, HndRequiresEvenDegree) {
  Rng rng(2);
  EXPECT_THROW((void)hnd(10, 3, rng), std::invalid_argument);
}

TEST(Generators, ConfigurationModelDegrees) {
  Rng rng(3);
  const Graph g = configurationModel(100, 6, rng);
  for (NodeId u = 0; u < g.numNodes(); ++u) EXPECT_EQ(g.degree(u), 6u);
}

TEST(Generators, ConfigurationModelOddProductRejected) {
  Rng rng(4);
  EXPECT_THROW((void)configurationModel(5, 3, rng), std::invalid_argument);
}

TEST(Generators, WattsStrogatzDegreesPreservedAtZeroRewire) {
  Rng rng(5);
  const Graph g = wattsStrogatz(50, 3, 0.0, rng);
  EXPECT_EQ(g.numEdges(), 150u);
  for (NodeId u = 0; u < g.numNodes(); ++u) EXPECT_EQ(g.degree(u), 6u);
}

TEST(Generators, WattsStrogatzRewireKeepsEdgeCount) {
  Rng rng(6);
  const Graph g = wattsStrogatz(100, 4, 0.3, rng);
  EXPECT_EQ(g.numEdges(), 400u);
  EXPECT_EQ(g.multiEdgeCount(), 0u);
}

TEST(Generators, RingPathStarTreeShapes) {
  EXPECT_EQ(ring(10).numEdges(), 10u);
  EXPECT_EQ(path(10).numEdges(), 9u);
  EXPECT_EQ(star(10).numEdges(), 9u);
  EXPECT_EQ(star(10).degree(0), 9u);
  EXPECT_EQ(binaryTree(15).numEdges(), 14u);
  EXPECT_EQ(complete(6).numEdges(), 15u);
}

TEST(Generators, HypercubeShape) {
  const Graph g = hypercube(4);
  EXPECT_EQ(g.numNodes(), 16u);
  for (NodeId u = 0; u < g.numNodes(); ++u) EXPECT_EQ(g.degree(u), 4u);
  EXPECT_EQ(exactDiameter(g), 4u);
}

TEST(Generators, TorusShape) {
  const Graph g = torus2d(4, 5);
  EXPECT_EQ(g.numNodes(), 20u);
  for (NodeId u = 0; u < g.numNodes(); ++u) EXPECT_EQ(g.degree(u), 4u);
  EXPECT_TRUE(isConnected(g));
}

TEST(Generators, GluedCopiesStructure) {
  // Theorem 3 gadget: t copies of a ring sharing node `hub`.
  const Graph base = ring(6);
  const Graph g = gluedCopies(base, 2, 3);
  EXPECT_EQ(g.numNodes(), 1u + 3u * 5u);
  EXPECT_EQ(g.numEdges(), 3u * 6u);
  // The hub has degree deg_base(hub) * copies.
  EXPECT_EQ(g.degree(0), 2u * 3u);
  EXPECT_TRUE(isConnected(g));
}

TEST(Generators, GluedSingleCopyIsIsomorphicInSize) {
  const Graph base = ring(8);
  const Graph g = gluedCopies(base, 0, 1);
  EXPECT_EQ(g.numNodes(), base.numNodes());
  EXPECT_EQ(g.numEdges(), base.numEdges());
}

TEST(Generators, BarbellIsConnectedWithBridge) {
  Rng rng(7);
  const Graph g = barbell(64, 6, 2, rng);
  EXPECT_EQ(g.numNodes(), 128u);
  EXPECT_TRUE(isConnected(g));
}

TEST(Bfs, DistancesOnPath) {
  const Graph g = path(6);
  const auto dist = bfsDistances(g, 0);
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(dist[u], u);
}

TEST(Bfs, DistancesOnRing) {
  const Graph g = ring(8);
  const auto dist = bfsDistances(g, 0);
  EXPECT_EQ(dist[4], 4u);
  EXPECT_EQ(dist[5], 3u);
  EXPECT_EQ(dist[7], 1u);
}

TEST(Bfs, UnreachableMarked) {
  const Graph g(4, {{0, 1}, {2, 3}});
  const auto dist = bfsDistances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_FALSE(isConnected(g));
}

TEST(Bfs, MultiSource) {
  const Graph g = path(7);
  const auto dist = multiSourceBfsDistances(g, {0, 6});
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[5], 1u);
  EXPECT_EQ(dist[0], 0u);
}

TEST(Bfs, BallContents) {
  const Graph g = path(10);
  const auto b = ball(g, 5, 2);
  EXPECT_EQ(b.size(), 5u);  // 3,4,5,6,7
  EXPECT_EQ(b.front(), 5u);
}

TEST(Bfs, BallSizesCumulative) {
  const Graph g = star(9);
  const auto sizes = ballSizes(g, 0, 2);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 9u);
  EXPECT_EQ(sizes[2], 9u);
}

TEST(Bfs, DiameterExactAndApprox) {
  const Graph g = ring(20);
  EXPECT_EQ(exactDiameter(g), 10u);
  // Double-sweep on a ring finds the true diameter.
  EXPECT_EQ(approxDiameter(g), 10u);
  EXPECT_EQ(eccentricity(path(9), 0), 8u);
}

TEST(Bfs, ApproxDiameterLowerBoundsExact) {
  Rng rng(8);
  const Graph g = hnd(256, 6, rng);
  EXPECT_LE(approxDiameter(g), exactDiameter(g));
  EXPECT_GE(approxDiameter(g) + 2, exactDiameter(g));  // double sweep is tight on expanders
}

TEST(Io, DotContainsHighlight) {
  const Graph g = ring(4);
  const std::string dot = toDot(g, {2});
  EXPECT_NE(dot.find("2 [style=filled"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
}

// Property sweep: H(n,d) regularity/connectivity across sizes and degrees.
class HndSweep : public ::testing::TestWithParam<std::tuple<NodeId, NodeId>> {};

TEST_P(HndSweep, RegularConnectedRightSize) {
  const auto [n, d] = GetParam();
  Rng rng(100 + n + d);
  const Graph g = hnd(n, d, rng);
  EXPECT_EQ(g.numNodes(), n);
  EXPECT_EQ(g.numEdges(), static_cast<std::size_t>(n) * d / 2);
  for (NodeId u = 0; u < n; ++u) EXPECT_EQ(g.degree(u), d);
  EXPECT_TRUE(isConnected(g));
}

INSTANTIATE_TEST_SUITE_P(Sizes, HndSweep,
                         ::testing::Combine(::testing::Values<NodeId>(32, 64, 128, 256, 512),
                                            ::testing::Values<NodeId>(4, 8, 12)));

}  // namespace
}  // namespace bzc
