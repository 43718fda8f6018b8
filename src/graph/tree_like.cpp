#include "graph/tree_like.hpp"

#include <algorithm>
#include <cmath>

#include "support/require.hpp"

namespace bzc {

std::uint32_t treeLikeRadius(NodeId n, NodeId d) {
  BZC_REQUIRE(n >= 2 && d >= 2, "radius undefined for degenerate graphs");
  const double r = std::log(static_cast<double>(n)) / (10.0 * std::log(static_cast<double>(d)));
  return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(r));
}

namespace {

constexpr std::uint32_t kUnset = 0xffffffffu;

/// BFS state for one ball at a time. dist and parent span the whole graph but
/// only the ball's nodes (`order`) are ever set, and treeLikeWith clears just
/// those, so classifying every node costs O(n·d^r) rather than O(n²).
struct BallScratch {
  explicit BallScratch(NodeId n) : dist(n, kUnset), parent(n, kNoNode) {}
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> parent;
  std::vector<NodeId> order;
};

bool ballIsTree(const Graph& g, NodeId u, std::uint32_t r, BallScratch& s) {
  // BFS to radius r. BFS discovers each ball node through exactly one (tree)
  // edge; the ball is a tree iff no *other* edge connects two ball nodes.
  // Because BFS enqueues all of layer j before processing any layer-j node,
  // every non-tree edge inside the ball eventually shows up while scanning
  // some node w as a neighbour v that is already visited yet is not w's
  // parent — or as a parallel edge to the parent (adjacent duplicates in the
  // sorted adjacency).
  s.dist[u] = 0;
  s.order.push_back(u);
  std::size_t head = 0;
  while (head < s.order.size()) {
    const NodeId w = s.order[head++];
    unsigned parentEdges = 0;
    for (NodeId v : g.neighbors(w)) {
      if (v == s.parent[w]) {
        if (++parentEdges > 1) return false;  // parallel edge to parent
        continue;
      }
      if (s.dist[v] == kUnset) {
        if (s.dist[w] < r) {
          s.dist[v] = s.dist[w] + 1;
          s.parent[v] = w;
          s.order.push_back(v);
        }
        // dist[w] == r: v lies outside the ball; irrelevant.
      } else {
        return false;  // cross / back / duplicate edge within the ball
      }
    }
  }
  return true;
}

/// ballIsTree, then the scratch reset to all-unset, early exits included.
bool treeLikeWith(const Graph& g, NodeId u, std::uint32_t r, BallScratch& s) {
  const bool tree = ballIsTree(g, u, r, s);
  for (const NodeId v : s.order) {
    s.dist[v] = kUnset;
    s.parent[v] = kNoNode;
  }
  s.order.clear();
  return tree;
}

}  // namespace

bool isLocallyTreeLike(const Graph& g, NodeId u, std::uint32_t r) {
  BZC_REQUIRE(u < g.numNodes(), "node out of range");
  BallScratch scratch(g.numNodes());
  return treeLikeWith(g, u, r, scratch);
}

std::size_t countTreeLike(const Graph& g, std::uint32_t r) {
  BallScratch scratch(g.numNodes());
  std::size_t count = 0;
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    if (treeLikeWith(g, u, r, scratch)) ++count;
  }
  return count;
}

std::vector<char> treeLikeMask(const Graph& g, std::uint32_t r) {
  BallScratch scratch(g.numNodes());
  std::vector<char> mask(g.numNodes(), 0);
  for (NodeId u = 0; u < g.numNodes(); ++u) mask[u] = treeLikeWith(g, u, r, scratch) ? 1 : 0;
  return mask;
}

}  // namespace bzc
