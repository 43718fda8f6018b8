#include "graph/expansion.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/bfs.hpp"
#include "support/require.hpp"

namespace bzc {

std::size_t outNeighborhoodSize(const Graph& g, const std::vector<NodeId>& s) {
  std::vector<char> inSet(g.numNodes(), 0);
  for (NodeId u : s) {
    BZC_REQUIRE(u < g.numNodes(), "set member out of range");
    inSet[u] = 1;
  }
  std::vector<char> counted(g.numNodes(), 0);
  std::size_t out = 0;
  for (NodeId u : s) {
    for (NodeId v : g.neighbors(u)) {
      if (!inSet[v] && !counted[v]) {
        counted[v] = 1;
        ++out;
      }
    }
  }
  return out;
}

double vertexExpansionOfSet(const Graph& g, const std::vector<NodeId>& s) {
  BZC_REQUIRE(!s.empty(), "expansion of empty set");
  return static_cast<double>(outNeighborhoodSize(g, s)) / static_cast<double>(s.size());
}

double exactVertexExpansion(const Graph& g) {
  const NodeId n = g.numNodes();
  BZC_REQUIRE(n >= 2 && n <= 20, "exact expansion limited to 2..20 nodes");
  double best = static_cast<double>(n);
  std::vector<NodeId> members;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    const auto size = static_cast<NodeId>(__builtin_popcount(mask));
    if (size > n / 2) continue;
    members.clear();
    for (NodeId u = 0; u < n; ++u) {
      if (mask & (1u << u)) members.push_back(u);
    }
    best = std::min(best, vertexExpansionOfSet(g, members));
  }
  return best;
}

std::vector<double> ballExpansionProfile(const Graph& g, NodeId u, std::uint32_t r) {
  const auto dist = bfsDistances(g, u);
  std::vector<std::size_t> layer(r + 2, 0);
  for (NodeId v = 0; v < g.numNodes(); ++v) {
    if (dist[v] <= r + 1) ++layer[dist[v]];
  }
  std::vector<double> profile(r + 1, 0.0);
  std::size_t ballSize = 0;
  for (std::uint32_t j = 0; j <= r; ++j) {
    ballSize += layer[j];
    // Out(B(u,j)) is exactly the (j+1)-st BFS layer.
    profile[j] = ballSize > 0 ? static_cast<double>(layer[j + 1]) / static_cast<double>(ballSize)
                              : 0.0;
  }
  return profile;
}

namespace {

/// Sum of x over u's neighbours, in adjacency order.
double neighbourSum(const Graph& g, const std::vector<double>& x, NodeId u) {
  double acc = 0.0;
  for (NodeId v : g.neighbors(u)) acc += x[v];
  return acc;
}

/// Entry u of Wx for the lazy walk matrix W = (I + D^{-1}A)/2, given x_u,
/// the neighbour sum and deg(u).
double lazyStep(double xu, double acc, double deg) {
  return deg > 0 ? 0.5 * xu + 0.5 * acc / deg : xu;
}

/// One application of the lazy walk matrix.
void applyLazyWalk(const Graph& g, const std::vector<double>& x, std::vector<double>& y) {
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    y[u] = lazyStep(x[u], neighbourSum(g, x, u), static_cast<double>(g.degree(u)));
  }
}

/// Removes the component along the stationary distribution (pi ~ degree),
/// given dot = sum_u deg(u) x_u and degSum = sum_u deg(u), then scales x to
/// unit length. Two passes: subtract-and-square, then divide.
void deflateAndNormalize(std::vector<double>& x, double dot, double degSum) {
  double sumSq = 0.0;
  if (degSum == 0) {
    for (double v : x) sumSq += v * v;
  } else {
    const double shift = dot / degSum;
    for (auto& v : x) {
      v -= shift;
      sumSq += v * v;
    }
  }
  const double norm = std::sqrt(sumSq);
  if (norm < 1e-300) return;
  for (auto& v : x) v /= norm;
}

}  // namespace

// Three passes per iteration: walk + stationary dot, shift + sum of squares,
// divide. Bit-identity contract (DESIGN.md §2): every sum runs in node order
// (each neighbour sum in adjacency order) and the divisions stay divisions,
// so the result equals the plain walk / deflate / normalize sequence bit for
// bit. Do not reorder the sums or build this file with -ffast-math.
std::vector<double> fiedlerVector(const Graph& g, unsigned iterations, Rng& rng) {
  const NodeId n = g.numNodes();
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniformDouble() - 0.5;
  double degSum = 0.0;
  double dot = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    const double deg = static_cast<double>(g.degree(u));
    dot += deg * x[u];
    degSum += deg;
  }
  deflateAndNormalize(x, dot, degSum);
  std::vector<double> y(n);
  for (unsigned it = 0; it < iterations; ++it) {
    // Lazy walk y = Wx, accumulating y's stationary component on the way.
    dot = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      const double deg = static_cast<double>(g.degree(u));
      y[u] = lazyStep(x[u], neighbourSum(g, x, u), deg);
      dot += deg * y[u];
    }
    x.swap(y);
    deflateAndNormalize(x, dot, degSum);
  }
  return x;
}

SweepCut sweepCutByOrder(const Graph& g, const std::vector<NodeId>& order,
                         std::size_t maxPrefix) {
  const NodeId n = g.numNodes();
  BZC_REQUIRE(order.size() <= n, "sweep order larger than graph");
  std::vector<char> inSet(n, 0);
  std::vector<std::uint32_t> edgesIntoSet(n, 0);  // per outside node
  std::size_t outSize = 0;
  SweepCut best;
  best.expansion = static_cast<double>(n);
  std::size_t half = n / 2;
  if (maxPrefix > 0) half = std::min(half, maxPrefix);
  half = std::min(half, order.size());
  std::size_t prefix = 0;
  for (NodeId w : order) {
    BZC_REQUIRE(w < n && !inSet[w], "sweep order must be a permutation");
    // Move w into S.
    if (edgesIntoSet[w] > 0) --outSize;  // w leaves Out(S)
    inSet[w] = 1;
    ++prefix;
    for (NodeId v : g.neighbors(w)) {
      if (!inSet[v]) {
        if (edgesIntoSet[v] == 0) ++outSize;
        ++edgesIntoSet[v];
      }
    }
    if (prefix > half) break;
    const double expansion = static_cast<double>(outSize) / static_cast<double>(prefix);
    if (expansion < best.expansion) {
      best.expansion = expansion;
      best.smallSide = prefix;
      best.outSize = outSize;
    }
  }
  return best;
}

SweepCut fiedlerSweep(const Graph& g, unsigned iterations, Rng& rng) {
  const NodeId n = g.numNodes();
  if (n < 2) return {};
  const auto fiedler = fiedlerVector(g, iterations, rng);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return fiedler[a] != fiedler[b] ? fiedler[a] < fiedler[b] : a < b;
  });
  SweepCut ascending = sweepCutByOrder(g, order);
  // Sweep the other end of the spectrum too: the sparse side can sit at
  // either extreme of the Fiedler ordering.
  std::reverse(order.begin(), order.end());
  const SweepCut descending = sweepCutByOrder(g, order);
  return ascending.expansion <= descending.expansion ? ascending : descending;
}

double spectralGapEstimate(const Graph& g, unsigned iterations, Rng& rng) {
  const NodeId n = g.numNodes();
  if (n < 2) return 0.0;
  const auto x = fiedlerVector(g, iterations, rng);
  // Rayleigh quotient of W on the deflated vector approximates lambda2(W).
  std::vector<double> y(n);
  applyLazyWalk(g, x, y);
  double num = 0.0;
  double den = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    num += x[u] * y[u];
    den += x[u] * x[u];
  }
  return den < 1e-300 ? 0.0 : 1.0 - num / den;
}

double sampledExpansionUpperBound(const Graph& g, unsigned samples, Rng& rng) {
  const NodeId n = g.numNodes();
  BZC_REQUIRE(n >= 2, "graph too small");
  double best = static_cast<double>(n);
  std::vector<NodeId> subset;
  std::vector<char> inSet(n, 0);
  for (unsigned s = 0; s < samples; ++s) {
    // Grow a random connected subset of random target size <= n/2 via BFS
    // with shuffled frontier (biases toward "round" sets, which is what a
    // low-expansion certificate looks like in these graph families).
    const std::size_t target = 1 + rng.uniform(std::max<std::uint64_t>(1, n / 2));
    subset.clear();
    std::fill(inSet.begin(), inSet.end(), 0);
    std::vector<NodeId> frontier;
    const auto seed = static_cast<NodeId>(rng.uniform(n));
    frontier.push_back(seed);
    inSet[seed] = 1;
    subset.push_back(seed);
    std::size_t head = 0;
    while (subset.size() < target && head < frontier.size()) {
      const NodeId u = frontier[head++];
      for (NodeId v : g.neighbors(u)) {
        if (!inSet[v] && subset.size() < target) {
          inSet[v] = 1;
          subset.push_back(v);
          frontier.push_back(v);
        }
      }
    }
    best = std::min(best, vertexExpansionOfSet(g, subset));
  }
  return best;
}

}  // namespace bzc
