// Vertex-expansion toolkit.
//
// The paper's algorithms and impossibility result all hinge on the vertex
// expansion h(G) = min_{0<|S|<=n/2} |Out(S)|/|S| (Definition 1). Computing
// h(G) exactly is NP-hard, so alongside an exact enumerator for tiny graphs
// we provide the two estimators the protocols and experiments use:
//
//  - ball-growth profiles (the set family Algorithm 1's proofs examine), and
//  - a Fiedler-vector sweep cut, which yields an *upper bound* on h(G) good
//    enough to flag the o(n)-cut grafts Byzantine nodes construct (Lemma 5).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace bzc {

/// |Out(S)| where Out(S) is the set of nodes outside S adjacent to S.
[[nodiscard]] std::size_t outNeighborhoodSize(const Graph& g, const std::vector<NodeId>& s);

/// |Out(S)|/|S| for a nonempty S.
[[nodiscard]] double vertexExpansionOfSet(const Graph& g, const std::vector<NodeId>& s);

/// Exact h(G) by enumerating all subsets of size <= n/2. Requires n <= 20.
[[nodiscard]] double exactVertexExpansion(const Graph& g);

/// Expansion of the BFS ball prefixes around u:
/// result[j] = |Out(B(u,j))| / |B(u,j)| for j = 0..r (0 when the ball has
/// swallowed the component). This is a cheap upper bound on h(G).
[[nodiscard]] std::vector<double> ballExpansionProfile(const Graph& g, NodeId u, std::uint32_t r);

/// Approximate Fiedler vector: the second eigenvector of the lazy random
/// walk matrix W = (I + D^{-1}A)/2, computed by power iteration with
/// degree-weighted deflation against the stationary distribution, from a
/// random start drawn from `rng`.
[[nodiscard]] std::vector<double> fiedlerVector(const Graph& g, unsigned iterations, Rng& rng);

/// Result of a sweep cut over a node ordering.
struct SweepCut {
  double expansion = 0.0;     ///< |Out(S)|/|S| of the best prefix: upper bound on h(G)
  std::size_t smallSide = 0;  ///< |S| of that prefix
  std::size_t outSize = 0;    ///< |Out(S)|
};

/// Sweeps prefixes of `order` (all prefixes of size <= n/2, further capped at
/// `maxPrefix` when nonzero), returning the prefix with minimal vertex
/// expansion. `order` may be a partial ordering covering only the sweepable
/// vertices as long as maxPrefix <= order.size().
[[nodiscard]] SweepCut sweepCutByOrder(const Graph& g, const std::vector<NodeId>& order,
                                       std::size_t maxPrefix = 0);

/// Fiedler sweep upper bound on h(G). `iterations` controls power-iteration
/// accuracy. Deterministic given rng.
[[nodiscard]] SweepCut fiedlerSweep(const Graph& g, unsigned iterations, Rng& rng);

/// Estimate of the spectral expansion: 1 - lambda2(W) where W is the lazy
/// walk matrix (in [0, 1/2]; larger means better expander).
[[nodiscard]] double spectralGapEstimate(const Graph& g, unsigned iterations, Rng& rng);

/// Upper-bounds h(G) by also trying `samples` random BFS-grown connected
/// subsets (each <= n/2). Used by the T9 assumption-audit experiment.
[[nodiscard]] double sampledExpansionUpperBound(const Graph& g, unsigned samples, Rng& rng);

}  // namespace bzc
