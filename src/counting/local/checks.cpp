#include "counting/local/checks.hpp"

#include <algorithm>

#include "graph/expansion.hpp"
#include "support/require.hpp"

namespace bzc {

ExpansionVerdict ExpansionMonitor::inspect(const LocalView& view, Round round) {
  if (params_.ballGrowthEnabled && !ballGrowthHealthy(view, round)) {
    return ExpansionVerdict::BallGrowthViolation;
  }
  if (params_.spectralEnabled && view.size() >= params_.spectralMinSize && !sweepHealthy(view)) {
    return ExpansionVerdict::SparseCutDetected;
  }
  return ExpansionVerdict::Healthy;
}

bool ExpansionMonitor::ballGrowthHealthy(const LocalView& view, Round round) const {
  const auto& layers = view.layerCounts();
  std::size_t prefix = 0;
  for (Round j = 0; j <= round && j < layers.size(); ++j) {
    prefix += layers[j];
    // Out(S_j) in the next view: the following layer, except for the newest
    // prefix whose Out is the referenced-but-unintegrated boundary.
    const std::size_t out = (j + 1 < layers.size() && j < round)
                                ? layers[j + 1]
                                : view.boundarySize();
    if (prefix == 0) continue;
    if (static_cast<double>(out) < params_.alphaPrime * static_cast<double>(prefix)) {
      return false;
    }
  }
  return true;
}

std::vector<NodeId> ExpansionMonitor::sweepOrder(const Graph& viewGraph, NodeId nInt) {
  // The view graph changes size every round, so a Fiedler vector carried
  // over from the last round could never seed this one: every solve is cold.
  const std::vector<double> fiedler = fiedlerVector(viewGraph, 5 * params_.spectralIters, rng_);
  std::vector<NodeId> order(nInt);
  for (NodeId i = 0; i < nInt; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return fiedler[a] != fiedler[b] ? fiedler[a] < fiedler[b] : a < b;
  });
  return order;
}

bool ExpansionMonitor::sweepHealthy(const LocalView& view) {
  const Graph g = view.buildViewGraph();
  if (g.numNodes() < 4) return true;
  // Order integrated vertices by the Fiedler value; boundary vertices are
  // excluded from the candidate prefixes (S must lie inside B̂(u,i)) but
  // still count toward Out(S) via sweepCutByOrder's full-graph accounting.
  const auto nInt = static_cast<NodeId>(view.integratedVertexCount());
  std::vector<NodeId> order = sweepOrder(g, nInt);
  auto violating = [&](const SweepCut& cut) {
    return cut.smallSide >= params_.spectralMinSide && cut.expansion < params_.alphaPrime;
  };
  if (violating(sweepCutByOrder(g, order, nInt))) return false;
  std::reverse(order.begin(), order.end());
  return !violating(sweepCutByOrder(g, order, nInt));
}

double exactViewSubsetExpansion(const LocalView& view) {
  const Graph g = view.buildViewGraph();
  const auto nInt = static_cast<NodeId>(view.integratedVertexCount());
  BZC_REQUIRE(nInt >= 1 && nInt <= 20, "exact check limited to <= 20 integrated vertices");
  double best = static_cast<double>(g.numNodes());
  std::vector<NodeId> members;
  for (std::uint32_t mask = 1; mask < (1u << nInt); ++mask) {
    members.clear();
    for (NodeId u = 0; u < nInt; ++u) {
      if (mask & (1u << u)) members.push_back(u);
    }
    best = std::min(best, vertexExpansionOfSet(g, members));
  }
  return best;
}

}  // namespace bzc
