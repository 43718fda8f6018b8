// Byzantine node sets and adversarial placement strategies.
//
// The paper assumes *arbitrarily (adversarially) placed* Byzantine nodes; the
// placements here realise the specific worst cases its discussion singles
// out: uniformly random placement (the benign-ish baseline assumed by the
// prior work [14]), spread placement (maximise coverage so as many honest
// nodes as possible are near a Byzantine node), ball placement (concentrate
// the budget around victims), and the Remark 1 "surround" placement that
// swallows a set U of good nodes behind a Byzantine moat.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace bzc {

/// Membership structure for the Byzantine set.
class ByzantineSet {
 public:
  ByzantineSet() = default;
  ByzantineSet(NodeId numNodes, std::vector<NodeId> members);

  /// Called per send and per delivery on the engine's hot path: checked only
  /// where BZC_ASSERT is live.
  [[nodiscard]] bool contains(NodeId u) const {
    BZC_ASSERT(u < mask_.size());
    return mask_[u] != 0;
  }
  [[nodiscard]] const std::vector<NodeId>& members() const noexcept { return members_; }
  [[nodiscard]] std::size_t count() const noexcept { return members_.size(); }
  [[nodiscard]] NodeId numNodes() const noexcept { return static_cast<NodeId>(mask_.size()); }

  /// Honest nodes in index order.
  [[nodiscard]] std::vector<NodeId> honestNodes() const;

  /// Distance from every node to the nearest Byzantine node (kUnreachable
  /// everywhere when the set is empty).
  [[nodiscard]] std::vector<std::uint32_t> distanceToByzantine(const Graph& g) const;

 private:
  std::vector<char> mask_;
  std::vector<NodeId> members_;
};

/// Paper budget B(n) = floor(n^(1-gamma)).
[[nodiscard]] std::size_t byzantineBudget(NodeId n, double gamma);

enum class Placement {
  None,      ///< no Byzantine nodes
  Random,    ///< uniform without replacement
  Spread,    ///< greedy max-min-distance (k-center style) coverage
  Ball,      ///< pack a BFS ball around a victim node
  Surround,  ///< Remark 1: occupy the boundary of a ball around a victim,
             ///< then fill remaining budget by packing outward
};

struct PlacementSpec {
  Placement kind = Placement::Random;
  std::size_t count = 0;   ///< number of Byzantine nodes
  NodeId victim = 0;       ///< focus node for Ball/Surround
  std::uint32_t moatRadius = 2;  ///< Surround: radius of the protected ball
};

/// Materialises a placement on g. Never places more than n-1 nodes and never
/// makes the victim itself Byzantine.
[[nodiscard]] ByzantineSet placeByzantine(const Graph& g, const PlacementSpec& spec, Rng& rng);

}  // namespace bzc
