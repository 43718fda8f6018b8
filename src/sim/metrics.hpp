// Run metrics: rounds, message counts, per-node message-size accounting and
// the decision timeline. Theorem 2's "small messages" claim is evaluated
// from MessageMeter (max bits any given node ever put on a single edge).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/types.hpp"

namespace bzc {

class MessageMeter {
 public:
  explicit MessageMeter(NodeId numNodes = 0) : nodes_(numNodes) {}

  /// Records node u placing one message of `bits` bits on one edge.
  void record(NodeId u, std::size_t bits) noexcept { recordBroadcast(u, bits, 1); }

  /// Records node u placing the same `bits`-bit message on `copies` edges
  /// (a broadcast); cheaper than `copies` record() calls in flooding loops.
  void recordBroadcast(NodeId u, std::size_t bits, std::uint32_t copies) noexcept {
    if (u >= nodes_.size() || copies == 0) return;
    NodeRecord& r = nodes_[u];
    r.maxBits = bits > r.maxBits ? bits : r.maxBits;
    r.bits += static_cast<std::uint64_t>(bits) * copies;
    r.messages += copies;
    totalMessages_ += copies;
    totalBits_ += static_cast<std::uint64_t>(bits) * copies;
  }

  [[nodiscard]] std::size_t maxMessageBits(NodeId u) const { return nodes_.at(u).maxBits; }
  [[nodiscard]] std::uint64_t bitsSent(NodeId u) const { return nodes_.at(u).bits; }
  [[nodiscard]] std::uint64_t messagesSent(NodeId u) const { return nodes_.at(u).messages; }
  [[nodiscard]] std::uint64_t totalMessages() const noexcept { return totalMessages_; }
  [[nodiscard]] std::uint64_t totalBits() const noexcept { return totalBits_; }

  /// Fraction of the given nodes whose largest single message stayed within
  /// `bitBudget` bits — the Theorem 2 "most nodes send small messages" lens.
  [[nodiscard]] double fractionWithin(const std::vector<NodeId>& nodes,
                                      std::size_t bitBudget) const;

  /// q-quantile of max message bits over the given nodes.
  [[nodiscard]] double maxBitsQuantile(const std::vector<NodeId>& nodes, double q) const;

 private:
  /// One record per node, so a send touches one cache line, not three.
  struct NodeRecord {
    std::size_t maxBits = 0;
    std::uint64_t bits = 0;
    std::uint64_t messages = 0;
  };
  std::vector<NodeRecord> nodes_;
  std::uint64_t totalMessages_ = 0;
  std::uint64_t totalBits_ = 0;
};

/// Per-node decision record filled in by the protocols.
struct DecisionRecord {
  bool decided = false;
  Round round = 0;        ///< round at which the estimate became final
  double estimate = 0.0;  ///< the node's estimate of log n (protocol's scale)
};

}  // namespace bzc
