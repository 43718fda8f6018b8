// Mutable overlay with d-regularity repair — the dynamic counterpart of the
// static generators in graph/generators.hpp.
//
// The overlay tracks live members under churn. Members carry stable 64-bit
// global ids (monotonically increasing; a rejoining peer is a *new* id, which
// is exactly how whitewashing works in unstructured P2P overlays) and a
// Byzantine flag fixed at join time. Edges connect global ids; every epoch
// the overlay is materialised as a dense Graph (ids compacted in increasing
// order) so the entire existing protocol stack — generators' invariants,
// SyncEngine, placements — runs unchanged on each snapshot.
//
// Repair keeps the overlay a valid H(n,d)-shaped input (d-regular multigraph,
// no self-loops) using the randomized replacement pairing rule of self-healing
// overlay maintenance:
//  - a departure frees one stub on each neighbour; freed stubs are shuffled
//    and paired into replacement edges;
//  - a join claims d stubs by first filling degree deficits, then splicing
//    into random existing edges (replace (a,b) with (a,x)+(x,b) — all other
//    degrees unchanged);
//  - leftover deficits (odd pairings, self-pair collisions) are mopped up by
//    repairToRegular(), which pairs deficit stubs across distinct nodes and
//    resolves a single stranded node by splicing. With even d the total
//    deficit is always even, so repair terminates at exact d-regularity
//    whenever the membership stays above the d+2 floor.
//
// All randomness comes from caller-provided Rng streams, so an overlay
// trajectory is a pure function of (initial graph, event sequence, stream).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/byzantine.hpp"
#include "support/rng.hpp"

namespace bzc {

/// One live overlay member.
struct OverlayMember {
  std::uint64_t id = 0;  ///< stable global id, unique across the whole trajectory
  bool byzantine = false;
};

/// A dense per-epoch snapshot: the Graph the protocols run on, the matching
/// Byzantine set, and the dense-index -> global-id map for bookkeeping.
struct OverlaySnapshot {
  Graph graph;
  ByzantineSet byz;
  std::vector<std::uint64_t> denseToId;
};

class DynamicOverlay {
 public:
  /// Seeds the overlay from a materialised trial: node u becomes global id u,
  /// byz membership is copied, and targetDegree is the repair target (must be
  /// even and >= 2; the H(n,d)/configuration-model families are even-degree).
  DynamicOverlay(const Graph& initial, const ByzantineSet& byz, NodeId targetDegree);

  // --- membership -----------------------------------------------------------
  [[nodiscard]] std::size_t liveCount() const noexcept { return members_.size(); }
  [[nodiscard]] std::size_t byzCount() const noexcept { return byzCount_; }
  [[nodiscard]] NodeId targetDegree() const noexcept { return targetDegree_; }
  /// Live members. Insertion-ordered until the first departure; leave() uses
  /// swap-compaction, so after churn the order is an arbitrary permutation.
  /// snapshot() re-sorts by global id, so dense indices stay canonical.
  [[nodiscard]] const std::vector<OverlayMember>& members() const noexcept { return members_; }
  [[nodiscard]] bool isLive(std::uint64_t id) const;
  [[nodiscard]] std::size_t edgeCount() const noexcept { return edges_.size(); }

  /// Minimum membership the overlay refuses to shrink below (repair needs
  /// enough non-incident edges to splice through).
  [[nodiscard]] std::size_t membershipFloor() const noexcept {
    return static_cast<std::size_t>(targetDegree_) + 2;
  }

  // --- mutation (callers drive these from ChurnModel events) ----------------
  /// Adds a fresh member and wires it to degree d via deficit filling + edge
  /// splicing. Returns the new global id.
  std::uint64_t join(bool byzantine, Rng& rng);

  /// Removes a live member and pairs the freed stubs. No-op (returns false)
  /// when the membership is at the floor or the id is not live.
  bool leave(std::uint64_t id, Rng& rng);

  /// One degree-preserving double-edge swap: (a,b),(c,d) -> (a,d),(c,b).
  /// Draws are rejected (bounded retries) when they would create a self-loop.
  void rewire(Rng& rng);

  /// Pairs all outstanding degree deficits back to exact d-regularity.
  void repairToRegular(Rng& rng);

  // --- inspection / materialisation -----------------------------------------
  /// Sum over live members of (d - degree); 0 iff the overlay is d-regular.
  [[nodiscard]] std::size_t degreeDeficit() const;
  [[nodiscard]] NodeId degreeOf(std::uint64_t id) const;

  /// Dense snapshot for one epoch. Requires a repaired (or at least
  /// self-loop-free) edge set; Graph construction validates the rest. The
  /// sort/index/edge scratch lives on the overlay, so a steady-state epoch
  /// allocates only the snapshot's own arrays.
  [[nodiscard]] OverlaySnapshot snapshot() const;

 private:
  [[nodiscard]] std::size_t indexOf(std::uint64_t id) const;  ///< npos when not live
  void addEdge(std::uint64_t a, std::uint64_t b);
  void removeEdgeAt(std::size_t index);
  void incidenceRemove(std::size_t memberIdx, std::size_t edgeIndex);
  void incidenceReplace(std::size_t memberIdx, std::size_t from, std::size_t to);
  /// Splices `node` into an edge not incident to it: (a,b) -> (a,node)+(node,b).
  /// Returns false when no such edge exists.
  bool spliceInto(std::uint64_t node, Rng& rng);
  /// Pairs the stub multiset into edges; stubs that cannot be paired without
  /// a self-loop are left as deficits. Consumes `stubs`.
  void pairStubs(std::vector<std::uint64_t>& stubs, Rng& rng);

  NodeId targetDegree_ = 0;
  std::uint64_t nextId_ = 0;
  std::size_t byzCount_ = 0;
  /// Unordered after the first leave() (swap-compaction); see members().
  std::vector<OverlayMember> members_;
  std::vector<NodeId> degree_;                    ///< parallel to members_
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges_;  ///< global ids, a != b
  /// Per-member incidence index (edge positions in edges_), parallel to
  /// members_. Turns leave() from a full edge-list sweep into O(d) lookups —
  /// the ROADMAP perf lever for mass departures at 16k+ members.
  std::vector<std::vector<std::size_t>> incidence_;
  /// Global id -> position in members_/degree_/incidence_. With swap-pop
  /// compaction in leave() this makes departures fully O(d²): no O(n)
  /// lower_bound scans and no O(n) vector erases remain.
  std::unordered_map<std::uint64_t, std::size_t> indexOf_;

  // snapshot() scratch (mutable: snapshots are logically const). Grow to
  // the high-water membership/edge count once, then serve every epoch.
  mutable std::vector<std::size_t> snapOrder_;
  mutable std::vector<NodeId> snapDenseOf_;
  mutable std::vector<NodeId> snapByzDense_;
  mutable std::vector<std::pair<NodeId, NodeId>> snapEdges_;
};

}  // namespace bzc
