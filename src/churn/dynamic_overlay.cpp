#include "churn/dynamic_overlay.hpp"

#include <algorithm>

#include "support/require.hpp"

namespace bzc {

namespace {
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
}  // namespace

DynamicOverlay::DynamicOverlay(const Graph& initial, const ByzantineSet& byz, NodeId targetDegree)
    : targetDegree_(targetDegree) {
  const NodeId n = initial.numNodes();
  BZC_REQUIRE(byz.numNodes() == n, "byzantine set size mismatch");
  BZC_REQUIRE(targetDegree >= 2 && targetDegree % 2 == 0,
              "overlay repair needs an even target degree >= 2");
  BZC_REQUIRE(n > targetDegree + 2, "initial overlay below the membership floor");
  // Repair pulls degrees *up* to the target, never down: churn needs a
  // regular-family seed graph (Hnd / configuration model), not e.g. a
  // rewired small world whose degrees straddle the target.
  BZC_REQUIRE(initial.maxDegree() <= targetDegree,
              "initial overlay degree exceeds the repair target");
  members_.reserve(n);
  degree_.reserve(n);
  incidence_.resize(n);
  indexOf_.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    members_.push_back({u, byz.contains(u)});
    degree_.push_back(initial.degree(u));
    incidence_[u].reserve(initial.degree(u));
    indexOf_.emplace(u, u);
    if (byz.contains(u)) ++byzCount_;
  }
  nextId_ = n;
  edges_.reserve(initial.numEdges());
  for (const auto& [u, v] : initial.edgeList()) {
    incidence_[u].push_back(edges_.size());
    incidence_[v].push_back(edges_.size());
    edges_.emplace_back(u, v);
  }
}

std::size_t DynamicOverlay::indexOf(std::uint64_t id) const {
  const auto it = indexOf_.find(id);
  return it == indexOf_.end() ? kNpos : it->second;
}

bool DynamicOverlay::isLive(std::uint64_t id) const { return indexOf(id) != kNpos; }

NodeId DynamicOverlay::degreeOf(std::uint64_t id) const {
  const std::size_t i = indexOf(id);
  BZC_REQUIRE(i != kNpos, "degreeOf: id not live");
  return degree_[i];
}

void DynamicOverlay::addEdge(std::uint64_t a, std::uint64_t b) {
  BZC_ASSERT(a != b);
  const std::size_t ia = indexOf(a);
  const std::size_t ib = indexOf(b);
  incidence_[ia].push_back(edges_.size());
  incidence_[ib].push_back(edges_.size());
  edges_.emplace_back(a, b);
  ++degree_[ia];
  ++degree_[ib];
}

void DynamicOverlay::incidenceRemove(std::size_t memberIdx, std::size_t edgeIndex) {
  std::vector<std::size_t>& list = incidence_[memberIdx];
  for (std::size_t k = 0; k < list.size(); ++k) {
    if (list[k] == edgeIndex) {
      list[k] = list.back();
      list.pop_back();
      return;
    }
  }
  BZC_ASSERT(false);  // the index is maintained on every mutation
}

void DynamicOverlay::incidenceReplace(std::size_t memberIdx, std::size_t from, std::size_t to) {
  for (std::size_t& e : incidence_[memberIdx]) {
    if (e == from) {
      e = to;
      return;
    }
  }
  BZC_ASSERT(false);
}

void DynamicOverlay::removeEdgeAt(std::size_t index) {
  const auto [a, b] = edges_[index];
  const std::size_t ia = indexOf(a);
  const std::size_t ib = indexOf(b);
  --degree_[ia];
  --degree_[ib];
  incidenceRemove(ia, index);
  incidenceRemove(ib, index);
  const std::size_t last = edges_.size() - 1;
  if (index != last) {
    // Swap-pop: the moved edge changes position; patch its endpoints' index
    // entries (each edge position appears exactly once per endpoint list).
    edges_[index] = edges_[last];
    const auto [c, d] = edges_[index];
    incidenceReplace(indexOf(c), last, index);
    incidenceReplace(indexOf(d), last, index);
  }
  edges_.pop_back();
}

bool DynamicOverlay::spliceInto(std::uint64_t node, Rng& rng) {
  // Replace a random edge (a,b), a,b != node, with (a,node)+(node,b): the
  // newcomer gains two stubs, a and b keep their degrees.
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (edges_.empty()) return false;
    const std::size_t e = static_cast<std::size_t>(rng.uniform(edges_.size()));
    const auto [a, b] = edges_[e];
    if (a == node || b == node) continue;
    removeEdgeAt(e);
    addEdge(a, node);
    addEdge(node, b);
    return true;
  }
  // Dense incidence (tiny overlays): fall back to a linear scan.
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (edges_[e].first == node || edges_[e].second == node) continue;
    const auto [a, b] = edges_[e];
    removeEdgeAt(e);
    addEdge(a, node);
    addEdge(node, b);
    return true;
  }
  return false;
}

std::uint64_t DynamicOverlay::join(bool byzantine, Rng& rng) {
  const std::uint64_t id = nextId_++;
  indexOf_.emplace(id, members_.size());
  members_.push_back({id, byzantine});
  degree_.push_back(0);
  incidence_.emplace_back();
  if (byzantine) ++byzCount_;

  // First hand the newcomer to nodes already missing stubs (repairs earlier
  // departures for free), in a randomised order over the deficit set.
  std::vector<std::uint64_t> deficits;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].id != id && degree_[i] < targetDegree_) deficits.push_back(members_[i].id);
  }
  rng.shuffle(deficits);
  for (std::uint64_t partner : deficits) {
    if (degreeOf(id) >= targetDegree_) break;
    addEdge(id, partner);
  }
  // Remaining stubs come in pairs via edge splicing.
  while (degreeOf(id) + 1 < targetDegree_) {
    if (!spliceInto(id, rng)) break;
  }
  // An odd leftover stub (deficit filling consumed an odd count) pairs with
  // one more splice half… impossible; leave it as a deficit for
  // repairToRegular, which the epoch loop always runs after the event batch.
  return id;
}

bool DynamicOverlay::leave(std::uint64_t id, Rng& rng) {
  if (liveCount() <= membershipFloor()) return false;
  const std::size_t pos = indexOf(id);
  if (pos == kNpos) return false;

  // Collect and delete the incident edges, freeing one stub per neighbour.
  // The incidence index makes this O(d²) per departure (each removal patches
  // a handful of short per-member lists) instead of the old O(m) edge-list
  // sweep — the ROADMAP perf lever that was quadratic for mass departures at
  // 16k+ members (DESIGN.md §8).
  std::vector<std::uint64_t> stubs;
  stubs.reserve(degree_[pos]);
  while (!incidence_[pos].empty()) {
    const std::size_t e = incidence_[pos].back();
    const auto [a, b] = edges_[e];
    stubs.push_back(a == id ? b : a);
    removeEdgeAt(e);  // also erases e from incidence_[pos]
  }
  if (members_[pos].byzantine) --byzCount_;
  // Swap-pop all three parallel vectors (O(1) instead of the old O(n)
  // erases), patching the moved member's position in the id map. The map
  // entry for `id` itself must outlive the stub-collection loop above:
  // removeEdgeAt resolves both endpoints through indexOf().
  const std::size_t last = members_.size() - 1;
  if (pos != last) {
    members_[pos] = members_[last];
    degree_[pos] = degree_[last];
    incidence_[pos] = std::move(incidence_[last]);
    indexOf_[members_[pos].id] = pos;
  }
  members_.pop_back();
  degree_.pop_back();
  incidence_.pop_back();
  indexOf_.erase(id);

  pairStubs(stubs, rng);
  return true;
}

void DynamicOverlay::pairStubs(std::vector<std::uint64_t>& stubs, Rng& rng) {
  rng.shuffle(stubs);
  while (stubs.size() >= 2) {
    const std::uint64_t a = stubs.back();
    stubs.pop_back();
    // Find a partner that is not `a` (parallel edges are fine — the H(n,d)
    // family is a multigraph — but self-loops are not).
    std::size_t partner = kNpos;
    for (std::size_t i = stubs.size(); i-- > 0;) {
      if (stubs[i] != a) {
        partner = i;
        break;
      }
    }
    if (partner == kNpos) break;  // every remaining stub is on `a`: strand them
    const std::uint64_t b = stubs[partner];
    stubs[partner] = stubs.back();
    stubs.pop_back();
    addEdge(a, b);
  }
  // Any strands stay as degree deficits; repairToRegular resolves them.
}

void DynamicOverlay::rewire(Rng& rng) {
  if (edges_.size() < 2) return;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::size_t i = static_cast<std::size_t>(rng.uniform(edges_.size()));
    const std::size_t j = static_cast<std::size_t>(rng.uniform(edges_.size()));
    if (i == j) continue;
    const auto [a, b] = edges_[i];
    const auto [c, d] = edges_[j];
    if (a == d || c == b) continue;  // swap would create a self-loop
    edges_[i] = {a, d};
    edges_[j] = {c, b};
    // b's stub moved from edge i to edge j, d's the other way round.
    incidenceReplace(indexOf(b), i, j);
    incidenceReplace(indexOf(d), j, i);
    return;  // degrees unchanged: every endpoint keeps one stub per edge
  }
}

std::size_t DynamicOverlay::degreeDeficit() const {
  std::size_t deficit = 0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    BZC_ASSERT(degree_[i] <= targetDegree_);
    deficit += targetDegree_ - degree_[i];
  }
  return deficit;
}

void DynamicOverlay::repairToRegular(Rng& rng) {
  // Gather one stub per missing degree unit and pair across distinct nodes.
  std::vector<std::uint64_t> stubs;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    for (NodeId k = degree_[i]; k < targetDegree_; ++k) stubs.push_back(members_[i].id);
  }
  if (stubs.empty()) return;
  pairStubs(stubs, rng);
  // pairStubs can strand stubs only when they all sit on one node; with even
  // d the strand count is even, so splicing (two stubs per splice) finishes.
  for (std::size_t i = 0; i < members_.size(); ++i) {
    while (degree_[i] + 1 < targetDegree_) {
      if (!spliceInto(members_[i].id, rng)) return;  // overlay too small to splice
    }
  }
  BZC_ASSERT(degreeDeficit() == 0);
}

OverlaySnapshot DynamicOverlay::snapshot() const {
  const NodeId n = static_cast<NodeId>(members_.size());
  // members_ is an arbitrary permutation after swap-compacted departures;
  // dense indices must stay in increasing global-id order (epoch bookkeeping
  // maps dense -> id monotonically), so build a sort-by-id permutation and
  // its inverse for the edge mapping. Zero-churn trajectories keep members_
  // sorted, making `order` the identity — snapshots stay bit-identical.
  std::vector<std::size_t>& order = snapOrder_;
  order.resize(members_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return members_[a].id < members_[b].id;
  });
  std::vector<NodeId>& denseOf = snapDenseOf_;
  denseOf.resize(members_.size());
  for (std::size_t dense = 0; dense < order.size(); ++dense)
    denseOf[order[dense]] = static_cast<NodeId>(dense);
  OverlaySnapshot out;
  out.denseToId.reserve(n);
  std::vector<NodeId>& byzDense = snapByzDense_;
  byzDense.clear();
  for (NodeId dense = 0; dense < n; ++dense) {
    out.denseToId.push_back(members_[order[dense]].id);
    if (members_[order[dense]].byzantine) byzDense.push_back(dense);
  }
  std::vector<std::pair<NodeId, NodeId>>& denseEdges = snapEdges_;
  denseEdges.clear();
  denseEdges.reserve(edges_.size());
  for (const auto& [a, b] : edges_) {
    const std::size_t ia = indexOf(a);
    const std::size_t ib = indexOf(b);
    BZC_ASSERT(ia != kNpos && ib != kNpos);
    denseEdges.emplace_back(denseOf[ia], denseOf[ib]);
  }
  // Graph's CSR form is canonical in the edge *multiset* (adjacency is
  // sorted per node), so snapshot equality only needs membership+edge
  // equality — the zero-churn identity tests rely on this.
  out.graph = Graph(n, denseEdges);
  out.byz = ByzantineSet(n, byzDense);
  return out;
}

}  // namespace bzc
