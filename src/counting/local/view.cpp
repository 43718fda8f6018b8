#include "counting/local/view.hpp"

#include <algorithm>

#include "support/require.hpp"

namespace bzc {

RecordPool::RecordPool(const Graph& g, const IdSpace& ids) {
  const NodeId n = g.numNodes();
  BZC_REQUIRE(ids.size() == n, "id space size mismatch");
  honestCount_ = n;
  recordName_.reserve(n);
  adjOffset_.reserve(n + 1);
  adjOffset_.push_back(0);
  namePub_.reserve(n);
  refTracked_.reserve(n);
  nameRecords_.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    const NameId w = internName(ids.publicId(u));
    BZC_CHECK(w == u, "honest names must be dense");
    recordName_.push_back(w);
    nameRecords_[w].push_back(u);
    for (NodeId v : g.neighbors(u)) adjPool_.push_back(v);
    adjOffset_.push_back(adjPool_.size());
  }
}

NameId RecordPool::internName(PublicId pub) {
  const auto [it, inserted] = pubToName_.try_emplace(pub, static_cast<NameId>(namePub_.size()));
  if (inserted) {
    namePub_.push_back(pub);
    refTracked_.push_back(0);
    nameRecords_.emplace_back();
  }
  return it->second;
}

NameId RecordPool::nameOf(PublicId pub) { return internName(pub); }

NameId RecordPool::findName(PublicId pub) const {
  const auto it = pubToName_.find(pub);
  return it == pubToName_.end() ? kNoName : it->second;
}

RecordIdx RecordPool::addFake(PublicId pub, const std::vector<PublicId>& adjacency) {
  const NameId w = internName(pub);
  const auto r = static_cast<RecordIdx>(recordName_.size());
  recordName_.push_back(w);
  nameRecords_[w].push_back(r);
  markRefTracked(w);
  for (PublicId a : adjacency) {
    const NameId an = internName(a);
    adjPool_.push_back(an);
    markRefTracked(an);
  }
  adjOffset_.push_back(adjPool_.size());
  return r;
}

bool RecordPool::lists(RecordIdx r, NameId w) const {
  for (NameId a : adjacency(r)) {
    if (a == w) return true;
  }
  return false;
}

std::span<const RecordIdx> RecordPool::aliases(NameId w) const {
  const auto& records = nameRecords_[w];
  return {records.data(), records.size()};
}

LocalView::LocalView(const RecordPool* pool, std::uint32_t maxDegree)
    : pool_(pool), maxDegree_(maxDegree) {
  BZC_REQUIRE(pool != nullptr, "view needs a record pool");
  ensureCapacity();
}

void LocalView::ensureCapacity() {
  if (nameState_.size() < pool_->numNames()) {
    nameState_.resize(pool_->numNames(), kUnseen);
    nameRecord_.resize(pool_->numNames(), 0);
    nameOrder_.resize(pool_->numNames(), 0);
  }
  const std::size_t words = (pool_->numRecords() + 63) / 64;
  if (known_.size() < words) known_.resize(words, 0);
}

void LocalView::installSelf(RecordIdx self) {
  BZC_REQUIRE(integrated_.empty(), "self record must be first");
  const IntegrationVerdict v = integrate(self, 0);
  BZC_CHECK(v == IntegrationVerdict::Ok, "own record must integrate cleanly");
}

IntegrationVerdict LocalView::integrate(RecordIdx r, Round round) {
  ensureCapacity();
  while (roundMarks_.size() <= round) roundMarks_.push_back(integrated_.size());
  while (layer_.size() <= round) layer_.push_back(0);

  const NameId w = pool_->recordName(r);
  if (nameState_[w] == kIntegrated) {
    if (nameRecord_[w] == r) return IntegrationVerdict::Duplicate;
    // Alias: another record claims the same identity. Identical content is a
    // duplicate in disguise; anything else is the Lemma 4 contradiction.
    const auto a = pool_->adjacency(nameRecord_[w]);
    const auto b = pool_->adjacency(r);
    if (a.size() == b.size()) {
      std::vector<NameId> sa(a.begin(), a.end());
      std::vector<NameId> sb(b.begin(), b.end());
      std::sort(sa.begin(), sa.end());
      std::sort(sb.begin(), sb.end());
      if (sa == sb) return IntegrationVerdict::Duplicate;
    }
    return IntegrationVerdict::Conflict;
  }

  if (pool_->degree(r) > maxDegree_) return IntegrationVerdict::DegreeBound;

  const bool honest = pool_->isHonest(r);
  // Forward mutual check: every already-integrated claimed neighbour must
  // list us back. Honest-honest pairs are symmetric by construction of the
  // pool, so only pairs touching fabricated content pay for the scan.
  for (NameId a : pool_->adjacency(r)) {
    if (nameState_[a] != kIntegrated) continue;
    const RecordIdx f = nameRecord_[a];
    if (honest && pool_->isHonest(f)) continue;
    if (!pool_->lists(f, w)) return IntegrationVerdict::MutualMismatch;
  }
  // Reverse mutual check: anyone who previously referenced this identity
  // must appear in our adjacency.
  if (pool_->needsRefTracking(w)) {
    for (const auto& [referenced, referencer] : trackedRefs_) {
      if (referenced == w && !pool_->lists(r, referencer)) {
        return IntegrationVerdict::MutualMismatch;
      }
    }
  }

  // Commit.
  if (nameState_[w] == kReferenced) {
    BZC_ASSERT(boundary_ > 0);
    --boundary_;
  }
  nameState_[w] = kIntegrated;
  nameRecord_[w] = r;
  nameOrder_[w] = static_cast<std::uint32_t>(integrated_.size());
  integrated_.push_back(r);
  known_[r / 64] |= std::uint64_t{1} << (r % 64);
  ++layer_[round];
  for (NameId a : pool_->adjacency(r)) {
    if (nameState_[a] == kUnseen) {
      nameState_[a] = kReferenced;
      ++boundary_;
    }
    if (pool_->needsRefTracking(a)) trackedRefs_.emplace_back(a, w);
  }
  return IntegrationVerdict::Ok;
}

void LocalView::reserveLog(std::size_t records) {
  const std::size_t room = pool_->numNames() - integrated_.size();
  const std::size_t need = integrated_.size() + std::min(records, room);
  if (need > integrated_.capacity()) {
    integrated_.reserve(std::max(need, 2 * integrated_.capacity()));
  }
}

std::size_t LocalView::roundMark(Round round) const {
  return round < roundMarks_.size() ? roundMarks_[round] : integrated_.size();
}

Graph LocalView::buildViewGraph() const {
  // Vertices: integrated records first (in integration order), then boundary
  // names. Edges come from integrated records' adjacency claims; the edge to
  // an integrated peer is emitted by the lower-ordered endpoint only (both
  // endpoints list each other — anything else was rejected at integration).
  // Boundary names are numbered after the integrated vertices in first-
  // encounter order.
  const auto total = static_cast<NodeId>(integrated_.size());
  std::vector<NodeId> boundaryIndex(nameState_.size(), kNoNode);
  NodeId numVertices = total;
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(static_cast<std::size_t>(total) * 4);
  for (NodeId i = 0; i < total; ++i) {
    for (NameId a : pool_->adjacency(integrated_[i])) {
      if (nameState_[a] == kIntegrated) {
        const NodeId j = nameOrder_[a];
        if (j > i) edges.emplace_back(i, j);
      } else if (nameState_[a] == kReferenced) {
        NodeId& b = boundaryIndex[a];
        if (b == kNoNode) b = numVertices++;
        edges.emplace_back(i, b);
      }
    }
  }
  return Graph(numVertices, edges);
}

}  // namespace bzc
