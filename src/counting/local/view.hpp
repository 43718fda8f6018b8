// Topology views for Algorithm 1 (deterministic LOCAL counting).
//
// Every node u maintains an approximation B̂(u,i) of its i-hop neighbourhood,
// grown by integrating "records" — (node id, incident edge list) claims —
// received from neighbours. Honest nodes forward each record once (delta
// flooding, informationally equivalent to the paper's "broadcast B̂(u,i)"
// but O(1) per record per edge); Byzantine nodes may fabricate records.
//
// To keep the per-receipt cost at a couple of array lookups (the simulation
// touches ~n²·Δ record deliveries), all record *content* lives once in a
// shared RecordPool; messages carry pool indices; per-view state is flat
// arrays indexed by "name" (distinct claimed node identity). Two pool
// entries with the same public ID but different content are *aliases* — a
// view integrating both has caught a Byzantine contradiction (Lemma 4).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "sim/ids.hpp"
#include "support/types.hpp"

namespace bzc {

/// Index of a record in the pool.
using RecordIdx = std::uint32_t;
/// Dense index of a claimed node identity (public ID); honest node u has
/// name u, fabricated identities get fresh names.
using NameId = std::uint32_t;

class RecordPool {
 public:
  /// Honest records 0..n-1 are derived from the real graph and ID space.
  RecordPool(const Graph& g, const IdSpace& ids);

  /// Registers a fabricated record claiming identity `pub` with the given
  /// incident identities. Returns its index. `pub` may collide with an
  /// honest node's ID (that is the whole point of a forgery).
  RecordIdx addFake(PublicId pub, const std::vector<PublicId>& adjacency);

  /// Dense name for a public ID (allocating if new).
  [[nodiscard]] NameId nameOf(PublicId pub);
  /// Name lookup without allocation; returns kNoName when unknown.
  [[nodiscard]] NameId findName(PublicId pub) const;

  [[nodiscard]] std::size_t numRecords() const noexcept { return recordName_.size(); }
  [[nodiscard]] std::size_t numNames() const noexcept { return namePub_.size(); }

  [[nodiscard]] NameId recordName(RecordIdx r) const { return recordName_[r]; }
  [[nodiscard]] PublicId namePublicId(NameId w) const { return namePub_[w]; }
  [[nodiscard]] bool isHonest(RecordIdx r) const { return r < honestCount_; }
  [[nodiscard]] std::span<const NameId> adjacency(RecordIdx r) const {
    return {adjPool_.data() + adjOffset_[r], adjPool_.data() + adjOffset_[r + 1]};
  }
  [[nodiscard]] std::uint32_t degree(RecordIdx r) const {
    return static_cast<std::uint32_t>(adjOffset_[r + 1] - adjOffset_[r]);
  }

  /// True when some alias of this name could contradict another (name of a
  /// Byzantine node, or name carried by a fabricated record). Views only
  /// track reverse references for flagged names, keeping the honest fast
  /// path free of bookkeeping.
  [[nodiscard]] bool needsRefTracking(NameId w) const { return refTracked_[w]; }
  void markRefTracked(NameId w) { refTracked_[w] = 1; }

  /// True if the adjacency of record r contains name w.
  [[nodiscard]] bool lists(RecordIdx r, NameId w) const;

  /// Records claiming the same name as r (excluding r itself) — O(aliases).
  [[nodiscard]] std::span<const RecordIdx> aliases(NameId w) const;

  static constexpr NameId kNoName = 0xffffffffu;

 private:
  NameId internName(PublicId pub);

  std::uint32_t honestCount_ = 0;
  std::vector<NameId> recordName_;
  std::vector<std::size_t> adjOffset_;
  std::vector<NameId> adjPool_;
  std::vector<PublicId> namePub_;
  std::vector<char> refTracked_;
  std::vector<std::vector<RecordIdx>> nameRecords_;  // records per name
  std::unordered_map<PublicId, NameId> pubToName_;
};

/// Outcome of integrating one record into a view.
enum class IntegrationVerdict : std::uint8_t {
  Ok,              ///< new knowledge, consistent
  Duplicate,       ///< already known, identical content
  DegreeBound,     ///< claimed degree exceeds the known bound Δ (Line 17)
  Conflict,        ///< contradicts a previously integrated record (Line 18)
  MutualMismatch,  ///< edge claimed in one direction only
};

/// One node's growing neighbourhood approximation.
class LocalView {
 public:
  /// maxDegree is the global bound Δ all nodes know.
  LocalView(const RecordPool* pool, std::uint32_t maxDegree);

  /// Installs the node's own record (layer 0). Must be called once.
  void installSelf(RecordIdx self);

  /// Integrates a record claimed to be new in `round`. Never throws; the
  /// caller reacts to the verdict (Algorithm 1 decides on anything worse
  /// than Duplicate).
  [[nodiscard]] IntegrationVerdict integrate(RecordIdx r, Round round);

  /// True if the view already integrated this exact record (the fast dup
  /// test used before paying for integrate()). One bit probe: an integrated
  /// record is never replaced (aliases return Duplicate or Conflict without
  /// committing), so the bit is exactly "its name is integrated with r".
  [[nodiscard]] bool knows(RecordIdx r) const {
    const std::size_t word = r / 64;
    return word < known_.size() && ((known_[word] >> (r % 64)) & 1U) != 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return integrated_.size(); }
  [[nodiscard]] std::size_t boundarySize() const noexcept { return boundary_; }
  /// |{records integrated in round j}| for j = 0..lastRound.
  [[nodiscard]] const std::vector<std::size_t>& layerCounts() const noexcept { return layer_; }
  /// Integration log in order; slice it with roundMark() for delta flooding.
  [[nodiscard]] const std::vector<RecordIdx>& integrationLog() const noexcept {
    return integrated_;
  }
  /// Makes room for up to `records` more log entries, so that integrating
  /// them cannot move integrationLog()'s storage. The count is capped by the
  /// names the pool knows (a view integrates at most one record per name);
  /// capacity grows geometrically.
  void reserveLog(std::size_t records);
  /// Index into integrationLog() of the first record integrated at `round`.
  [[nodiscard]] std::size_t roundMark(Round round) const;

  /// View graph over integrated records plus boundary (referenced-only)
  /// identities; integrated vertices come first, in integration order. Used
  /// by the spectral expansion check.
  [[nodiscard]] Graph buildViewGraph() const;
  [[nodiscard]] std::size_t integratedVertexCount() const noexcept { return integrated_.size(); }

 private:
  void ensureCapacity();

  static constexpr std::uint8_t kUnseen = 0;
  static constexpr std::uint8_t kReferenced = 1;
  static constexpr std::uint8_t kIntegrated = 2;

  const RecordPool* pool_;
  std::uint32_t maxDegree_;
  std::vector<std::uint8_t> nameState_;
  std::vector<RecordIdx> nameRecord_;    // valid when integrated
  std::vector<std::uint32_t> nameOrder_; // view vertex index (integration order)
  std::vector<RecordIdx> integrated_;
  std::vector<std::uint64_t> known_;     // bit r set iff record r is integrated
  std::vector<std::size_t> roundMarks_;  // integrationLog prefix per round
  std::vector<std::size_t> layer_;
  std::size_t boundary_ = 0;
  // Reverse references, tracked only for pool-flagged names.
  std::vector<std::pair<NameId, NameId>> trackedRefs_;  // (referenced, referencer)
};

}  // namespace bzc
