#pragma once
// Causal provenance & damage attribution (DESIGN.md §14).
//
// A BlameGraph is a per-trial bipartite multigraph: Byzantine cause ->
// honest outcome, with a typed edge per (kind, cause, victim) triple and an
// integer count. Causes are dense NodeIds during a trial (remapped to global
// overlay ids for churn recounts); victims are NodeIds of the honest node
// that absorbed the damage, or kBlameNone for graph-wide outcomes (continue
// spam, suppressed relays of forged beacons, ...).
//
// Collection is UNCONDITIONAL and strictly observational: edges are keyed
// counter increments driven entirely by committed protocol state — no RNG
// draws, no control-flow changes — so all golden fingerprints are
// bit-identical whether or not a sink exports the graph (`BZC_ATTRIB`
// toggles export only, mirroring BZC_TRACE / BZC_METRICS). Pipeline stages
// and epoch recounts keep their own graphs, merge()d at the existing serial
// fold points; merge is a keyed sum, hence order-invariant, so the canonical
// projection is identical across runner threads and the worker budgets the
// runner width sets (pinned by tests/provenance_test.cpp).

#include <array>
#include <cstdint>
#include <cstddef>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace bzc::obs {

/// Cause/victim sentinel: "no specific node" (unattributed cause or
/// graph-wide victim).
inline constexpr std::uint64_t kBlameNone = ~0ull;

/// Typed edge kinds. Walk-stage kinds reconcile 1:1 against
/// `AdversaryStats`, beacon-stage kinds against `BeaconAdversaryStats`
/// (see blame_report.py --check for the exact identities).
enum class BlameKind : std::uint8_t {
  // Walk / agreement stage.
  DroppedQuery = 0,     ///< byz relay dropped an outbound query token
  DroppedAnswer,        ///< byz relay dropped a returning answer token
  FlippedAnswer,        ///< byz relay inverted the answer bit in transit
  MisroutedAnswer,      ///< byz relay redirected an answer off-path
  StrayAnswer,          ///< misrouted answer landed at a non-origin node
  ForgedAnswer,         ///< walk endpoint answer forged by the adversary
  CompromisedSample,    ///< origin accepted a compromised sample
  WrongDecision,        ///< local majority bit flipped by compromised samples
  // Beacon / counting stage.
  BeaconForged,         ///< fresh forged beacon injected at the forge boundary
  RelayTampered,        ///< in-transit beacon replaced at a byz relay
  RelaySuppressed,      ///< beacon relay dropped at a byz node
  ContinueSpam,         ///< spurious continue flood started by a byz node
  ContinueSuppressed,   ///< continue relay dropped at a byz node
  BlacklistedHonestId,  ///< honest node's id entered a blacklist off a tainted path
  BlacklistedFakeId,    ///< fabricated/byz id entered a blacklist off a tainted path
  // Churn.
  RejoinLineage,        ///< whitewashing rejoin: departed byz identity -> fresh identity
  kCount
};

inline constexpr std::size_t kBlameKinds = static_cast<std::size_t>(BlameKind::kCount);

/// Stable lowerCamel name used in the ATTRIB JSONL schema.
const char* blameKindName(BlameKind kind);

/// One row of the canonical (deterministic) projection.
struct BlameEdge {
  BlameKind kind;
  std::uint64_t cause;   ///< byz node id, or kBlameNone if unattributed
  std::uint64_t victim;  ///< honest node id, or kBlameNone if graph-wide
  std::uint64_t count;
};

/// Per-subset attributed blame splits into this many bins; the last pools
/// causes with no subset mapping.
inline constexpr std::size_t kBlameMaxSubsets = 4;

/// Scalar projections of a blame graph (TrialOutcome extras 13..20). Every
/// field is a sum over edges or over per-cause sums, so none depends on edge
/// order: BlameGraph::extras() folds them in one unsorted pass.
struct BlameExtras {
  std::uint64_t wrongDecisions = 0;  ///< Σ WrongDecision edge counts
  std::uint64_t total = 0;           ///< Σ every edge count (attributed or not)
  /// Herfindahl–Hirschman concentration of attributed blame over causes:
  /// Σ over causes of (share of attributed blame)^2. 1.0 = one offender owns
  /// all damage, ->0 = diffuse. 0 when nothing is attributed.
  double concentration = 0.0;
  double topShare = 0.0;  ///< largest single-cause share of attributed blame
  /// Attributed blame per coalition subset via BlameGraph::subsetOf; the last
  /// bin pools causes with no subset mapping.
  std::array<std::uint64_t, kBlameMaxSubsets> bySubset{};
};

/// Per-trial blame graph: keyed counters + named scalar totals.
class BlameGraph {
 public:
  void add(BlameKind kind, std::uint64_t cause, std::uint64_t victim,
           std::uint64_t count = 1) {
    edges_[Key{cause, victim, kind}] += count;
  }

  /// Keyed sum of another graph's edges and totals. Associative and
  /// commutative, so stage / epoch folds are order-invariant.
  void merge(const BlameGraph& other);

  /// Named scalar totals (AdversaryStats mirrors, reconciliation
  /// denominators). addTotal sums on key collision, so merge() composes.
  void addTotal(const char* name, std::uint64_t value);
  std::uint64_t total(const std::string& name) const;
  const std::map<std::string, std::uint64_t>& totals() const { return totals_; }

  /// Remap node-valued cause/victim ids through a dense -> global table
  /// (churn recounts; see epoch_runner.cpp). Empty table = identity.
  /// kBlameNone is preserved; ids beyond the table keep their value.
  void remapNodes(const std::vector<std::uint64_t>& denseToId);

  /// Sorted-by-(kind, cause, victim) edge list: the deterministic
  /// projection pinned across runner threads.
  std::vector<BlameEdge> canonical() const;

  /// FNV-1a over the canonical projection + totals (test pin).
  std::uint64_t fingerprint() const;

  /// Sum of edge counts for one kind.
  std::uint64_t kindCount(BlameKind kind) const;

  /// Sum of all edge counts with an attributed (non-kBlameNone) cause.
  std::uint64_t attributedCount() const;

  /// The extras projections in one pass over the edges, without sorting.
  /// Reads subsetOf, so call it once that annotation is final.
  BlameExtras extras() const;

  bool empty() const { return edges_.empty() && totals_.empty(); }
  void clear();

  /// Optional subset annotation, indexed by dense NodeId
  /// (CoalitionAssignment::subsetOf); empty when no coalition plan ran.
  /// Export-side only — never read on the hot path.
  std::vector<std::uint8_t> subsetOf;

  /// Optional BFS hop distance from the placement victim, indexed by dense
  /// NodeId (export-side; filled for sampled trials only, cleared when a
  /// churn remap invalidates dense indexing).
  std::vector<std::uint16_t> victimDistance;

 private:
  struct Key {
    std::uint64_t cause;
    std::uint64_t victim;
    BlameKind kind;
    bool operator==(const Key& o) const {
      return cause == o.cause && victim == o.victim && kind == o.kind;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = 0xcbf29ce484222325ull;
      const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
      };
      mix(k.cause);
      mix(k.victim);
      mix(static_cast<std::uint64_t>(k.kind));
      return static_cast<std::size_t>(h);
    }
  };

  std::unordered_map<Key, std::uint64_t, KeyHash> edges_;
  std::map<std::string, std::uint64_t> totals_;
};

}  // namespace bzc::obs
