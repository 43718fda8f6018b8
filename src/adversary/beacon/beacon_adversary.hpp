// Pluggable Byzantine behaviour for the counting stage (Algorithm 2).
//
// The agreement stage got a strategy-driven adversary subsystem in
// src/adversary/ (WalkAdversary, DESIGN.md §7); the counting stage still
// expressed Byzantine behaviour as a bundle of booleans branched on inside
// the beacon protocol loop. This mirror subsystem factors those branches out:
// the protocol calls a BeaconAdversary strategy at the four points where a
// Byzantine node can act — authoring a beacon at the iteration boundary
// (the Lines 5-11 slot), disposing of beacon traffic it would relay,
// originating continue messages, and disposing of continue traffic — and the
// strategy decides what happens. Adding a counting-stage scenario is one
// strategy class (src/adversary/beacon/strategies.cpp) plus a profile
// constructor; no protocol edit. See DESIGN.md §9.
#pragma once

#include <cstdint>

#include "adversary/walk_adversary.hpp"  // Coalition: the cross-stage blackboard
#include "counting/beacon/path.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace bzc {

/// A beacon message as the adversary sees it: origin ID plus the path *as
/// sent* (the receiver appends the sender's unfakeable ID). The path lives in
/// the iteration's BeaconPathArena, exactly like the protocol's own payloads,
/// so strategies can build on received prefixes at O(1) per appended ID.
struct BeaconFrame {
  PublicId origin = kNoPublicId;
  BeaconPathRef path = kNoBeaconPath;
  std::uint32_t len = 0;       ///< number of IDs on `path`
  NodeId forgeNode = kNoNode;  ///< provenance: Byzantine author/tamperer of this
                               ///< payload (kNoNode = honest-authored). Simulation
                               ///< bookkeeping with no wire cost — stamped by the
                               ///< protocol at the forge/Replace boundaries, copied
                               ///< along honest relays, resolved into blacklist
                               ///< blame edges at Line 32 (DESIGN.md §14)
};

/// The delivery a transit hook gets to inspect: the first beacon in the
/// Byzantine node's inbox (the one the relaying presets forward), with
/// the sender's true public ID — the unfakeable part a receiver would append.
struct BeaconSighting {
  NodeId sender = kNoNode;
  PublicId senderId = kNoPublicId;
  BeaconFrame frame;
};

/// Disposition of beacon traffic a Byzantine node just received.
struct BeaconTransit {
  enum class Op : std::uint8_t {
    Forward,  ///< relay honestly: the protocol appends the sender's true ID
              ///< and rebroadcasts, indistinguishable from an honest relay
    Drop,     ///< silently discard (suppression)
    Replace,  ///< broadcast `replacement` instead (tampering)
  };
  Op op = Op::Forward;
  BeaconFrame replacement{};  ///< valid when op == Replace

  [[nodiscard]] static BeaconTransit forward() noexcept { return {}; }
  [[nodiscard]] static BeaconTransit drop() noexcept { return {Op::Drop, {}}; }
  [[nodiscard]] static BeaconTransit replace(const BeaconFrame& frame) noexcept {
    return {Op::Replace, frame};
  }
};

/// What the counting-stage adversary did. Protocol-observed events (forges,
/// suppressed/tampered relays, continue spam) are counted by the protocol
/// loop; strategy-internal events (grafted honest IDs, pressure backoffs) by
/// the strategies themselves. Like AdversaryStats these are diagnostics —
/// deliberately outside fingerprint(CountingResult), so the pinned beacon
/// goldens stay valid.
struct BeaconAdversaryStats {
  std::uint64_t beaconsForged = 0;        ///< beacons the adversary authored
  std::uint64_t relaysSuppressed = 0;     ///< beacon deliveries dropped in transit
  std::uint64_t relaysTampered = 0;       ///< relays replaced with authored beacons
  std::uint64_t continuesSuppressed = 0;  ///< continue relays withheld
  std::uint64_t continuesSpammed = 0;     ///< continue messages originated
  std::uint64_t prefixGrafts = 0;         ///< honest IDs spliced into forged paths
  std::uint64_t pressureBackoffs = 0;     ///< phases an adaptive forger went quiet in

  /// Folds a per-shard sink into this one (sums are shard-order invariant).
  void accumulate(const BeaconAdversaryStats& o) noexcept {
    beaconsForged += o.beaconsForged;
    relaysSuppressed += o.relaysSuppressed;
    relaysTampered += o.relaysTampered;
    continuesSuppressed += o.continuesSuppressed;
    continuesSpammed += o.continuesSpammed;
    prefixGrafts += o.prefixGrafts;
    pressureBackoffs += o.pressureBackoffs;
  }
};

/// Aggregated honest state a strategy may observe. The model is
/// full-information (§2: the adversary knows everything), so exposing the
/// protocol's own running counters is fair game; they are pure functions of
/// the run, keeping trials deterministic.
struct BeaconObservables {
  std::uint32_t phase = 0;
  std::uint32_t iteration = 0;             ///< within the phase, 1-based
  std::size_t undecidedHonest = 0;         ///< honest nodes still without a decision
  std::uint64_t blacklistInsertions = 0;   ///< Line 32 insertions so far (run total)
  std::uint64_t honestBeacons = 0;         ///< honest activations so far (run total)
};

/// Everything a strategy may touch when acting: the acting node, topology,
/// the iteration's path arena and fake-ID stream, the cross-stage Coalition
/// blackboard shared with the walk adversary (src/adversary/), the stats
/// sink and the observables above. Hooks run inside the protocol loop, so
/// any randomness must come from ctx.fakeRng to keep trials pure functions
/// of (masterSeed, index).
struct BeaconContext {
  NodeId node = kNoNode;  ///< Byzantine node acting
  Round round = 0;        ///< window round for transit hooks; 0 at boundaries
  const Graph& graph;
  BeaconPathArena::Lane arena;  ///< append lane for the acting shard (shard 0
                                ///< in serial contexts); reads go through the
                                ///< frames' refs, which work across shards
  Coalition& coalition;
  Rng& fakeRng;  ///< fabricated-ID stream (the legacy makeForgedBeacon stream)
  BeaconAdversaryStats& stats;
  const BeaconObservables& obs;
};

/// Authors a beacon with a fabricated origin and `prefixLen` fabricated path
/// IDs — one draw pattern (origin first, then prefix entries) kept in one
/// place, so every forging preset stays pinned by the beacon goldens.
[[nodiscard]] BeaconFrame forgeFreshBeacon(const BeaconContext& ctx, std::uint32_t prefixLen);

/// Strategy interface. One instance is created per trial and drives every
/// Byzantine node (ctx.node names the actor), so strategies may hold
/// per-trial state (BFS distance fields, per-phase pressure baselines).
/// Defaults are the honest-looking behaviour: relay everything, author
/// nothing — BeaconAdversary{} is the "none" profile.
class BeaconAdversary {
 public:
  virtual ~BeaconAdversary() = default;

  /// Iteration boundary (the Lines 5-11 activation slot): Byzantine ctx.node
  /// may author one beacon to broadcast into the opening window. Return true
  /// with `forged` filled to send, false to stay silent this iteration.
  virtual bool forgeBeacon(const BeaconContext& ctx, BeaconFrame& forged) {
    (void)ctx;
    (void)forged;
    return false;
  }

  /// Byzantine ctx.node received beacon traffic with relay rounds left in
  /// the window. `first` is the delivery the flag semantics would relay.
  virtual BeaconTransit onBeaconRelay(const BeaconContext& ctx, const BeaconSighting& first) {
    (void)ctx;
    (void)first;
    return BeaconTransit::forward();
  }

  /// Whether Byzantine ctx.node originates a continue message this iteration
  /// (the Lines 34-41 slot) — keeping decided honest nodes from quiescing.
  virtual bool spamContinue(const BeaconContext& ctx) {
    (void)ctx;
    return false;
  }

  /// Whether Byzantine ctx.node relays continue traffic it received.
  virtual bool onContinueRelay(const BeaconContext& ctx) {
    (void)ctx;
    return true;
  }
};

}  // namespace bzc
