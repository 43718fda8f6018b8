// Algorithm 2: Byzantine-resilient counting with small messages.
//
// Faithful implementation of the paper's pseudocode (Algorithm 2, §5), with
// the model's synchrony exploited: all nodes start together, so phases and
// iterations are globally aligned and the simulator runs
// phase -> iteration -> round loops while nodes individually decide, exit and
// re-enter exactly as Lines 28-44 prescribe.
//
// Implementation choices (documented in DESIGN.md §4):
//  - Beacons are forwarded during all i+2 rounds of the beacon window (the
//    reach Lemma 8 needs); acceptance into shortestPath is likewise open for
//    the whole window.
//  - Receivers append the *sender's* true ID to the path (the model forbids
//    faking an ID over an edge), so the Line 15 sender check holds by
//    construction.
//  - "Discard all but one" (Line 14) uses an explicit BeaconChoicePolicy.
//  - The blacklist suffix is clamped to >= 1 so the immediate sender is never
//    blacklisted (at the small phases real deployments start from,
//    floor((1-eps)i) is 0, which would disconnect honest nodes; the paper's
//    analysis assumes i large enough that the floor is positive).
#pragma once

#include "adversary/beacon/beacon_adversary.hpp"
#include "adversary/beacon/profile.hpp"
#include "counting/beacon/params.hpp"
#include "counting/common.hpp"
#include "graph/graph.hpp"
#include "obs/provenance.hpp"
#include "sim/byzantine.hpp"
#include "sim/ids.hpp"
#include "support/rng.hpp"

namespace bzc {

/// Introspection beyond CountingResult, used by tests and experiments.
struct BeaconRunStats {
  std::uint32_t lastPhase = 0;              ///< highest phase any node entered
  Round roundsUntilAllDecided = 0;          ///< 0 if some honest node never decided
  bool quiesced = false;                    ///< every node stopped sending
  std::uint64_t beaconsGenerated = 0;       ///< honest activations (Line 5)
  std::uint64_t beaconsForged = 0;          ///< adversarial injections (mirrors adversary stats)
  std::uint64_t blacklistInsertions = 0;    ///< total Line 32 insertions
  std::uint64_t continueMessages = 0;       ///< honest continue originations
  std::vector<std::uint32_t> decidedPhase;  ///< per node; 0 = undecided
  /// What the counting-stage strategy did (extras-only; not fingerprinted).
  BeaconAdversaryStats adversary;
};

struct BeaconOutcome {
  CountingResult result;
  BeaconRunStats stats;
  obs::BlameGraph blame;  ///< causal damage attribution (DESIGN.md §14): which
                          ///< forger/tamperer got which honest id blacklisted,
                          ///< who suppressed whose beacons, who spammed/withheld
                          ///< continues. Collected unconditionally from committed
                          ///< state — diagnostics, never fingerprinted
};

/// Runs Algorithm 2 on g driving Byzantine nodes through a BeaconAdversary
/// strategy (src/adversary/beacon/, DESIGN.md §9). DecisionRecord::estimate
/// is the decided phase i (the protocol's estimate of log n up to the
/// constant factor Definition 2 allows). `coalition`, when non-null, is the
/// trial-shared blackboard — the pipeline passes the same object to both
/// stages so counting- and walk-stage subsets collude.
[[nodiscard]] BeaconOutcome runBeaconCounting(const Graph& g, const ByzantineSet& byz,
                                              BeaconAdversary& adversary,
                                              const BeaconParams& params,
                                              const BeaconLimits& limits, Rng& rng,
                                              Coalition* coalition = nullptr);

/// Profile-driven form: materialises `attack`'s gallery strategy
/// (makeBeaconAdversary) and runs it. A TargetedFlooder profile must name a
/// concrete victim.
[[nodiscard]] BeaconOutcome runBeaconCounting(const Graph& g, const ByzantineSet& byz,
                                              const BeaconAdversaryProfile& attack,
                                              const BeaconParams& params,
                                              const BeaconLimits& limits, Rng& rng);

}  // namespace bzc
