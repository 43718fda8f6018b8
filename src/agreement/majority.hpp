// Almost-everywhere binary Byzantine agreement via sampling + majority
// (the protocol of [3] sketched in the paper's §1.1).
//
// Each node holds a bit. Per iteration, every honest node samples two nodes
// through random walks of Θ(log n) steps and replaces its bit with the
// majority of {own, sample1, sample2}. O(log n) iterations converge to
// almost-everywhere agreement on a value some good node held, provided
// B = O(√n) and — crucially — nodes know a constant-factor upper bound L on
// log n to size the walks and the iteration count.
//
// The protocol runs as a message-passing workload on the SyncEngine
// (DESIGN.md §6): each sample is a walk token that hops one edge per round,
// records its reverse path in an arena pool, and carries the sampled bit
// back to the origin hop by hop. Byzantine behaviour is pluggable
// (src/adversary/, DESIGN.md §7): the WalkAdversary strategy selected by
// AgreementParams::attack decides what Byzantine nodes do with traversing
// tokens — the default AdaptiveMinority taints every traversing query and
// answers the current honest minority bit, the answer that maximally slows
// convergence. Sample slots whose answer never returns (dropped or misrouted
// by the adversary) fall back to the node's own bit. Rounds are real engine
// rounds and message/bit totals come from the engine's MessageMeter.
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/profile.hpp"
#include "adversary/walk_adversary.hpp"
#include "graph/graph.hpp"
#include "obs/provenance.hpp"
#include "sim/byzantine.hpp"
#include "sim/metrics.hpp"
#include "support/rng.hpp"

namespace bzc {

struct AgreementParams {
  // L is a ln-scale estimate; the mixing time of a d-regular expander is
  // ~log_d n = L / ln d, so factor 1.0 already walks ~2x the mixing time.
  double walkLengthFactor = 1.0;  ///< walk length = ceil(factor * L_u)
  double iterationFactor = 2.0;   ///< iterations  = ceil(factor * L_u)
  double initialOnesFraction = 0.7;  ///< honest inputs: fraction holding 1
  /// Behaviour of the Byzantine set (src/adversary/). The default reproduces
  /// the classic adaptive minority answerer bit-for-bit.
  AgreementAttackProfile attack = AgreementAttackProfile::adaptiveMinority();
  /// Focus node for victim-centric strategies (the declarative runner maps
  /// ScenarioSpec placement.victim here).
  NodeId victim = 0;
};

struct AgreementOutcome {
  std::size_t honestCount = 0;
  std::size_t agreeingWithMajority = 0;  ///< honest nodes ending on the initial honest majority
  double fracAgreeing = 0.0;
  int initialMajority = 1;
  Round totalRounds = 0;  ///< real SyncEngine rounds consumed by the run
  std::uint64_t compromisedSamples = 0;  ///< answered samples the adversary controlled
  std::uint64_t answeredSamples = 0;     ///< sample slots whose answer reached the origin
  AdversaryStats adversary;  ///< what the strategy did (extras-only; not fingerprinted)
  obs::BlameGraph blame;  ///< causal damage attribution (DESIGN.md §14): which
                          ///< Byzantine node compromised/dropped/misrouted which
                          ///< origin's samples, and whose forgeries flipped which
                          ///< local decisions. Collected unconditionally from
                          ///< committed state — diagnostics, never fingerprinted
  MessageMeter meter;  ///< honest walk-token / answer traffic, engine-metered
  std::vector<std::uint8_t> finalValues;  ///< per node; Byzantine entries 0

  /// Definition-style success: at least (1-beta) of honest nodes agree.
  [[nodiscard]] bool almostEverywhere(double beta) const {
    return fracAgreeing >= 1.0 - beta;
  }
};

/// Runs the protocol with per-node estimates L_u of log n (nodes with larger
/// estimates keep iterating after the others freeze, as happens when the
/// estimates come from a counting protocol). Byzantine nodes answer sample
/// queries adversarially. By default the strategy is materialised from
/// params.attack and the Coalition blackboard is trial-local; a caller may
/// inject both — the mixed-coalition path passes a per-trial dispatcher
/// strategy, and the pipeline passes the blackboard the counting stage
/// already wrote to, so subsets collude across stages (DESIGN.md §9).
[[nodiscard]] AgreementOutcome runMajorityAgreement(const Graph& g, const ByzantineSet& byz,
                                                    const std::vector<double>& estimates,
                                                    const AgreementParams& params, Rng& rng,
                                                    WalkAdversary* adversaryOverride = nullptr,
                                                    Coalition* sharedCoalition = nullptr);

/// Convenience overload: every honest node uses the same estimate L.
[[nodiscard]] AgreementOutcome runMajorityAgreement(const Graph& g, const ByzantineSet& byz,
                                                    double uniformEstimate,
                                                    const AgreementParams& params, Rng& rng,
                                                    WalkAdversary* adversaryOverride = nullptr,
                                                    Coalition* sharedCoalition = nullptr);

}  // namespace bzc
