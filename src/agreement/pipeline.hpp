// Counting -> agreement composition (the paper's §1.1 application).
//
// "Using the Byzantine counting protocol of this paper as a preprocessing
// step, the [knowledge-of-log n] assumption can be removed." The pipeline
// runs Algorithm 2, hands every honest node its *own* decided estimate
// (estimates differ across nodes by a constant factor — exactly the
// situation the paper argues is fine), scales them by a safety factor, and
// runs the sampling+majority agreement on top. Both stages execute on the
// SyncEngine, so the combined round/message/bit totals are real metered
// costs, not analytic formulas.
#pragma once

#include "agreement/majority.hpp"
#include "counting/beacon/protocol.hpp"

namespace bzc {

struct PipelineParams {
  BeaconParams counting;
  BeaconLimits countingLimits;
  AgreementParams agreement;
  double estimateSafetyFactor = 2.0;  ///< L_u := factor * decided phase
  double fallbackEstimate = 4.0;      ///< for nodes that never decided
};

struct PipelineOutcome {
  BeaconOutcome counting;
  AgreementOutcome agreement;
  Round totalRounds = 0;             ///< counting + agreement engine rounds
  std::uint64_t totalMessages = 0;   ///< honest messages across both stages
  std::uint64_t totalBits = 0;       ///< honest bits across both stages
};

/// Per-trial stage adversaries for the strategy-driven entry point. Both
/// stages run against one Coalition blackboard owned by the pipeline, so a
/// counting-stage subset's hits/bit-lock are visible to the walk-stage
/// subset of the same trial (mixed coalitions, DESIGN.md §9).
struct PipelineAdversaries {
  BeaconAdversary& beacon;  ///< counting-stage behaviour
  WalkAdversary* walk = nullptr;  ///< agreement-stage behaviour; nullptr =
                                  ///< materialise from params.agreement.attack
};

[[nodiscard]] PipelineOutcome runCountingThenAgreement(const Graph& g, const ByzantineSet& byz,
                                                       const BeaconAdversaryProfile& attack,
                                                       const PipelineParams& params, Rng& rng);

/// Strategy-driven form: both stage adversaries are caller-materialised
/// (the mixed-coalition path), sharing one cross-stage Coalition.
[[nodiscard]] PipelineOutcome runCountingThenAgreement(const Graph& g, const ByzantineSet& byz,
                                                       const PipelineAdversaries& adversaries,
                                                       const PipelineParams& params, Rng& rng);

}  // namespace bzc
