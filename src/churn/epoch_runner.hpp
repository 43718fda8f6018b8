// EpochRunner: the counting→agreement pipeline run continuously over an
// evolving overlay.
//
// One churn trial is a trajectory: epoch 1 runs the scenario's protocol on
// the exact graph/placement materializeTrial would build (so a zero-churn
// schedule reproduces the static pipeline bit-for-bit), then each later
// epoch (a) asks the ChurnModel for an event batch, (b) applies it through
// DynamicOverlay and repairs to d-regularity, and (c) re-runs the protocol
// when the recount cadence says so — otherwise the network keeps operating
// on its stale estimate, and the runner records how stale it got.
//
// Determinism: every stream an epoch touches forks from (masterSeed, trial,
// epoch) — events, overlay repair, spectral probes and the per-epoch
// protocol Rng are all independent tagged forks, so a churn ScenarioSpec is
// bit-identical at any thread count, exactly like the static paths (the
// churn_test thread-invariance suite pins this). Epoch 1's protocol stream
// is the static kProtocolStream fork, which is what makes the zero-churn
// identity exact rather than statistical.
//
// Execution is a depth-bounded software pipeline (DESIGN.md §11) whose depth
// is the trial's worker budget (trialWorkerBudget(), DESIGN.md §5): the
// serial overlay stage (events, repair, snapshot, warm-started gap probe)
// runs ahead while up to `depth` recounts — pure functions of their
// materialised snapshots — execute on pool workers; the estimate/staleness/
// drift fold is a serial finalization pass in epoch order, so every budget
// produces the identical ChurnTrialResult (epoch_pipeline_test pins budget 1
// == budget D, report by report).
//
// Reporting: per-trial aggregates land in TrialOutcome::extra under
// ChurnExtraSlot (deliberately outside fingerprint(), like the adversary
// diagnostics, so the static goldens stay pinned); per-epoch rows are
// available through runChurnTrialDetailed for benches/examples that plot
// n(t), staleness and spectral-gap drift.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/experiment.hpp"

namespace bzc {

/// TrialOutcome::extra slots for churn trials (ExperimentSummary extras).
enum ChurnExtraSlot : std::size_t {
  kChurnEpochs = 0,         ///< epochs simulated
  kChurnRecounts = 1,       ///< epochs that re-ran the protocol
  kChurnFinalN = 2,         ///< live membership after the last epoch
  kChurnGrowth = 3,         ///< finalN / initialN
  kChurnJoins = 4,          ///< total joins applied (honest + Byzantine)
  kChurnLeaves = 5,         ///< total departures applied
  kChurnRewires = 6,        ///< total degree-preserving swaps applied
  kChurnFinalByz = 7,       ///< Byzantine members after the last epoch
  kChurnByzInflation = 8,   ///< finalByz / initialByz (1.0 when static)
  kChurnMeanStaleness = 9,  ///< mean over epochs of |est - ln n(t)| / ln n(t)
  kChurnMaxStaleness = 10,  ///< worst epoch of the same
  kChurnMeanDrift = 11,     ///< mean of |ln n(anchor) - ln n(t)| / ln n(t): the truth's
                            ///< drift since the last recount, net of protocol bias
  kChurnMaxDrift = 12,      ///< worst epoch of the same
  kChurnMeanGap = 13,       ///< mean spectral-gap estimate across epochs
  kChurnGapDrift = 14,      ///< last epoch's gap minus epoch 1's
  kChurnLastAgree = 15,     ///< last recount's fracAgreeing (Agreement/Pipeline; else 0)
  kChurnGapProbeIters = 16, ///< total power iterations the gap probes spent
                            ///< (the Fiedler warm start's saving shows here)
  kChurnExtraSlots = 17,
};

/// Names for the slots above, aligned by index (bench JSON labelling).
[[nodiscard]] const char* churnExtraSlotName(std::size_t slot);

/// One epoch of a churn trial, for benches/examples that want the trajectory.
struct EpochReport {
  std::uint32_t epoch = 0;
  NodeId liveN = 0;
  std::size_t byzCount = 0;
  std::uint32_t joins = 0;
  std::uint32_t leaves = 0;
  std::uint32_t rewires = 0;
  bool recounted = false;
  double estimate = 0.0;     ///< ln-scale estimate the network is operating on
  double staleness = 0.0;    ///< |estimate - ln n(t)| / ln n(t)
  double drift = 0.0;        ///< |ln n(last recount) - ln n(t)| / ln n(t); 0 at recounts
  double spectralGap = 0.0;  ///< spectralGapEstimate of this epoch's overlay
  Round rounds = 0;          ///< protocol rounds spent this epoch (0 between recounts)
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  double fracAgreeing = 0.0;     ///< agreement stage result when recounted (else carries over)
  std::uint64_t fingerprint = 0;  ///< this epoch's protocol-run fingerprint (0 between recounts)
};

struct ChurnTrialResult {
  TrialOutcome outcome;             ///< what the ExperimentRunner aggregates
  std::vector<EpochReport> epochs;  ///< the trajectory behind it
};

/// Full-detail churn trial; pure function of (spec, index). Requires
/// spec.churn.enabled().
[[nodiscard]] ChurnTrialResult runChurnTrialDetailed(const ScenarioSpec& spec,
                                                     std::uint32_t index);

/// The ExperimentRunner entry point: detailed run, trajectory dropped.
[[nodiscard]] TrialOutcome runChurnTrial(const ScenarioSpec& spec, std::uint32_t index);

}  // namespace bzc
