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
// Execution is a software pipeline (DESIGN.md §11) on the trial's pool
// (trialPool(), DESIGN.md §5): the serial overlay stage (events, repair,
// snapshot, cold spectral-gap probe) runs through every epoch without
// waiting and submits each recount — a pure function of its epoch's
// snapshot — to the pool; the trial's thread then retires the recounts in
// epoch order, running still-queued ones itself (ThreadPool::wait). The
// estimate/staleness/drift fold is a serial finalization pass in epoch
// order, so every runner width produces the identical ChurnTrialResult
// (epoch_pipeline_test pins width 1 == width D, report by report).
//
// Reporting: per-trial aggregates land in TrialOutcome::extra under the
// names runChurnTrialDetailed sets (deliberately outside fingerprint(), like
// the adversary diagnostics, so the static goldens stay pinned); per-epoch rows are
// available through runChurnTrialDetailed for benches/examples that plot
// n(t), staleness and spectral-gap drift.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/experiment.hpp"

namespace bzc {

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
