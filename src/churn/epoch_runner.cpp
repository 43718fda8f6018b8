#include "churn/epoch_runner.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "churn/churn_model.hpp"
#include "churn/dynamic_overlay.hpp"
#include "graph/expansion.hpp"
#include "obs/trace.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/thread_pool.hpp"
#include "support/require.hpp"

namespace bzc {

namespace {

// Churn stream tags, forked per (masterSeed, trial, epoch); arbitrary but
// fixed forever, like the kGraphStream family in experiment.cpp. Epoch 1's
// protocol stream is NOT here: it is materializeTrial's own kProtocolStream
// fork, which is what makes zero-churn runs bit-identical to static ones.
constexpr std::uint64_t kChurnEventStream = 0xc4e0;
constexpr std::uint64_t kChurnRepairStream = 0xc4e1;
constexpr std::uint64_t kChurnGapStream = 0xc4e2;
constexpr std::uint64_t kChurnRecountStream = 0xc4e3;

constexpr unsigned kGapIterations = 32;  ///< power-iteration depth of every gap probe

/// ln-scale estimate a recount handed the honest nodes, from the protocol
/// family's own reporting: counting protocols expose mean L_u / ln n through
/// the quality summary; the agreement path reports the mean L it ran with.
double recountEstimate(const ScenarioSpec& spec, const TrialOutcome& outcome, double trueLogN) {
  if (spec.protocol == ProtocolKind::Agreement) return outcome.extra.at("meanEstimate");
  return outcome.quality.meanRatio * trueLogN;
}

double agreementFraction(const ScenarioSpec& spec, const TrialOutcome& outcome) {
  const bool hasAgreement =
      spec.protocol == ProtocolKind::Agreement || spec.protocol == ProtocolKind::Pipeline;
  return hasAgreement ? outcome.extra.at("fracAgreeing") : 0.0;
}

/// One epoch's record as it moves through the pipeline: the overlay stage
/// fills `report`'s membership/churn/gap fields and (when the cadence says
/// recount) dispatches the protocol run; the serial finalization pass folds
/// `out` into the running estimate/staleness state in epoch order.
struct EpochStage {
  EpochReport report;
  double trueLogN = 0.0;
  bool recount = false;
  TrialOutcome out;                ///< recount result, retired from fut
  std::future<TrialOutcome> fut;   ///< valid while the recount is in flight
  /// Child probe buffer for traced trials (DESIGN.md §12): the recount traces
  /// into it (a traced trial runs its recounts inline, on its own thread) and
  /// the serial finalization fold splices it back in epoch order.
  std::unique_ptr<obs::TrialTrace> trace;
};

}  // namespace

// Pipelined epoch execution (DESIGN.md §11). The trial runs as two stages:
//
//   overlay stage (serial, this thread): churn events -> repair -> snapshot
//     -> spectral-gap probe. Inherently sequential — each epoch's overlay is
//     the previous epoch's plus one event batch.
//   recount stage (parallel, pool workers and then this thread):
//     runProtocolTrial on a finished snapshot. A pure function of (epochSpec,
//     snapshot, per-epoch forked Rng), so recounts of different epochs are
//     mutually independent.
//
// The recounts run on the trial's pool (trialPool(), DESIGN.md §5): the
// overlay stage runs through every epoch without waiting, submitting each
// recount; then this thread retires the futures in epoch order through
// ThreadPool::wait, which runs still-queued recounts (this trial's or
// another's) here. Every fold that *reads* recount outputs (estimate,
// staleness, drift, the fingerprint chain, the totals) is deferred to a
// serial finalization pass over the stages in epoch order, which is what
// makes the pipelined schedule bit-identical to the sequential one on any
// pool. On the inline pool (traced trials, calls outside a runner) submit()
// runs each recount on this thread before the next epoch starts.
ChurnTrialResult runChurnTrialDetailed(const ScenarioSpec& spec, std::uint32_t index) {
  BZC_REQUIRE(spec.churn.enabled(), "runChurnTrial needs an enabled ChurnSchedule");
  BZC_REQUIRE(spec.churn.epochs >= 1, "churn schedule needs at least one epoch");
  BZC_REQUIRE(spec.churn.recountEvery >= 1, "recount cadence must be >= 1");

  // Epoch 1 is exactly the static trial: same graph, placement and protocol
  // streams. Later epochs fork their own streams per (trial, epoch) below.
  MaterializedTrial initial = materializeTrial(spec, index);
  const Rng trialRng = Rng(spec.masterSeed).fork(index);  // same derivation as materializeTrial
  const Rng eventBase = trialRng.fork(kChurnEventStream);
  const Rng repairBase = trialRng.fork(kChurnRepairStream);
  const Rng gapBase = trialRng.fork(kChurnGapStream);
  const Rng recountBase = trialRng.fork(kChurnRecountStream);

  DynamicOverlay overlay(initial.graph, initial.byz, spec.graph.degree);
  const double initialN = static_cast<double>(overlay.liveCount());
  const double initialByz = static_cast<double>(overlay.byzCount());
  std::unique_ptr<ChurnModel> model =
      spec.churn.kind != ChurnModelKind::None ? makeChurnModel(spec.churn) : nullptr;

  double gapSum = 0.0;
  double firstGap = 0.0, lastGap = 0.0;
  std::uint64_t joins = 0, leaves = 0, rewires = 0;

  std::vector<EpochStage> stages(spec.churn.epochs);
  ThreadPool& pool = trialPool();
  // If the trial unwinds early, every recount still in flight is retired
  // before the stages go; their own errors yield to the one unwinding.
  struct RetireInFlight {
    ThreadPool& pool;
    std::vector<EpochStage>& stages;
    ~RetireInFlight() {
      for (EpochStage& stage : stages) {
        if (!stage.fut.valid()) continue;
        try {
          (void)pool.wait(stage.fut);
        } catch (...) {
        }
      }
    }
  } retire{pool, stages};

  // Trace probe target (DESIGN.md §12). The overlay stage below runs on this
  // thread, so its spans/counters emit straight into the trial buffer;
  // recounts get child buffers (EpochStage::trace) spliced at the fold.
  obs::TrialTrace* const trace = obs::currentTrace();

  // Churn-level blame (rejoin lineage), collected serially on the overlay
  // stage in global-id space and merged into the trial's graph at the fold.
  obs::BlameGraph churnBlame;

  for (std::uint32_t epoch = 1; epoch <= spec.churn.epochs; ++epoch) {
    EpochStage& stage = stages[epoch - 1];
    EpochReport& report = stage.report;
    report.epoch = epoch;

    if (epoch > 1 && model) {
      const std::int64_t repairT0 = trace != nullptr ? obs::traceClockNs() : 0;
      Rng eventRng = eventBase.fork(epoch);
      Rng repairRng = repairBase.fork(epoch);
      const ChurnEvents events = model->epochEvents(overlay, epoch, eventRng);
      const std::size_t before = overlay.liveCount();
      ChurnLineage lineage;
      applyChurnEvents(overlay, events, repairRng, &lineage);
      // Whitewashing lineage (DESIGN.md §14): each Byzantine rejoin becomes a
      // blame edge from the laundered identity to the fresh one. Global ids,
      // so no dense remap applies; recorded serially on the overlay stage.
      for (const auto& [oldId, freshId] : lineage.rejoins) {
        churnBlame.add(obs::BlameKind::RejoinLineage,
                       oldId == kNoChurnCause ? obs::kBlameNone : oldId, freshId);
      }
      if (!lineage.rejoins.empty())
        churnBlame.addTotal("churn.byzRejoins", lineage.rejoins.size());
      if (trace != nullptr) trace->span("overlay.repair", repairT0, epoch);
      report.joins = events.honestJoins + events.byzJoins;
      report.leaves = static_cast<std::uint32_t>(
          before + report.joins - overlay.liveCount());  // leaves the floor let through
      report.rewires = events.rewires;
      joins += report.joins;
      leaves += report.leaves;
      rewires += report.rewires;
    }

    // Materialise this epoch's snapshot. Epoch 1 reuses the already-built
    // static trial verbatim (the overlay round-trip is identity there, but
    // handing the protocol the original objects keeps that fact structural).
    // A recount epoch's snapshot moves into its recount, which frees it; any
    // other epoch's is dropped after the gap probe.
    OverlaySnapshot snap;
    const std::int64_t snapT0 = trace != nullptr ? obs::traceClockNs() : 0;
    if (epoch == 1) {
      snap.graph = std::move(initial.graph);
      snap.byz = std::move(initial.byz);
    } else {
      snap = overlay.snapshot();
    }
    const NodeId liveN = snap.graph.numNodes();
    stage.trueLogN = std::log(static_cast<double>(liveN));
    report.liveN = liveN;
    report.byzCount = snap.byz.count();
    if (trace != nullptr) {
      trace->span("overlay.snapshot", snapT0, epoch);
      trace->counter("churn.liveN", static_cast<double>(liveN), epoch);
      trace->counter("churn.byzCount", static_cast<double>(report.byzCount), epoch);
    }

    // Each probe draws its random start from its own per-epoch stream.
    Rng gapRng = gapBase.fork(epoch);
    const std::int64_t gapT0 = trace != nullptr ? obs::traceClockNs() : 0;
    report.spectralGap = spectralGapEstimate(snap.graph, kGapIterations, gapRng);
    if (trace != nullptr) trace->span("epoch.gapProbe", gapT0, epoch);
    gapSum += report.spectralGap;
    lastGap = report.spectralGap;
    if (epoch == 1) firstGap = report.spectralGap;

    stage.recount = (epoch - 1) % spec.churn.recountEvery == 0;
    if (stage.recount) {
      ScenarioSpec epochSpec = spec;
      // Node indices are dense per epoch; configured focus nodes must stay
      // in range when the overlay shrinks below them (the root additionally
      // falls back to an honest node inside runProtocolTrial if Byzantine).
      epochSpec.placement.victim =
          std::min<NodeId>(spec.placement.victim, liveN > 0 ? liveN - 1 : 0);
      epochSpec.treeParams.root =
          std::min<NodeId>(spec.treeParams.root, liveN > 0 ? liveN - 1 : 0);
      Rng protoRng = epoch == 1 ? std::move(initial.runRng) : recountBase.fork(epoch);
      if (trace != nullptr) {
        stage.trace = std::make_unique<obs::TrialTrace>();
        stage.trace->scenario = trace->scenario;
        stage.trace->trial = trace->trial;
      }
      // The task owns its inputs. Only a traced trial has a child buffer,
      // and it runs its recounts inline (DESIGN.md §5).
      stage.fut = pool.submit([es = std::move(epochSpec), snap = std::move(snap),
                               rng = std::move(protoRng), childTrace = stage.trace.get()]() mutable {
        // The child scope shadows whatever buffer the running thread has.
        const obs::TraceScope scope(childTrace);
        const obs::ScopedTimer timer("epoch.recount");
        TrialOutcome o = runProtocolTrial(es, snap.graph, snap.byz, std::move(rng));
        // Blame edges carry dense per-epoch node ids; remap to global overlay
        // ids, then free the snapshot, so snapshot memory is bounded by the
        // unfinished recounts (DESIGN.md §11). Epoch 1's empty map is the
        // identity, keeping zero-churn blame bit-identical to the static path.
        o.blame.remapNodes(snap.denseToId);
        snap = OverlaySnapshot{};
        return o;
      });
    }
  }
  for (EpochStage& stage : stages) {
    if (stage.fut.valid()) stage.out = pool.wait(stage.fut);
  }

  // Serial finalization: fold recount outputs and the estimate/staleness/
  // drift chain in epoch order — identical arithmetic, identical order, on
  // any pool.
  ChurnTrialResult result;
  result.epochs.reserve(spec.churn.epochs);
  const std::int64_t foldT0 = trace != nullptr ? obs::traceClockNs() : 0;
  TrialOutcome& total = result.outcome;
  bool haveFingerprint = false;
  double estimate = 0.0;       // ln-scale estimate the network currently runs on
  double anchorLogN = 0.0;     // ln n at the last recount (drift reference)
  double lastAgree = 0.0;
  double stalenessSum = 0.0, stalenessMax = 0.0;
  double driftSum = 0.0, driftMax = 0.0;
  std::uint32_t recounts = 0;
  for (EpochStage& stage : stages) {
    EpochReport& report = stage.report;
    const double trueLogN = stage.trueLogN;
    if (stage.recount) {
      const TrialOutcome& out = stage.out;
      ++recounts;
      report.recounted = true;
      report.rounds = out.totalRounds;
      report.messages = out.totalMessages;
      report.bits = out.totalBits;
      report.fingerprint = out.resultFingerprint;
      estimate = recountEstimate(spec, out, trueLogN);
      anchorLogN = trueLogN;
      lastAgree = agreementFraction(spec, out);

      total.quality = out.quality;
      total.totalRounds += out.totalRounds;
      total.totalMessages += out.totalMessages;
      total.totalBits += out.totalBits;
      total.hitRoundCap = total.hitRoundCap || out.hitRoundCap;
      // Keyed sums in epoch order: schedule-invariant like the rest of the fold.
      total.blame.merge(out.blame);
      if (!haveFingerprint) {
        // First recount seeds the fold, so a single-epoch schedule carries
        // the static path's fingerprint through unchanged.
        total.resultFingerprint = out.resultFingerprint;
        haveFingerprint = true;
      } else {
        total.resultFingerprint =
            fnv1a64(&out.resultFingerprint, sizeof out.resultFingerprint,
                    total.resultFingerprint);
      }
    }
    report.estimate = estimate;
    report.staleness = trueLogN > 0.0 ? std::abs(estimate - trueLogN) / trueLogN : 0.0;
    report.drift = trueLogN > 0.0 ? std::abs(anchorLogN - trueLogN) / trueLogN : 0.0;
    report.fracAgreeing = lastAgree;
    stalenessSum += report.staleness;
    stalenessMax = std::max(stalenessMax, report.staleness);
    driftSum += report.drift;
    driftMax = std::max(driftMax, report.drift);
    if (trace != nullptr) {
      // Children splice back here, in epoch order, tagged with their epoch as
      // the lane — a serial point, so the merged event order is a pure
      // function of the trial.
      if (stage.trace != nullptr) trace->splice(std::move(*stage.trace), report.epoch);
      trace->counter("epoch.estimate", report.estimate, report.epoch);
      trace->counter("epoch.staleness", report.staleness, report.epoch);
      trace->counter("epoch.drift", report.drift, report.epoch);
    }
    result.epochs.push_back(report);
  }
  if (trace != nullptr) trace->span("epoch.finalize", foldT0, spec.churn.epochs);
  total.blame.merge(churnBlame);

  const double epochsRun = static_cast<double>(spec.churn.epochs);
  // Joins count honest and Byzantine members, rewires degree-preserving
  // swaps. Staleness is |estimate - ln n(t)| / ln n(t) per epoch; drift is
  // the same for ln n at the last recount (the truth's drift net of protocol
  // bias). gapDrift is the last epoch's spectral gap minus epoch 1's.
  NamedValues<double>& x = total.extra;
  x.set("epochs", epochsRun);
  x.set("recounts", static_cast<double>(recounts));
  x.set("finalN", static_cast<double>(overlay.liveCount()));
  x.set("growth", static_cast<double>(overlay.liveCount()) / initialN);
  x.set("joins", static_cast<double>(joins));
  x.set("leaves", static_cast<double>(leaves));
  x.set("rewires", static_cast<double>(rewires));
  x.set("finalByz", static_cast<double>(overlay.byzCount()));
  x.set("byzInflation",
        initialByz > 0.0 ? static_cast<double>(overlay.byzCount()) / initialByz : 1.0);
  x.set("meanStaleness", stalenessSum / epochsRun);
  x.set("maxStaleness", stalenessMax);
  x.set("meanDrift", driftSum / epochsRun);
  x.set("maxDrift", driftMax);
  x.set("meanGap", gapSum / epochsRun);
  x.set("gapDrift", lastGap - firstGap);
  x.set("lastAgree", lastAgree);  // 0 unless the protocol runs agreement
  return result;
}

TrialOutcome runChurnTrial(const ScenarioSpec& spec, std::uint32_t index) {
  return runChurnTrialDetailed(spec, index).outcome;
}

}  // namespace bzc
