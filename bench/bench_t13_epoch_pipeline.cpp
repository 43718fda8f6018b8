// T13 — pipelined epoch execution (DESIGN.md §11): the churn runner's
// overlay-evolution stage overlapped with the protocol recounts of earlier
// epochs, on the pool of the runner the trial runs on. The runner width is
// swept here at D = 1, 2, 4 over identical streams.
//
// Two row families, both T10-shaped steady-churn sweeps on the full
// counting->agreement pipeline: recounting every epoch (the recount-dominated
// regime where the pipeline has the most exposed work) and cadence 2 (sparse
// recounts, where non-recount epochs drop their snapshots after the gap
// probe).
// Each row runs its trials one after another, each alone on an
// ExperimentRunner(D), so a trial has D threads whatever BZC_THREADS says; a
// one-thread runner folds the trials into the row's summary. Every width
// runs the *same* rowSeed — the width only schedules, so the combined
// fingerprints must be bit-identical down the sweep (pinned at test scale by
// tests/epoch_pipeline_test.cpp, checked here at bench scale; like every
// violated shape check, a mismatch makes the bench exit non-zero).
// Each (family, D) cell is timed kRepeats times, interleaved D = 1, 2, 4,
// 1, 2, 4, ... so a slow stretch of a shared host lands on every width;
// every repetition's fingerprint must equal the first D = 1 run's. 'wall s'
// is the median repetition and 'speedup' is median(D = 1) / median(D) on
// this machine: up to D× when >= D idle cores and recounts dominate the
// epoch loop (D threads recount: D - 1 pool workers plus the trial's thread
// in ThreadPool::wait), <= 1× on a single core, where the table shows the
// future and wait bookkeeping overhead instead.
//
// Under BZC_TRACE the first trial of each cell's first repetition is
// recorded; a traced trial runs its recounts inline (DESIGN.md §5).
//
// BZC_TRIALS / BZC_N override; CI smoke runs BZC_N=2048 BZC_TRIALS=2, the
// nightly measures the n = 65536 sweep on 4-core runners.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "churn/epoch_runner.hpp"
#include "obs/trace.hpp"

int main() {
  using namespace bzc;
  using namespace bzc::bench;
  using Clock = std::chrono::steady_clock;

  const NodeId n = nodeCount(8192);
  const std::uint32_t epochs = 6;
  const std::uint32_t trials = trialCount(4);
  // Timings per (family, D) cell; the table and the JSON rows report the
  // median.
  constexpr int kRepeats = 3;

  experimentHeader(
      "T13 — pipelined epochs (n0 = " + std::to_string(n) + ", H(n,8), " +
          std::to_string(epochs) + " epochs, steady churn, runner width D = 1, 2, 4)",
      "Overlay evolution for epoch e+1..e+D overlaps the recounts of epochs <= e;\n"
      "a serial finalization pass folds recount outputs in epoch order, so every\n"
      "width is bit-identical to the serial path. Trials run one at a time, each\n"
      "alone on a runner of D threads. Each cell is timed " + std::to_string(kRepeats) +
          " times, interleaved across D;\n"
      "'wall s' is the median and 'speedup' is median(D = 1) / median(D) on this\n"
      "machine; fingerprints must match across every run regardless.");

  ExperimentRunner serial(1);
  std::cout << "trials/row=" << trials << "  (one at a time, D threads each)\n\n";

  const struct {
    const char* tag;
    std::uint32_t cadence;
  } families[] = {
      {"recount-every", 1},
      {"cadence-2", 2},
  };
  const unsigned widths[] = {1, 2, 4};
  constexpr std::size_t kWidths = std::size(widths);
  std::unique_ptr<ExperimentRunner> runners[kWidths];
  for (std::size_t b = 0; b < kWidths; ++b) {
    runners[b] = std::make_unique<ExperimentRunner>(widths[b]);
  }

  // BZC_TRACE records the first trial of each cell's first repetition; the
  // other runs re-run the same trials for their timings, and the serial fold
  // never traces (its trials are the one-trial runs).
  obs::ensureEnvTraceConfig();
  const std::shared_ptr<obs::TraceSink> sink = obs::traceSink();
  const std::uint32_t sampleTrials = obs::traceSampleTrials();
  obs::setTraceSink(nullptr);

  bool fingerprintsMatch = true;
  double speedupBest = 0.0;
  Table table({"row", "D", "final n", "stale mean", "agree", "rounds", "wall s", "speedup"});
  std::uint64_t familyIdx = 0;
  for (const auto& family : families) {
    ScenarioSpec specs[kWidths];
    for (std::size_t b = 0; b < kWidths; ++b) {
      ScenarioSpec& spec = specs[b];
      spec.name = "t13-" + std::string(family.tag) + "-n" + std::to_string(n) + "-b" +
                  std::to_string(widths[b]);
      spec.graph = {GraphKind::Hnd, n, 8, 0.1};
      spec.placement.kind = Placement::Random;
      spec.placement.count = 8;
      spec.protocol = ProtocolKind::Pipeline;
      spec.pipelineParams.agreement.initialOnesFraction = 0.7;
      spec.pipelineParams.agreement.walkLengthFactor = 0.5;
      spec.pipelineParams.estimateSafetyFactor = 1.5;
      spec.pipelineParams.countingLimits.maxPhase =
          static_cast<std::uint32_t>(std::ceil(std::log(static_cast<double>(n)))) + 4;
      spec.churn = ChurnSchedule::steady(epochs, /*rate=*/0.06, family.cadence);
      // One seed per family: the sweep varies the width only, never the
      // workload.
      spec.masterSeed = rowSeed(13, familyIdx);
    }

    std::vector<ExperimentSummary> summaries(kWidths);  // each width's first run
    std::vector<double> walls[kWidths];
    std::uint64_t baseFp = 0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      for (std::size_t b = 0; b < kWidths; ++b) {
        const ScenarioSpec& spec = specs[b];
        ExperimentRunner& alone = *runners[b];
        const auto start = Clock::now();
        ExperimentSummary s = serial.runCustom(spec.name, trials, [&](std::uint32_t i) {
          if (sink && rep == 0 && i == 0) obs::setTraceSink(sink, sampleTrials);
          TrialOutcome t = alone.runCustom(spec.name, 1, [&spec, i](std::uint32_t) {
            return ExperimentRunner::runTrial(spec, i);
          }).perTrial.front();
          obs::setTraceSink(nullptr);
          return t;
        });
        walls[b].push_back(std::chrono::duration<double>(Clock::now() - start).count());
        if (rep == 0 && b == 0) baseFp = s.combinedFingerprint;
        fingerprintsMatch = fingerprintsMatch && s.combinedFingerprint == baseFp;
        if (rep == 0) summaries[b] = std::move(s);
      }
    }

    double baseWall = 0.0;
    for (std::size_t b = 0; b < kWidths; ++b) {
      std::vector<double>& w = walls[b];
      std::sort(w.begin(), w.end());
      const double wall = w[w.size() / 2];
      const ExperimentSummary& s = summaries[b];
      maybeEmitJson(s, wall * 1000.0);
      if (b == 0) {
        baseWall = wall;
      } else if (wall > 0) {
        speedupBest = std::max(speedupBest, baseWall / wall);
      }
      table.addRow({family.tag, Table::integer(widths[b]),
                    Table::num(s.extras.at("finalN").mean, 0),
                    Table::num(s.extras.at("meanStaleness").mean, 3),
                    distPercentCell(s.extras.at("lastAgree")), distCell(s.totalRounds, 0),
                    Table::num(wall, 1),
                    b == 0 ? std::string("1.00x")
                           : (wall > 0 ? Table::num(baseWall / wall, 2) + "x" : "-")});
    }
    ++familyIdx;
  }
  if (sink) obs::setTraceSink(sink, sampleTrials);
  table.print(std::cout);
  std::cout << "(speedup is hardware-relative; CI smoke and single-core local runs exercise\n"
               " correctness, the nightly 4-core runners measure the overlap win)\n";
  shapeCheck("bit-identical fingerprints at D = 1, 2, 4 in both families, every repetition",
             fingerprintsMatch);
  std::cout << "best observed speedup vs D = 1: " << speedupBest << "x\n";
  return shapeCheckExitCode();
}
