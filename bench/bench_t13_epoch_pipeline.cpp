// T13 — pipelined epoch execution (DESIGN.md §11): the churn runner's
// overlay-evolution stage overlapped with the protocol recounts of earlier
// epochs. The pipeline depth is the trial's worker budget, swept here at
// D = 1, 2, 4 over identical streams.
//
// Two row families, both T10-shaped steady-churn sweeps on the full
// counting->agreement pipeline: recounting every epoch (the recount-dominated
// regime where the pipeline has the most exposed work) and cadence 2 (sparse
// recounts, where non-recount epochs drop their snapshots after the gap
// probe).
// Each row runs its trials one after another on a one-thread runner, with
// budget D installed around each trial (WorkerBudgetScope), so a trial
// occupies at most D threads whatever BZC_THREADS says. Every budget runs the
// *same* rowSeed — the budget only schedules, so the combined fingerprints
// must be bit-identical down the sweep (pinned at test scale by
// tests/epoch_pipeline_test.cpp, checked here at bench scale; like every
// violated shape check, a mismatch makes the bench exit non-zero). 'speedup'
// is wall-clock vs D = 1 on this machine: up to D× when >= D idle cores and
// recounts dominate the epoch loop (D threads recount: D - 1 pool workers
// plus the trial's thread in ThreadPool::wait), <= 1× on a single core,
// where the table shows the future and wait bookkeeping overhead instead.
//
// BZC_TRIALS / BZC_N override; CI smoke runs BZC_N=2048 BZC_TRIALS=2, the
// nightly measures the n = 65536 sweep on 4-core runners.
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "churn/epoch_runner.hpp"
#include "runtime/thread_pool.hpp"

int main() {
  using namespace bzc;
  using namespace bzc::bench;
  using Clock = std::chrono::steady_clock;

  const NodeId n = nodeCount(8192);
  const std::uint32_t epochs = 6;
  const std::uint32_t trials = trialCount(4);

  experimentHeader(
      "T13 — pipelined epochs (n0 = " + std::to_string(n) + ", H(n,8), " +
          std::to_string(epochs) + " epochs, steady churn, worker budget D = 1, 2, 4)",
      "Overlay evolution for epoch e+1..e+D overlaps the recounts of epochs <= e;\n"
      "a serial finalization pass folds recount outputs in epoch order, so every\n"
      "budget is bit-identical to the serial path. Trials run one at a time, each\n"
      "on a budget of D threads. 'speedup' is wall-clock vs D = 1 on this\n"
      "machine; fingerprints must match across the sweep regardless.");

  ExperimentRunner runner(1);
  std::cout << "trials/row=" << trials << "  (one at a time, budget D each)\n\n";

  const struct {
    const char* tag;
    std::uint32_t cadence;
  } families[] = {
      {"recount-every", 1},
      {"cadence-2", 2},
  };
  const unsigned budgets[] = {1, 2, 4};

  bool fingerprintsMatch = true;
  double speedupBest = 0.0;
  Table table({"row", "D", "final n", "stale mean", "agree", "rounds", "wall s", "speedup"});
  std::uint64_t familyIdx = 0;
  for (const auto& family : families) {
    std::uint64_t baseFp = 0;
    double baseWall = 0.0;
    for (const unsigned budget : budgets) {
      ScenarioSpec spec;
      spec.name = "t13-" + std::string(family.tag) + "-n" + std::to_string(n) + "-b" +
                  std::to_string(budget);
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
      // One seed per family: the sweep varies the budget only, never the
      // workload.
      spec.masterSeed = rowSeed(13, familyIdx);

      const auto start = Clock::now();
      const ExperimentSummary s = runScenario(
          runner, spec.name, trials,
          [&spec, budget](std::uint32_t i) {
            const WorkerBudgetScope scope(budget);
            return ExperimentRunner::runTrial(spec, i);
          });
      const double wall = std::chrono::duration<double>(Clock::now() - start).count();
      if (budget == 1) {
        baseFp = s.combinedFingerprint;
        baseWall = wall;
      } else {
        fingerprintsMatch = fingerprintsMatch && s.combinedFingerprint == baseFp;
        if (wall > 0) speedupBest = std::max(speedupBest, baseWall / wall);
      }
      table.addRow({family.tag, Table::integer(budget),
                    Table::num(s.extras.at("finalN").mean, 0),
                    Table::num(s.extras.at("meanStaleness").mean, 3),
                    distPercentCell(s.extras.at("lastAgree")), distCell(s.totalRounds, 0),
                    Table::num(wall, 1),
                    budget == 1 ? std::string("1.00x")
                                : (wall > 0 ? Table::num(baseWall / wall, 2) + "x" : "-")});
    }
    ++familyIdx;
  }
  table.print(std::cout);
  std::cout << "(speedup is hardware-relative; CI smoke and single-core local runs exercise\n"
               " correctness, the nightly 4-core runners measure the overlap win)\n";
  shapeCheck("bit-identical fingerprints at D = 1, 2, 4 in both families", fingerprintsMatch);
  std::cout << "best observed speedup vs D = 1: " << speedupBest << "x\n";
  return shapeCheckExitCode();
}
