// T4 — Corollary 1: the benign case of Algorithm 2.
//
// Claim: with no Byzantine nodes the algorithm terminates in O(log n)
// rounds (more precisely O(log² n) total rounds across the O(log n) phases
// of O(log n)-round iterations), w.h.p. Ω(n) nodes decide on ~⌈log n⌉ (in
// base-d phase units) and every node stops sending messages (quiescence).
//
// Each row aggregates R trials (fresh graph and protocol streams per trial)
// on the ExperimentRunner. BZC_TRIALS / BZC_THREADS override.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "counting/beacon/protocol.hpp"

namespace {

enum : std::size_t {
  kMeanEst,
  kSpread,       // max - min decided phase within a trial
  kAllDecided,   // 1.0 when every honest node decided
  kQuiesced,     // 1.0 when the network quiesced
  kRoundsRatio,  // totalRounds / ln^2 n
  kBeacons,
  kContinues,
  kExtraSlots,
};

}  // namespace

int main() {
  using namespace bzc;
  using namespace bzc::bench;

  experimentHeader(
      "T4 — Corollary 1: benign termination of Algorithm 2 (H(n,8))",
      "'phase spread' is max - min decided phase (Remark 2: estimates differ only by a\n"
      "constant). 'rounds/ln² n' should be bounded by a constant across the sweep.\n"
      "Cells aggregate R trials.");

  const std::uint32_t trials = trialCount(5);
  ExperimentRunner runner(threadCount());
  std::cout << "trials/row=" << trials << "  threads=" << runner.threadCount() << "\n\n";

  Table table({"n", "log_d n", "est mean", "phase spread", "all decided", "quiesced", "rounds",
               "rounds/ln^2 n", "beacons", "continue msgs"});
  bool allQuiesced = true;
  bool roundsPolylog = true;
  bool spreadConstant = true;
  std::uint64_t row = 0;
  for (NodeId n : {256u, 512u, 1024u, 2048u, 4096u, 8192u, 16384u}) {
    const double logN = std::log(static_cast<double>(n));
    ScenarioSpec spec;
    spec.name = "t4-n" + std::to_string(n);
    spec.graph = {GraphKind::Hnd, n, 8, 0.1};
    spec.placement.kind = Placement::None;
    spec.trials = trials;
    spec.masterSeed = rowSeed(4, row++);

    const auto summary = runScenario(runner, spec.name, trials, [&](std::uint32_t index) {
      MaterializedTrial trial = materializeTrial(spec, index);
      BeaconParams params;
      const auto out = runBeaconCounting(trial.graph, trial.byz, BeaconAdversaryProfile::none(),
                                         params, {}, trial.runRng);
      const auto s = summarize(out.result, trial.byz, n);
      TrialOutcome t = countingTrialOutcome(out.result, trial.byz, n);
      t.extra.assign(kExtraSlots, 0.0);
      t.extra[kMeanEst] = s.meanEst;
      t.extra[kSpread] = s.maxEst - s.minEst;
      t.extra[kAllDecided] = s.fracDecided == 1.0 ? 1.0 : 0.0;
      t.extra[kQuiesced] = out.stats.quiesced ? 1.0 : 0.0;
      t.extra[kRoundsRatio] = out.result.totalRounds / (logN * logN);
      t.extra[kBeacons] = static_cast<double>(out.stats.beaconsGenerated);
      t.extra[kContinues] = static_cast<double>(out.stats.continueMessages);
      return t;
    });

    allQuiesced = allQuiesced &&
                  summary.extras[kQuiesced].min >= 1.0 && summary.extras[kAllDecided].min >= 1.0;
    roundsPolylog = roundsPolylog && summary.extras[kRoundsRatio].max < 12.0;
    spreadConstant = spreadConstant && summary.extras[kSpread].max <= 2.0;
    table.addRow({Table::integer(n), Table::num(logN / std::log(8.0), 2),
                  Table::num(summary.extras[kMeanEst].mean, 2),
                  Table::num(summary.extras[kSpread].mean, 1),
                  passFail(summary.extras[kAllDecided].min >= 1.0),
                  passFail(summary.extras[kQuiesced].min >= 1.0),
                  distCell(summary.totalRounds, 0),
                  Table::num(summary.extras[kRoundsRatio].mean, 2),
                  distCell(summary.extras[kBeacons], 0),
                  distCell(summary.extras[kContinues], 0)});
  }
  table.print(std::cout);
  shapeCheck("every node decides and the network quiesces (all trials)", allQuiesced);
  shapeCheck("total rounds stay O(log^2 n)", roundsPolylog);
  shapeCheck("decided phases differ by at most a constant (Remark 2)", spreadConstant);
  return 0;
}
