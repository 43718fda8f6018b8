// F2 — Theorem 2 (time bound): rounds grow ~linearly with the number of
// Byzantine nodes at fixed n.
//
// The analysis (Lemma 11) pins the decision phase at the first i whose
// iteration count floor(e^((1-gamma)i)) + 1 exceeds B: each iteration
// blacklists at least one Byzantine beacon forger, so the run length is
// dominated by ~B iterations of O(log n) rounds each — O(B log² n) total.
// The series sweeps B at n = 2048 under the beacon flooder.
//
// Each point aggregates R trials (fresh graph, placement and protocol
// streams per trial) on the ExperimentRunner; the fit runs over per-point
// means. BZC_TRIALS / BZC_THREADS override.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "counting/beacon/protocol.hpp"

int main() {
  using namespace bzc;
  using namespace bzc::bench;

  const NodeId n = 2048;
  experimentHeader(
      "F2 — Theorem 2 runtime: rounds vs number of Byzantine nodes (n = 2048, flooder)",
      "'within budget' marks whether B <= n^(1/2-ξ) (the theorem's tolerance). 'decide\n"
      "rounds' is the round by which 90% of honest nodes decided. Cells aggregate R\n"
      "trials.");

  const std::uint32_t trials = trialCount(5);
  ExperimentRunner runner(threadCount());
  std::cout << "trials/row=" << trials << "  threads=" << runner.threadCount() << "\n\n";

  Table table({"B", "within budget", "decide rounds (p90)", "total rounds", "est mean",
               "frac decided"});
  const double logN = std::log(static_cast<double>(n));
  const double budgetMax = std::pow(static_cast<double>(n), 0.45);

  std::vector<double> bs;
  std::vector<double> decideRounds;
  std::uint64_t row = 0;
  for (std::size_t b : {0ull, 8ull, 16ull, 32ull, 45ull, 64ull, 96ull}) {
    ScenarioSpec spec;
    spec.name = "f2-b" + std::to_string(b);
    spec.graph = {GraphKind::Hnd, n, 8, 0.1};
    spec.placement.kind = b == 0 ? Placement::None : Placement::Random;
    spec.placement.count = b;
    spec.beaconLimits.maxPhase = static_cast<std::uint32_t>(std::ceil(logN)) + 4;
    spec.beaconLimits.maxTotalRounds = 100'000;
    spec.trials = trials;
    spec.masterSeed = rowSeed(0xf2, row++);

    const auto summary = runScenario(runner, spec.name, trials, [&](std::uint32_t index) {
      MaterializedTrial trial = materializeTrial(spec, index);
      BeaconParams params;
      const auto out = runBeaconCounting(trial.graph, trial.byz, BeaconAdversaryProfile::flooder(),
                                         params, spec.beaconLimits, trial.runRng);
      const auto s = summarize(out.result, trial.byz, n);
      // p90 of honest decision rounds.
      std::vector<double> roundsVec;
      for (NodeId u = 0; u < n; ++u) {
        if (trial.byz.contains(u) || !out.result.decisions[u].decided) continue;
        roundsVec.push_back(out.result.decisions[u].round);
      }
      TrialOutcome t = countingTrialOutcome(out.result, trial.byz, n);
      t.extra.set("p90Decide", roundsVec.empty() ? 0.0 : quantile(roundsVec, 0.90));
      t.extra.set("meanEst", s.meanEst);
      return t;
    });

    const double p90 = summary.extras.at("p90Decide").mean;
    if (b > 0) {
      bs.push_back(static_cast<double>(b));
      decideRounds.push_back(p90);
    }
    table.addRow({Table::integer(static_cast<long long>(b)),
                  passFail(static_cast<double>(b) <= budgetMax),
                  distCell(summary.extras.at("p90Decide"), 0), distCell(summary.totalRounds, 0),
                  Table::num(summary.extras.at("meanEst").mean, 2),
                  distPercentCell(summary.fracDecided)});
  }
  table.print(std::cout);

  const LinearFit fit = fitLinear(bs, decideRounds);
  std::cout << "linear fit (B>0): p90 decide round = " << Table::num(fit.slope, 2) << " * B + "
            << Table::num(fit.intercept, 2) << "   (R^2 = " << Table::num(fit.r2, 4) << ")\n";
  // O(B log^2 n) is an *upper* bound; measured growth is monotone but
  // sub-linear because one blacklisted shortestPath removes a whole forged
  // path prefix (fake IDs + the Byzantine origin + nearby relays), so a
  // single iteration can neutralise several Byzantine forgers at once.
  bool monotone = true;
  for (std::size_t i = 1; i < decideRounds.size(); ++i) {
    monotone = monotone && decideRounds[i] >= decideRounds[i - 1] - 1e-9;
  }
  bool bounded = true;
  const double ln2 = logN * logN;
  for (std::size_t i = 0; i < bs.size(); ++i) {
    bounded = bounded && decideRounds[i] <= 10.0 * bs[i] * ln2 + 600.0;
  }
  shapeCheck("decide rounds grow monotonically with B", monotone);
  shapeCheck("decide rounds stay within the O(B log^2 n) bound", bounded);
  shapeCheck("slope positive (more Byzantine nodes => more rounds)", fit.slope > 0.0);
  return shapeCheckExitCode();
}
