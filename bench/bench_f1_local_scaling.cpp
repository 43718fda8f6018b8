// F1 — Theorem 1 (time bound): Algorithm 1 finishes in O(log n) rounds.
//
// Series: benign runs across n; rounds-to-quiescence and mean estimate are
// fit against ln n. Theorem 1 says both are Θ(log n) (≈ the diameter); a
// linear fit with high R² and the diameter column tracking the rounds column
// reproduce the figure.
//
// Each point aggregates R trials (fresh graph per trial) on the
// ExperimentRunner; the fit runs over per-point means.
// BZC_TRIALS / BZC_THREADS override.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "counting/local/protocol.hpp"
#include "graph/bfs.hpp"

int main() {
  using namespace bzc;
  using namespace bzc::bench;

  experimentHeader("F1 — Theorem 1 scaling: rounds vs log n (benign, H(n,8))",
                   "Algorithm 1 is time-optimal: decisions happen at ~diam(G)+1 = Θ(log n).\n"
                   "Cells aggregate R trials.");

  const std::uint32_t trials = trialCount(5);
  ExperimentRunner runner(threadCount());
  std::cout << "trials/row=" << trials << "  threads=" << runner.threadCount() << "\n\n";

  Table table({"n", "ln n", "diam", "rounds", "est mean", "est/ln n"});
  std::vector<double> logNs;
  std::vector<double> rounds;
  std::uint64_t row = 0;
  for (NodeId n : {128u, 256u, 512u, 1024u, 2048u, 4096u, 8192u}) {
    ScenarioSpec spec;
    spec.name = "f1-n" + std::to_string(n);
    spec.graph = {GraphKind::Hnd, n, 8, 0.1};
    spec.placement.kind = Placement::None;
    spec.trials = trials;
    spec.masterSeed = rowSeed(0xf1, row++);

    const auto summary = runScenario(runner, spec.name, trials, [&](std::uint32_t index) {
      MaterializedTrial trial = materializeTrial(spec, index);
      auto adversary = makeHonestLocalAdversary();
      LocalParams params;
      // Spectral checks cost O(view * iters) per node per round; the benign
      // series only needs the ball-growth check (T8 ablates this choice).
      params.checks.spectralEnabled = n <= 512;
      const auto out = runLocalCounting(trial.graph, trial.byz, *adversary, params, trial.runRng);
      const auto s = summarize(out.result, trial.byz, n);
      TrialOutcome t = countingTrialOutcome(out.result, trial.byz, n);
      t.extra.set("diameter", static_cast<double>(exactDiameter(trial.graph)));
      t.extra.set("meanEst", s.meanEst);
      return t;
    });

    const double logN = std::log(static_cast<double>(n));
    logNs.push_back(logN);
    rounds.push_back(summary.totalRounds.mean);
    table.addRow({Table::integer(n), Table::num(logN, 2),
                  Table::num(summary.extras.at("diameter").mean, 1),
                  distCell(summary.totalRounds, 1),
                  Table::num(summary.extras.at("meanEst").mean, 2),
                  Table::num(summary.extras.at("meanEst").mean / logN, 3)});
  }
  table.print(std::cout);

  const LinearFit fit = fitLinear(logNs, rounds);
  std::cout << "linear fit: rounds = " << Table::num(fit.slope, 3) << " * ln n + "
            << Table::num(fit.intercept, 3) << "   (R^2 = " << Table::num(fit.r2, 4) << ")\n";
  // Rounds are integer-valued (4..8 across the sweep), so the fit carries
  // quantisation noise even after per-point averaging; 0.85 is the
  // meaningful linearity bar here.
  shapeCheck("rounds grow linearly in log n (R^2 > 0.85)", fit.r2 > 0.85);
  shapeCheck("slope is a small constant (< 2 rounds per ln-unit)", fit.slope < 2.0);
  return shapeCheckExitCode();
}
