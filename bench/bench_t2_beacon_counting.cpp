// T2 — Theorem 2: randomized Byzantine counting with small messages.
//
// Claim: on H(n,d) with up to B(n) = n^(1/2-ξ) adversarially placed
// Byzantine nodes, with probability 1-o(1) at least (1-β)n nodes decide a
// constant-factor estimate of log n in O(B(n) log² n) rounds, and most nodes
// only send small messages. Rows run the flooder and full adversaries at
// B = n^0.45 and report the Definition 2 metrics plus message-size
// accounting (with path fields included — see EXPERIMENTS.md for the
// discussion of the O(log n)-IDs path cost).
//
// Each row aggregates R independent trials (graph, placement and protocol
// streams forked per trial) on the ExperimentRunner; cells show
// mean [min,max]. BZC_TRIALS / BZC_THREADS override the defaults.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "counting/beacon/protocol.hpp"

namespace {

using namespace bzc;
using namespace bzc::bench;

}  // namespace

int main() {
  experimentHeader(
      "T2 — Theorem 2: Byzantine counting with small messages (H(n,8), B = n^0.45)",
      "'in window' counts honest nodes whose decided phase / ln n lies in [0.3, 1.8]\n"
      "(a fixed constant-factor window across all n). 'rounds/bound' compares the round\n"
      "count against 10 * B * ln^2 n. 'msg p99' is the 99th percentile of the largest\n"
      "message (bits) any honest node sent. Cells aggregate R trials.");

  const std::uint32_t trials = trialCount(5);
  ExperimentRunner runner(threadCount());
  std::cout << "trials/row=" << trials << "  threads=" << runner.threadCount() << "\n\n";

  Table table({"n", "attack", "B", "rounds", "rounds/bound", "frac decided", "in window",
               "est mean", "est/ln n", "msg p99 (bits)", "small-msg frac"});

  const QualityWindow window{0.3, 1.8};
  bool windowHolds = true;
  bool roundsBounded = true;
  bool betaShrinks = true;
  double prevUndecidedFrac = 1.0;

  for (NodeId n : {512u, 1024u, 2048u, 4096u, 8192u}) {
    const std::size_t budget = byzantineBudget(n, 0.55);
    const double logN = std::log(static_cast<double>(n));
    for (const auto& attack : {BeaconAdversaryProfile::none(), BeaconAdversaryProfile::flooder(),
                               BeaconAdversaryProfile::full()}) {
      const bool benign = attack.name == "none";

      ScenarioSpec spec;
      spec.name = "t2-" + attack.name;
      spec.graph = {GraphKind::Hnd, n, 8, 0.1};
      spec.placement.kind = benign ? Placement::None : Placement::Random;
      spec.placement.count = benign ? 0 : budget;
      spec.protocol = ProtocolKind::Beacon;
      spec.beaconAdversary = attack;
      spec.beaconLimits.maxPhase = static_cast<std::uint32_t>(std::ceil(logN)) + 3;
      spec.beaconLimits.maxTotalRounds = 60'000;
      spec.window = window;
      spec.trials = trials;
      spec.masterSeed = 100 + n;

      const double bound = 10.0 * std::pow(static_cast<double>(n), 0.45) * logN * logN;
      const auto summary = runScenario(runner, spec.name, trials, [&](std::uint32_t index) {
        MaterializedTrial trial = materializeTrial(spec, index);
        const BeaconOutcome out = runBeaconCounting(trial.graph, trial.byz, spec.beaconAdversary,
                                                    spec.beaconParams, spec.beaconLimits,
                                                    trial.runRng);
        const auto q = evaluateQuality(out.result, trial.byz, n, window);
        const auto est = summarize(out.result, trial.byz, n);

        const auto honest = trial.byz.honestNodes();
        // "Small": header + origin + a path of ~ln n + 8 IDs.
        const std::size_t smallBudget = static_cast<std::size_t>((logN + 9.0) * 64.0);

        TrialOutcome t;
        t.quality = q;
        t.totalRounds = out.result.totalRounds;
        t.hitRoundCap = out.result.hitRoundCap;
        t.totalMessages = out.result.meter.totalMessages();
        t.totalBits = out.result.meter.totalBits();
        t.resultFingerprint = fingerprint(out.result, n);
        t.extra.set("meanEst", est.meanEst);
        t.extra.set("meanRatio", est.meanRatio);
        t.extra.set("msgP99", out.result.meter.maxBitsQuantile(honest, 0.99));
        t.extra.set("smallFrac", out.result.meter.fractionWithin(honest, smallBudget));
        t.extra.set("roundsBound", out.result.totalRounds / bound);
        return t;
      });

      if (!benign) {
        windowHolds = windowHolds && summary.fracWithinWindow.mean > 0.75;
        roundsBounded = roundsBounded && summary.extras.at("roundsBound").max < 1.0;
        if (attack.name == "flooder") {
          const double undecided = 1.0 - summary.fracDecided.mean;
          betaShrinks = betaShrinks && undecided <= prevUndecidedFrac + 0.02;
          prevUndecidedFrac = undecided;
        }
      }
      table.addRow({Table::integer(n), attack.name,
                    Table::integer(static_cast<long long>(benign ? 0 : budget)),
                    distCell(summary.totalRounds, 0),
                    Table::num(summary.extras.at("roundsBound").mean, 3),
                    distPercentCell(summary.fracDecided),
                    distPercentCell(summary.fracWithinWindow),
                    Table::num(summary.extras.at("meanEst").mean, 2),
                    Table::num(summary.extras.at("meanRatio").mean, 3),
                    Table::integer(static_cast<long long>(summary.extras.at("msgP99").mean)),
                    Table::percent(summary.extras.at("smallFrac").mean)});
    }
  }
  table.print(std::cout);
  shapeCheck(">75% of honest nodes decide a constant-factor estimate under attack", windowHolds);
  shapeCheck("rounds stay below 10 * B * ln^2 n", roundsBounded);
  shapeCheck("undecided fraction (beta) shrinks as n grows (flooder)", betaShrinks);
  return shapeCheckExitCode();
}
