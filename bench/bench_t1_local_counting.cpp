// T1 — Theorem 1: the deterministic LOCAL algorithm.
//
// Claim: on any bounded-degree expander with constant vertex expansion, up to
// n^(1-gamma) adversarially placed Byzantine nodes, n - o(n) good nodes
// decide a (gamma/2 * log Delta)-factor approximation of log n within
// O(log n) rounds. The estimate of every Good node (far from Byzantine
// nodes) lies in [dist-to-Byz, diam(G)+1].
//
// Each row now aggregates R independent trials (graph, placement and
// adversary streams all forked per trial) on the ExperimentRunner; cells show
// mean [min,max] over trials. BZC_TRIALS / BZC_THREADS override the defaults.
#include <cmath>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "counting/local/protocol.hpp"
#include "graph/bfs.hpp"

namespace {

using namespace bzc;
using namespace bzc::bench;

struct Scenario {
  const char* attack;
  Placement placement;
  std::unique_ptr<LocalAdversary> (*make)();
};

std::unique_ptr<LocalAdversary> makeFakeWorldDefault() { return makeFakeWorldLocalAdversary({}); }

}  // namespace

int main() {
  experimentHeader(
      "T1 — Theorem 1: deterministic Byzantine counting in LOCAL",
      "Rows reproduce the Theorem 1 guarantee on H(n,8) with B = n^(1-gamma), gamma = 0.55,\n"
      "adversarial placements and the attack strategies the proofs discuss. 'good in\n"
      "[dist,diam+1]' is the fraction of honest nodes >= 2 hops from every Byzantine node\n"
      "whose decision lands in the Theorem 1 window. Cells aggregate R trials.");

  const std::uint32_t trials = trialCount(5);
  ExperimentRunner runner(threadCount());
  std::cout << "trials/row=" << trials << "  threads=" << runner.threadCount() << "\n\n";

  Table table({"n", "attack", "placement", "B", "diam", "rounds", "frac decided", "est mean",
               "est max", "good in [dist,diam+1]", "reasons (inc/mute/ball/cut)"});

  const Scenario scenarios[] = {
      {"honest", Placement::Random, &makeHonestLocalAdversary},
      {"silent", Placement::Random, [] { return makeSilentLocalAdversary(1); }},
      {"conflict", Placement::Random, &makeConflictLocalAdversary},
      {"degree-bomb", Placement::Spread, &makeDegreeBombLocalAdversary},
      {"fake-world", Placement::Surround, &makeFakeWorldDefault},
  };

  bool allRoundsLogarithmic = true;
  bool allGoodInWindow = true;
  for (NodeId n : {256u, 512u, 1024u}) {
    const std::size_t budget = byzantineBudget(n, 0.55);
    for (const auto& sc : scenarios) {
      ScenarioSpec spec;
      spec.name = std::string("t1-") + sc.attack;
      spec.graph = {GraphKind::Hnd, n, 8, 0.1};
      spec.placement.kind = sc.placement;
      spec.placement.count = budget;
      spec.placement.victim = 3;
      spec.placement.moatRadius = 1;
      spec.trials = trials;
      spec.masterSeed = 10 * n + 7;

      const auto summary = runScenario(runner, spec.name, trials, [&](std::uint32_t index) {
        MaterializedTrial trial = materializeTrial(spec, index);
        const std::uint32_t diam = exactDiameter(trial.graph);
        auto adversary = sc.make();
        const LocalParams params;
        const LocalOutcome out = runLocalCounting(trial.graph, trial.byz, *adversary, params,
                                                  trial.runRng, spec.placement.victim);
        const auto est = summarize(out.result, trial.byz, n);

        std::size_t good = 0;
        std::size_t goodInWindow = 0;
        for (NodeId u = 0; u < n; ++u) {
          if (trial.byz.contains(u) || out.stats.distToByz[u] < 2) continue;
          ++good;
          const auto& rec = out.result.decisions[u];
          if (rec.decided && rec.estimate >= out.stats.distToByz[u] &&
              rec.estimate <= diam + 1.0) {
            ++goodInWindow;
          }
        }

        TrialOutcome t;
        t.quality.fracDecided = est.fracDecided;
        t.totalRounds = out.result.totalRounds;
        t.hitRoundCap = out.result.hitRoundCap;
        t.totalMessages = out.result.meter.totalMessages();
        t.totalBits = out.result.meter.totalBits();
        t.resultFingerprint = fingerprint(out.result, n);
        t.extra.set("fracGood", good > 0 ? static_cast<double>(goodInWindow) / good : 1.0);
        t.extra.set("diameter", diam);
        t.extra.set("roundsOk", out.result.totalRounds <= 4 * diam + 16 ? 1.0 : 0.0);
        t.extra.set("meanEst", est.meanEst);
        t.extra.set("maxEst", est.maxEst);
        t.extra.set("incDecisions", static_cast<double>(out.stats.inconsistencyDecisions));
        t.extra.set("muteDecisions", static_cast<double>(out.stats.muteDecisions));
        t.extra.set("ballDecisions", static_cast<double>(out.stats.ballGrowthDecisions));
        t.extra.set("cutDecisions", static_cast<double>(out.stats.sparseCutDecisions));
        return t;
      });

      allGoodInWindow = allGoodInWindow && summary.extras.at("fracGood").mean > 0.99;
      allRoundsLogarithmic = allRoundsLogarithmic && summary.extras.at("roundsOk").min >= 1.0;

      const std::string reasons = Table::num(summary.extras.at("incDecisions").mean, 0) + "/" +
                                  Table::num(summary.extras.at("muteDecisions").mean, 0) + "/" +
                                  Table::num(summary.extras.at("ballDecisions").mean, 0) + "/" +
                                  Table::num(summary.extras.at("cutDecisions").mean, 0);
      table.addRow({Table::integer(n), sc.attack,
                    sc.placement == Placement::Random   ? "random"
                    : sc.placement == Placement::Spread ? "spread"
                                                        : "surround",
                    Table::integer(static_cast<long long>(budget)),
                    Table::num(summary.extras.at("diameter").mean, 1),
                    distCell(summary.totalRounds, 0), distPercentCell(summary.fracDecided),
                    Table::num(summary.extras.at("meanEst").mean, 2),
                    Table::num(summary.extras.at("maxEst").mean, 0),
                    distPercentCell(summary.extras.at("fracGood")), reasons});
    }
  }
  table.print(std::cout);
  shapeCheck("every Good (dist>=2) node decides inside [dist-to-Byz, diam+1]", allGoodInWindow);
  shapeCheck("round complexity stays O(diam) = O(log n)", allRoundsLogarithmic);
  return shapeCheckExitCode();
}
