// T9 — Model-assumption audit: expansion of the graph families, and the
// Lemma 1 / Lemma 13 robustness of H(n,d) to node removals.
//
// (a) Vertex-expansion estimates across topologies: H(n,d) and Watts-
//     Strogatz small worlds are expanders; rings, tori, trees and barbells
//     are not — exactly the divide between the paper's positive results and
//     its Theorem 3 impossibility.
// (b) Lemma 1/13: removing B = n^(1-gamma) nodes (random or packed) from
//     H(n,d) leaves a connected subgraph of >= n - O(B) nodes that is still
//     an expander — the structural fact both algorithms lean on.
//
// Every row aggregates R trials on the ExperimentRunner: random families are
// re-sampled per trial, and the power-iteration/sampling estimators always
// re-run on fresh streams. BZC_TRIALS / BZC_THREADS override.
#include <cmath>
#include <functional>
#include <iostream>

#include "bench_common.hpp"
#include "graph/bfs.hpp"
#include "graph/expansion.hpp"

namespace {

using namespace bzc;
using namespace bzc::bench;

}  // namespace

int main() {
  const std::uint32_t trials = trialCount(4);
  ExperimentRunner runner(threadCount());
  std::uint64_t row = 0;

  experimentHeader(
      "T9a — vertex expansion across graph families (n ~ 1024)",
      "h upper bound: Fiedler-sweep estimate of min |Out(S)|/|S|; gap: spectral gap of\n"
      "the lazy walk. The algorithms assume constant h; Theorem 3 shows h -> 0 kills\n"
      "counting. Cells aggregate R trials (random families re-sampled per trial).");
  std::cout << "trials/row=" << trials << "  threads=" << runner.threadCount() << "\n\n";

  struct Family {
    std::string name;
    std::function<Graph(Rng&)> make;  ///< trial stream -> graph
  };
  const Family families[] = {
      {"H(1024,8)", [](Rng& r) { return hnd(1024, 8, r); }},
      {"H(1024,12)", [](Rng& r) { return hnd(1024, 12, r); }},
      {"config-model(1024,8)", [](Rng& r) { return configurationModel(1024, 8, r); }},
      {"watts-strogatz(1024,4,0.2)", [](Rng& r) { return wattsStrogatz(1024, 4, 0.2, r); }},
      {"ring(1024)", [](Rng&) { return ring(1024); }},
      {"torus(32x32)", [](Rng&) { return torus2d(32, 32); }},
      {"binary-tree(1023)", [](Rng&) { return binaryTree(1023); }},
      {"barbell(512+512, 2 bridges)", [](Rng& r) { return barbell(512, 8, 2, r); }},
  };

  Table table({"family", "h upper bound", "sampled h bound", "spectral gap", "diam (approx)"});
  double hExpander = 0;
  double hRing = 1;
  for (const Family& f : families) {
    const std::uint64_t seed = rowSeed(9, row++);
    const auto summary = runScenario(runner, "t9a-" + f.name, trials, [&](std::uint32_t index) {
      const Rng trialRng = Rng(seed).fork(index);
      Rng graphRng = trialRng.fork(1);
      const Graph g = f.make(graphRng);
      Rng sweepRng = trialRng.fork(2);
      const SweepCut cut = fiedlerSweep(g, 200, sweepRng);
      Rng sampleRng = trialRng.fork(3);
      const double sampled = sampledExpansionUpperBound(g, 100, sampleRng);
      Rng gapRng = trialRng.fork(4);
      const double gap = spectralGapEstimate(g, 200, gapRng);
      TrialOutcome t;
      t.quality.fracDecided = 1.0;
      t.resultFingerprint = fnv1a64(&cut.expansion, sizeof cut.expansion);
      t.extra.set("expansion", cut.expansion);
      t.extra.set("sampledExpansion", sampled);
      t.extra.set("spectralGap", gap);
      t.extra.set("diameter", static_cast<double>(approxDiameter(g)));
      return t;
    });
    if (f.name == "H(1024,8)") hExpander = summary.extras.at("expansion").mean;
    if (f.name == "ring(1024)") hRing = summary.extras.at("expansion").mean;
    table.addRow({f.name, Table::num(summary.extras.at("expansion").mean, 4),
                  Table::num(summary.extras.at("sampledExpansion").mean, 4),
                  Table::num(summary.extras.at("spectralGap").mean, 4),
                  Table::num(summary.extras.at("diameter").mean, 1)});
  }
  table.print(std::cout);
  shapeCheck("H(n,d) expansion dominates the ring's by >= 10x", hExpander > 10 * hRing);

  experimentHeader(
      "T9b — Lemma 1/13: H(n,d) survives n^(1-gamma) node removals (n = 2048, gamma = 0.55)",
      "After deleting the Byzantine positions, the surviving component keeps\n"
      ">= n - 2|F| - o(n) nodes and near-original expansion — the Good-set guarantee.\n"
      "Cells aggregate R trials (fresh graph and placement per trial).");

  const NodeId n = 2048;
  const std::size_t b = byzantineBudget(n, 0.55);
  Table table2({"removal", "|F|", "giant component", "floor n-2|F|", "pruned honest",
                "h upper bound (giant)"});
  bool lemmaHolds = true;
  for (Placement placement : {Placement::Random, Placement::Ball, Placement::Spread}) {
    ScenarioSpec spec;
    spec.name = std::string("t9b-") + (placement == Placement::Random ? "random"
                                       : placement == Placement::Ball ? "ball"
                                                                      : "spread");
    spec.graph = {GraphKind::Hnd, n, 8, 0.1};
    spec.placement.kind = placement;
    spec.placement.count = b;
    spec.trials = trials;
    spec.masterSeed = rowSeed(9, row++);

    const auto summary = runScenario(runner, spec.name, trials, [&](std::uint32_t index) {
      MaterializedTrial trial = materializeTrial(spec, index);
      const auto honest = trial.byz.honestNodes();
      const auto [sub, map] = trial.graph.inducedSubgraph(honest);
      // Lemma 13 prunes whatever the removal shaves off (ball-packed removals
      // isolate the moated interior); the guarantee is about the giant
      // component, so extract it and sweep that.
      std::vector<NodeId> giant;
      std::vector<char> seen(sub.numNodes(), 0);
      for (NodeId u = 0; u < sub.numNodes(); ++u) {
        if (seen[u]) continue;
        const auto dist = bfsDistances(sub, u);
        std::vector<NodeId> component;
        for (NodeId v = 0; v < sub.numNodes(); ++v) {
          if (dist[v] != kUnreachable) {
            seen[v] = 1;
            component.push_back(v);
          }
        }
        if (component.size() > giant.size()) giant = std::move(component);
      }
      const auto [giantGraph, giantMap] = sub.inducedSubgraph(giant);
      Rng sweepRng = trial.runRng.fork(1);
      const SweepCut cut = fiedlerSweep(giantGraph, 200, sweepRng);
      const double floorSize = static_cast<double>(n) - 2.0 * static_cast<double>(b);
      const bool holds =
          static_cast<double>(giant.size()) >= floorSize && cut.expansion > 0.15;
      TrialOutcome t;
      t.quality.fracDecided = 1.0;
      const std::size_t giantSize = giant.size();
      t.resultFingerprint = fnv1a64(&giantSize, sizeof giantSize);
      t.extra.set("giant", static_cast<double>(giant.size()));
      t.extra.set("floor", floorSize);
      t.extra.set("pruned", static_cast<double>(honest.size() - giant.size()));
      t.extra.set("giantExpansion", cut.expansion);
      t.extra.set("holds", holds ? 1.0 : 0.0);
      return t;
    });

    lemmaHolds = lemmaHolds && summary.extras.at("holds").min >= 1.0;
    table2.addRow({placement == Placement::Random ? "random"
                   : placement == Placement::Ball ? "ball-packed"
                                                  : "spread",
                   Table::integer(static_cast<long long>(b)),
                   distCell(summary.extras.at("giant"), 0),
                   Table::num(summary.extras.at("floor").mean, 0),
                   distCell(summary.extras.at("pruned"), 0),
                   Table::num(summary.extras.at("giantExpansion").mean, 4)});
  }
  table2.print(std::cout);
  shapeCheck("giant component >= n - 2|F| with near-original expansion (all trials)", lemmaHolds);
  return shapeCheckExitCode();
}
