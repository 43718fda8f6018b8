// T3 — Lemma 2: H(n,d) is locally tree-like at n - O(n^0.8) nodes.
//
// At radius r = log n / (10 log d), all but O(n^0.8) nodes see an exact
// (d-1)-ary tree around them. The table measures the non-tree-like count
// against C * n^0.8 and also reports the radius-2 fraction, whose n-scaling
// (collisions ~ d^4/n) shows why the lemma's radius matters.
//
// Each row aggregates R independently generated H(n,d) graphs on the
// ExperimentRunner (the lemma is a w.h.p. statement — one graph per size was
// a single Bernoulli draw of it). BZC_TRIALS / BZC_THREADS override.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "graph/tree_like.hpp"

namespace {

}  // namespace

int main() {
  using namespace bzc;
  using namespace bzc::bench;

  experimentHeader(
      "T3 — Lemma 2: locally tree-like nodes in H(n,d)",
      "'allowance' is 3 * n^0.8; Lemma 2 requires non-tree-like <= O(n^0.8) at radius\n"
      "r = log n / (10 log d). Cells aggregate R independently sampled graphs.");

  const std::uint32_t trials = trialCount(3);
  ExperimentRunner runner(threadCount());
  std::cout << "trials/row=" << trials << "  threads=" << runner.threadCount() << "\n\n";

  Table table({"n", "d", "radius r", "tree-like", "non-tree-like", "allowance 3n^0.8",
               "within (all trials)", "radius-2 frac"});
  bool allWithin = true;
  std::uint64_t row = 0;
  for (NodeId d : {8u, 12u}) {
    for (NodeId n : {1024u, 4096u, 16384u, 65536u}) {
      ScenarioSpec spec;
      spec.name = "t3-n" + std::to_string(n) + "-d" + std::to_string(d);
      spec.graph = {GraphKind::Hnd, n, d, 0.1};
      spec.placement.kind = Placement::None;
      spec.trials = trials;
      spec.masterSeed = rowSeed(3, row++);

      const std::uint32_t r = treeLikeRadius(n, d);
      const double allowance = 3.0 * std::pow(static_cast<double>(n), 0.8);
      const auto summary = runScenario(runner, spec.name, trials, [&](std::uint32_t index) {
        MaterializedTrial trial = materializeTrial(spec, index);
        const std::size_t treeLike = countTreeLike(trial.graph, r);
        const std::size_t bad = n - treeLike;
        const double frac2 =
            static_cast<double>(countTreeLike(trial.graph, 2)) / static_cast<double>(n);
        TrialOutcome t;
        t.quality.fracDecided = 1.0;
        t.resultFingerprint = fnv1a64(&treeLike, sizeof treeLike);
        t.extra.set("treeLike", static_cast<double>(treeLike));
        t.extra.set("nonTreeLike", static_cast<double>(bad));
        t.extra.set("withinAllowance", static_cast<double>(bad) <= allowance ? 1.0 : 0.0);
        t.extra.set("fracTwoCycles", frac2);
        return t;
      });

      const bool within = summary.extras.at("withinAllowance").min >= 1.0;  // every trial inside
      allWithin = allWithin && within;
      table.addRow({Table::integer(n), Table::integer(d), Table::integer(r),
                    distCell(summary.extras.at("treeLike"), 0),
                    distCell(summary.extras.at("nonTreeLike"), 0), Table::num(allowance, 0),
                    passFail(within), distPercentCell(summary.extras.at("fracTwoCycles"))});
    }
  }
  table.print(std::cout);
  shapeCheck("non-tree-like nodes stay within O(n^0.8) in every trial", allWithin);
  return shapeCheckExitCode();
}
