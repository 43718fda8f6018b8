// T6 — §1.2: the classic estimators are exact/accurate without Byzantine
// nodes and collapse against a single one.
//
// Three baselines: geometric-max flooding, exponential support estimation,
// spanning-tree converge-cast. For each: benign accuracy, then the damage a
// single Byzantine node does, then the damage at the full B(n) budget. Every
// row aggregates R trials through the declarative ExperimentRunner path
// (fresh graph + placement per trial); BZC_TRIALS / BZC_THREADS override.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "counting/baselines/geometric.hpp"
#include "counting/baselines/spanning_tree.hpp"
#include "counting/baselines/support_estimation.hpp"

int main() {
  using namespace bzc;
  using namespace bzc::bench;

  experimentHeader(
      "T6 — §1.2 baselines: accurate benign, broken by one Byzantine node (n = 1024, H(n,8))",
      "'poisoned' is the fraction of honest nodes whose estimate/ln n left [0.4, 2.5].\n"
      "The spanning-tree baseline is exact benign (ratio 1.000); a single Byzantine\n"
      "internal node suffices to poison the root's count for everyone. Cells aggregate\n"
      "R trials (mean over trials).");

  const NodeId n = 1024;
  const std::size_t budget = byzantineBudget(n, 0.55);
  const std::uint32_t trials = trialCount(5);
  ExperimentRunner runner(threadCount());
  std::cout << "trials/row=" << trials << "  threads=" << runner.threadCount() << "\n\n";

  // The "poisoned" window in QualityWindow terms: within = NOT poisoned.
  const QualityWindow window{0.4, 2.5};

  struct Cell {
    std::string protocol;
    std::string attack;
    std::size_t byzCount = 0;
    ExperimentSummary summary;
  };
  std::vector<Cell> cells;

  for (std::size_t b : {std::size_t{0}, std::size_t{1}, budget}) {
    ScenarioSpec base;
    base.graph = {GraphKind::Hnd, n, 8, 0.1};
    base.placement.kind = b == 0 ? Placement::None : Placement::Random;
    base.placement.count = b;
    base.window = window;
    base.trials = trials;

    {
      ScenarioSpec spec = base;
      spec.name = "t6-geometric";
      spec.protocol = ProtocolKind::GeometricMax;
      spec.geometricAttack = b == 0 ? GeometricAttack::None : GeometricAttack::Inflate;
      spec.masterSeed = 801 + b;
      cells.push_back({"geometric-max", b == 0 ? "none" : "inflate", b, runScenario(runner, spec)});
    }
    {
      ScenarioSpec spec = base;
      spec.name = "t6-support";
      spec.protocol = ProtocolKind::SupportEstimation;
      spec.supportAttack = b == 0 ? SupportAttack::None : SupportAttack::ZeroInject;
      spec.masterSeed = 802 + b;
      cells.push_back({"support-estimation", b == 0 ? "none" : "zero-inject", b, runScenario(runner, spec)});
    }
    {
      ScenarioSpec spec = base;
      spec.name = "t6-tree";
      spec.protocol = ProtocolKind::SpanningTree;
      spec.treeAttack = b == 0 ? TreeAttack::None : TreeAttack::Inflate;
      spec.masterSeed = 803 + b;
      cells.push_back({"spanning-tree", b == 0 ? "none" : "inflate", b, runScenario(runner, spec)});
    }
  }

  Table table({"protocol", "attack", "B", "mean est/ln n", "poisoned", "rounds"});
  bool benignAccurate = true;
  bool oneByzBreaks = true;
  for (const Cell& cell : cells) {
    const double poisoned = 1.0 - cell.summary.fracWithinWindow.mean;
    if (cell.byzCount == 0) benignAccurate = benignAccurate && poisoned < 0.05;
    if (cell.byzCount == 1) oneByzBreaks = oneByzBreaks && poisoned > 0.9;
    table.addRow({cell.protocol, cell.attack,
                  Table::integer(static_cast<long long>(cell.byzCount)),
                  Table::num(cell.summary.meanRatio.mean, 3), Table::percent(poisoned),
                  distCell(cell.summary.totalRounds, 0)});
  }
  table.print(std::cout);
  shapeCheck("all baselines accurate with zero Byzantine nodes", benignAccurate);
  shapeCheck("a single Byzantine node poisons >90% of honest nodes", oneByzBreaks);
  return shapeCheckExitCode();
}
