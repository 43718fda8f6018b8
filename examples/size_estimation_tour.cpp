// size_estimation_tour: every size estimator in the library on the same
// network, without and with Byzantine nodes — the paper's §1.2 story told
// by one binary.
//
//   ./size_estimation_tour [n] [seed]
//
// Order of appearance mirrors the paper: the classic estimators (exact or
// sharp when everyone is honest, destroyed by a single liar), then the two
// Byzantine-resilient algorithms, which pay a constant-factor loss in
// exchange for surviving n^(1-gamma) adversarial nodes.
//
// Every cell aggregates R independent trials (fresh graph, placement and
// protocol streams per trial) on the ExperimentRunner, all declaratively
// through ScenarioSpec. BZC_TRIALS / BZC_THREADS override.
#include <cmath>
#include <iostream>

#include "bench/bench_common.hpp"
#include "support/knob.hpp"
#include "support/table.hpp"

namespace {

using namespace bzc;
using namespace bzc::bench;

}  // namespace

int main(int argc, char** argv) {
  const auto n = static_cast<NodeId>(argKnob(argc, argv, 1, "n", 1024, 3, kNoNode - 1));
  const std::uint64_t seed = argKnob(argc, argv, 2, "seed", 5, 0, UINT64_MAX);
  const double logN = std::log(static_cast<double>(n));

  const std::uint32_t trials = trialCount(5);
  ExperimentRunner runner(threadCount());

  std::cout << "network: H(" << n << ",8); ln n = " << Table::num(logN, 2) << "; "
            << byzantineBudget(n, 0.55) << " Byzantine nodes when present; " << trials
            << " trials per cell on " << runner.threadCount() << " threads\n\n";
  Table table({"estimator", "benign est (ln-scale)", "under attack", "verdict"});

  std::uint64_t row = 0;
  // Builds the benign/attacked pair for one estimator; `attacked` mutates the
  // spec into its adversarial form. Mean estimate = meanRatio * ln n.
  const auto runPair = [&](const std::string& name, ScenarioSpec spec,
                           const std::function<void(ScenarioSpec&)>& attacked,
                           const std::string& verdict, int attackPrecision) {
    spec.trials = trials;
    spec.graph = {GraphKind::Hnd, n, 8, 0.1};
    spec.placement.kind = Placement::None;
    spec.name = name + "-benign";
    spec.masterSeed = Rng(seed).fork(row++).next();
    const ExperimentSummary benign = runScenario(runner, spec);
    spec.placement.kind = Placement::Random;
    spec.byzGamma = 0.55;
    spec.name = name + "-attacked";
    spec.masterSeed = Rng(seed).fork(row++).next();
    attacked(spec);
    const ExperimentSummary hit = runScenario(runner, spec);
    table.addRow({name, Table::num(benign.meanRatio.mean * logN, 2),
                  Table::num(hit.meanRatio.mean * logN, attackPrecision), verdict});
  };

  {
    ScenarioSpec spec;
    spec.protocol = ProtocolKind::GeometricMax;
    runPair("geometric-max flood", spec,
            [](ScenarioSpec& s) { s.geometricAttack = GeometricAttack::Inflate; },
            "one liar owns the max", 1);
  }
  {
    ScenarioSpec spec;
    spec.protocol = ProtocolKind::SupportEstimation;
    runPair("support estimation", spec,
            [](ScenarioSpec& s) { s.supportAttack = SupportAttack::ZeroInject; },
            "one zero owns the min", 1);
  }
  {
    ScenarioSpec spec;
    spec.protocol = ProtocolKind::SpanningTree;
    runPair("spanning-tree count", spec,
            [](ScenarioSpec& s) { s.treeAttack = TreeAttack::Inflate; },
            "one child inflates the root", 1);
  }
  {
    ScenarioSpec spec;
    spec.protocol = ProtocolKind::Local;
    runPair("Algorithm 1 (LOCAL)", spec,
            [](ScenarioSpec& s) { s.localAdversary = &makeConflictLocalAdversary; },
            "stays in [dist, diam+1]", 2);
  }
  {
    ScenarioSpec spec;
    spec.protocol = ProtocolKind::Beacon;
    spec.beaconLimits.maxPhase = static_cast<std::uint32_t>(std::ceil(logN)) + 3;
    runPair("Algorithm 2 (beacons)", spec,
            [](ScenarioSpec& s) { s.beaconAdversary = BeaconAdversaryProfile::full(); },
            "constant factor, survives B(n)", 2);
  }
  table.print(std::cout);
  std::cout << "\nClassic estimators report ln-scale values; the two algorithms report phase\n"
               "units (a fixed constant times ln n — Definition 2 only asks for a constant-\n"
               "factor estimate). Note the attack columns: baselines explode by orders of\n"
               "magnitude, the resilient algorithms move by ~1 phase.\n";
  return 0;
}
