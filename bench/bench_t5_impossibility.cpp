// T5 — Theorem 3: without expansion, size estimation is impossible.
//
// The proof glues t copies of a graph C_n at a single Byzantine node: nodes
// inside a copy cannot distinguish the execution from one on C_n alone, so
// no algorithm can give > n/2 nodes an approximation of log(nt) with
// non-trivial probability. The table realises the gadget with ring copies
// and shows (a) the gadget's vertex expansion collapses as t grows, and
// (b) the estimates of two protocols stay pinned at the copy size while the
// true log n grows — whereas on H(n,d) the same protocols track n.
//
// Each row aggregates R trials (protocol and sweep streams forked per trial;
// the gadget itself is deterministic) on the ExperimentRunner.
// BZC_TRIALS / BZC_THREADS override.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "counting/baselines/geometric.hpp"
#include "counting/beacon/protocol.hpp"
#include "graph/expansion.hpp"

namespace {

using namespace bzc;

enum : std::size_t { kGeoEst, kBeaconEst, kExpansion, kExtraSlots };

double meanHonestEstimate(const CountingResult& result, const ByzantineSet& byz) {
  double mean = 0;
  std::size_t count = 0;
  for (NodeId u = 0; u < byz.numNodes(); ++u) {
    if (byz.contains(u) || !result.decisions[u].decided) continue;
    mean += result.decisions[u].estimate;
    ++count;
  }
  return count > 0 ? mean / count : 0.0;
}

}  // namespace

int main() {
  using namespace bzc;
  using namespace bzc::bench;

  experimentHeader(
      "T5 — Theorem 3: glued-copies gadget (t rings of 128 nodes sharing one Byzantine hub)",
      "As t doubles, true ln n grows by ln 2 = 0.69 per step, but honest estimates inside\n"
      "a copy cannot move: the hub suppresses everything the far copies would reveal.\n"
      "Cells aggregate R trials. h_upper is the Fiedler-sweep upper bound on the\n"
      "gadget's vertex expansion.");

  const std::uint32_t trials = trialCount(4);
  ExperimentRunner runner(threadCount());
  std::cout << "trials/row=" << trials << "  threads=" << runner.threadCount() << "\n\n";

  const NodeId m = 128;
  Table table({"copies t", "n", "ln n", "h upper bound", "geometric est (ln)",
               "beacon est (phase)"});
  std::vector<double> geoMeans;
  std::vector<double> beaconMeans;
  std::vector<double> lnNs;
  double hUpperLast = 0.0;  // the t = 16 row's expansion bound
  std::uint64_t row = 0;
  for (NodeId t : {1u, 2u, 4u, 8u, 16u}) {
    const Graph g = gluedCopies(ring(m), 0, t);  // deterministic gadget, shared by all trials
    const NodeId n = g.numNodes();
    const ByzantineSet byz(n, {0});
    const std::uint64_t seed = rowSeed(5, row++);

    const auto summary =
        runScenario(runner, "t5-gadget-t" + std::to_string(t), trials, [&](std::uint32_t index) {
          const Rng trialRng = Rng(seed).fork(index);
          Rng geoRng = trialRng.fork(1);
          const auto geo = runGeometricMax(g, byz, GeometricAttack::Suppress, {}, geoRng);
          Rng beaconRng = trialRng.fork(2);
          BeaconLimits limits;
          limits.maxPhase = 40;
          const auto beacon =
              runBeaconCounting(g, byz, BeaconAdversaryProfile::suppressor(), {}, limits, beaconRng)
                  .result;
          Rng sweepRng = trialRng.fork(3);
          const SweepCut cut = fiedlerSweep(g, 200, sweepRng);
          TrialOutcome out = countingTrialOutcome(beacon, byz, n);
          out.extra.assign(kExtraSlots, 0.0);
          out.extra[kGeoEst] = meanHonestEstimate(geo, byz);
          out.extra[kBeaconEst] = meanHonestEstimate(beacon, byz);
          out.extra[kExpansion] = cut.expansion;
          return out;
        });

    geoMeans.push_back(summary.extras[kGeoEst].mean);
    beaconMeans.push_back(summary.extras[kBeaconEst].mean);
    lnNs.push_back(std::log(static_cast<double>(n)));
    hUpperLast = summary.extras[kExpansion].mean;
    table.addRow({Table::integer(t), Table::integer(n),
                  Table::num(std::log(static_cast<double>(n)), 2),
                  Table::num(summary.extras[kExpansion].mean, 4),
                  distCell(summary.extras[kGeoEst]), distCell(summary.extras[kBeaconEst])});
  }
  table.print(std::cout);

  const double lnGrowth = lnNs.back() - lnNs.front();  // ~ ln 16
  const double geoGrowth = std::abs(geoMeans.back() - geoMeans.front());
  const double beaconGrowth = std::abs(beaconMeans.back() - beaconMeans.front());
  std::cout << "true ln n growth over the sweep: " << Table::num(lnGrowth, 2)
            << "; geometric estimate moved " << Table::num(geoGrowth, 2)
            << "; beacon estimate moved " << Table::num(beaconGrowth, 2) << '\n';

  // Control: the same beacon protocol on an expander tracks the same 16x
  // size growth.
  std::vector<double> controlMeans;
  for (NodeId n : {128u, 2048u}) {
    ScenarioSpec spec;
    spec.name = "t5-control-n" + std::to_string(n);
    spec.graph = {GraphKind::Hnd, n, 8, 0.1};
    spec.placement.kind = Placement::None;
    spec.trials = trials;
    spec.masterSeed = rowSeed(5, row++);
    const auto summary = runScenario(runner, spec.name, trials, [&](std::uint32_t index) {
      MaterializedTrial trial = materializeTrial(spec, index);
      const auto out = runBeaconCounting(trial.graph, trial.byz, BeaconAdversaryProfile::none(), {},
                                         {}, trial.runRng);
      TrialOutcome t = countingTrialOutcome(out.result, trial.byz, n);
      t.extra = {meanHonestEstimate(out.result, trial.byz), 0.0, 0.0};
      return t;
    });
    controlMeans.push_back(summary.extras[0].mean);
  }
  std::cout << "control on H(n,8): beacon estimate moved "
            << Table::num(controlMeans[1] - controlMeans[0], 2) << " for the same 16x growth\n";

  shapeCheck("gadget expansion collapses (h upper bound < 0.05 at t = 16)", hUpperLast < 0.05);
  shapeCheck("estimates on the gadget move < 1/2 of true ln n growth",
             geoGrowth < 0.5 * lnGrowth && beaconGrowth < 0.5 * lnGrowth);
  shapeCheck("the expander control tracks n (estimate grows >= 1 phase)",
             controlMeans[1] - controlMeans[0] >= 1.0);
  return 0;
}
