// T12 — Algorithm 2 at scale on the serial engine.
//
// The n = 1M rows: Algorithm 2 counting on H(n,8) at one million nodes,
// benign and under the relay suppressor — the byzantine row uses the
// suppressor rather than the flooder because a flooded million-node network
// never decides inside any affordable round cap, while suppression
// terminates at roughly benign cost. One trial per row by default: at this n
// a trial is minutes, and the determinism story means more trials only buy
// placement variance, not confidence in the mechanism.
//
// BZC_TRIALS / BZC_THREADS / BZC_N override the defaults; the nightly runs
// BZC_N=1000000.
#include <chrono>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace bzc;
  using namespace bzc::bench;
  using Clock = std::chrono::steady_clock;

  const NodeId n = nodeCount(1'000'000);
  const std::uint32_t trials = trialCount(1);
  const double logN = std::log(static_cast<double>(n));

  experimentHeader(
      "T12 — counting at scale (n = " + std::to_string(n) + ", H(n,8), serial engine)",
      "Algorithm 2 at n = 1M, one trial per row. The rows track the cost\n"
      "trajectory: rounds and message/bit totals are engine-metered.");

  ExperimentRunner runner(threadCount());
  std::cout << "trials/row=" << trials << "  threads=" << runner.threadCount() << "\n\n";

  Table table({"row", "decided", "ratio", "rounds", "messages", "bits", "wall s"});
  std::uint64_t row = 0;
  double benignDecided = 0;
  double suppressorDecided = 0;

  const struct {
    const char* tag;
    BeaconAdversaryProfile profile;
  } rows[] = {
      {"none", BeaconAdversaryProfile::none()},
      {"suppressor", BeaconAdversaryProfile::suppressor()},
  };
  for (const auto& r : rows) {
    ScenarioSpec spec;
    spec.name = "t12-count-n" + std::to_string(n) + "-" + r.tag;
    spec.graph = {GraphKind::Hnd, n, 8, 0.1};
    spec.placement.kind = Placement::Random;
    spec.byzGamma = 0.55;
    spec.protocol = ProtocolKind::Beacon;
    spec.beaconAdversary = r.profile;
    spec.beaconLimits.maxPhase = static_cast<std::uint32_t>(std::ceil(logN)) + 3;
    spec.beaconLimits.maxTotalRounds = 60'000;
    spec.trials = trials;
    spec.masterSeed = rowSeed(12, row++);
    const auto start = Clock::now();
    const ExperimentSummary s = runScenario(runner, spec);
    const double wall = std::chrono::duration<double>(Clock::now() - start).count();
    table.addRow({r.tag, distPercentCell(s.fracDecided), distCell(s.meanRatio),
                  distCell(s.totalRounds, 0), distCell(s.totalMessages, 0),
                  distCell(s.totalBits, 0), Table::num(wall, 1)});
    if (std::string(r.tag) == "none") benignDecided = s.fracDecided.mean;
    if (std::string(r.tag) == "suppressor") suppressorDecided = s.fracDecided.mean;
  }
  table.print(std::cout);
  shapeCheck("benign counting decides almost everywhere", benignDecided >= 0.9);
  shapeCheck("the suppressor cannot stop decisions at a sublinear budget",
             suppressorDecided >= 0.5);
  return shapeCheckExitCode();
}
