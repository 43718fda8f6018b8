// Quickstart: estimate the size of a peer-to-peer network that contains
// Byzantine nodes, using Algorithm 2 (beacon counting with blacklists).
//
//   ./quickstart [n] [byzantine-count] [seed]
//
// Walks through the whole public API in ~40 lines of user code:
//   1. generate an H(n,d) random regular overlay (the paper's network model)
//   2. place Byzantine nodes adversarially
//   3. run Byzantine-resilient counting against a beacon-forging adversary
//   4. inspect the per-node estimates of log n
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "counting/beacon/protocol.hpp"
#include "graph/generators.hpp"
#include "support/knob.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace bzc;
  const auto n = static_cast<NodeId>(argKnob(argc, argv, 1, "n", 2048, 3, kNoNode - 1));
  const std::size_t byzCount = argKnob(argc, argv, 2, "byz", byzantineBudget(n, 0.55), 0, n);
  const std::uint64_t seed = argKnob(argc, argv, 3, "seed", 42, 0, UINT64_MAX);

  // 1. The overlay: union of d/2 random Hamiltonian cycles — an expander
  //    w.h.p., and the topology Theorem 2 assumes.
  Rng rng(seed);
  const Graph network = hnd(n, /*d=*/8, rng);

  // 2. Adversarially placed Byzantine nodes (they know the protocol, see all
  //    state, and here forge a fresh beacon every iteration).
  Rng placeRng = rng.fork(1);
  const ByzantineSet byz = placeByzantine(
      network, {.kind = Placement::Random, .count = byzCount}, placeRng);

  // 3. Run the counting protocol. Honest nodes know only gamma and their own
  //    degree — no global information.
  BeaconParams params;  // paper defaults: gamma=0.55, delta=0.1, c1=4
  Rng runRng = rng.fork(2);
  const BeaconOutcome outcome = runBeaconCounting(
      network, byz, BeaconAdversaryProfile::flooder(), params, BeaconLimits{}, runRng);

  // 4. Report.
  const double logN = std::log(static_cast<double>(n));
  std::vector<double> estimates;
  for (NodeId u = 0; u < n; ++u) {
    if (!byz.contains(u) && outcome.result.decisions[u].decided)
      estimates.push_back(outcome.result.decisions[u].estimate);
  }
  std::cout << "network: H(" << n << ",8), " << byz.count() << " Byzantine nodes (flooder)\n"
            << "true ln n = " << Table::num(logN, 2) << "\n"
            << "honest nodes decided: " << estimates.size() << " / " << (n - byz.count()) << "\n"
            << "rounds: " << outcome.result.totalRounds
            << ", highest phase: " << outcome.stats.lastPhase
            << ", forged beacons neutralised: " << outcome.stats.beaconsForged << "\n";
  if (!estimates.empty()) {
    std::cout << "estimates (phase units ~ constant * ln n): min "
              << Table::num(quantile(estimates, 0.0), 2) << ", median "
              << Table::num(quantile(estimates, 0.5), 2) << ", max "
              << Table::num(quantile(estimates, 1.0), 2) << '\n';
  }
  return 0;
}
