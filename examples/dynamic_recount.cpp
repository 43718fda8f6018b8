// dynamic_recount: the motivating scenario of the paper's §1 — peer-to-peer
// networks whose size changes over time ("the works of [5, 4] raised the
// question of designing protocols ... when the network size is not known and
// may even change over time").
//
//   ./dynamic_recount [model] [seed]     model: steady|flash|exodus|byzantine
//
// Built on the churn subsystem (src/churn/, DESIGN.md §8): one overlay
// evolves through epochs under the selected ChurnModel — joins splice into
// the d-regular fabric, departures are repaired by randomized stub pairing,
// the counting pipeline re-runs every recount epoch — instead of the old
// hand-rolled loop that re-generated an independent H(n,d) per epoch. The
// per-epoch table shows n(t), the live estimate, its staleness against
// ln n(t), and the spectral gap of the *same* evolving overlay, averaged
// over R trials (BZC_TRIALS / BZC_THREADS override).
//
// Because the protocol needs no global knowledge, re-estimation is a pure
// re-run: the estimate tracks n(t) with no reconfiguration — and with the
// "byzantine" model the thing growing is the adversary's budget, which is
// why continuous recounting (and not a one-shot count) is the deployable
// primitive.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "churn/epoch_runner.hpp"
#include "support/knob.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace bzc;
  using namespace bzc::bench;
  const std::string modelArg = argc > 1 ? argv[1] : "flash";
  const std::uint64_t seed = argKnob(argc, argv, 2, "seed", 9, 0, UINT64_MAX);

  const std::uint32_t epochs = 6;
  ChurnSchedule schedule;
  if (modelArg == "steady") {
    schedule = ChurnSchedule::steady(epochs, 0.12);
  } else if (modelArg == "flash") {
    // One big join wave landing between recounts (recounts at 1,3,5; crowd at
    // 4): the estimate is stale for exactly one epoch, then recovers.
    schedule = ChurnSchedule::flashCrowd(epochs, 5.0, /*atEpoch=*/4, /*recountEvery=*/2);
    schedule.joinRate = schedule.leaveRate = 0.02;
  } else if (modelArg == "exodus") {
    schedule = ChurnSchedule::massExodus(epochs, 0.6, /*atEpoch=*/3, /*recountEvery=*/2);
    schedule.joinRate = schedule.leaveRate = 0.02;
  } else if (modelArg == "byzantine") {
    schedule = ChurnSchedule::byzantine(epochs, 0.08, /*rejoinBoost=*/2.0);
  } else {
    std::cerr << "unknown model '" << modelArg << "' (steady|flash|exodus|byzantine)\n";
    return 1;
  }

  const NodeId n0 = 512;
  ScenarioSpec spec;
  spec.name = "dynamic-recount-" + modelArg;
  spec.graph = {GraphKind::Hnd, n0, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = byzantineBudget(n0, 0.55);
  spec.protocol = ProtocolKind::Beacon;
  // The path tamperer keeps an active adversary in every epoch without
  // pinning the estimate at the blacklist-exhaustion phase the way the
  // flooder does (see F2's saturation discussion).
  spec.beaconAdversary = BeaconAdversaryProfile::tamperer();
  spec.beaconLimits.maxPhase =
      static_cast<std::uint32_t>(std::ceil(std::log(static_cast<double>(n0)))) + 6;
  spec.churn = schedule;
  spec.trials = trialCount(5);
  spec.masterSeed = Rng(seed).fork(0xd1).next();

  ExperimentRunner runner(threadCount());
  std::cout << "model=" << churnModelKindName(schedule.kind) << "  n0=" << n0
            << "  epochs=" << epochs << "  recount every " << schedule.recountEvery
            << "  trials=" << spec.trials << "  threads=" << runner.threadCount() << "\n\n";

  // Collect full trajectories (thread-safe: slots are per-trial).
  std::vector<ChurnTrialResult> details(spec.trials);
  const ExperimentSummary s = runScenario(
      runner, spec.name, spec.trials,
      [&](std::uint32_t index) {
        ChurnTrialResult r = runChurnTrialDetailed(spec, index);
        TrialOutcome outcome = r.outcome;
        details[index] = std::move(r);
        return outcome;
      },
      churnExtraNames());

  Table table({"epoch", "n(t)", "B(t)", "recount", "est mean", "ln n(t)", "staleness",
               "drift", "spectral gap"});
  bool tracked = true;
  for (std::uint32_t e = 0; e < epochs; ++e) {
    double liveN = 0, byz = 0, est = 0, stale = 0, drift = 0, gap = 0;
    std::uint32_t recounts = 0;
    for (const ChurnTrialResult& r : details) {
      const EpochReport& rep = r.epochs[e];
      liveN += rep.liveN;
      byz += static_cast<double>(rep.byzCount);
      est += rep.estimate;
      stale += rep.staleness;
      drift += rep.drift;
      gap += rep.spectralGap;
      recounts += rep.recounted ? 1 : 0;
    }
    const double R = static_cast<double>(details.size());
    liveN /= R;
    const double logN = std::log(liveN);
    table.addRow({Table::integer(e + 1), Table::num(liveN, 0), Table::num(byz / R, 1),
                  recounts > 0 ? "yes" : "-", Table::num(est / R, 2), Table::num(logN, 2),
                  Table::num(stale / R, 3), Table::num(drift / R, 3), Table::num(gap / R, 4)});
    if (recounts > 0 && stale / R > 0.9) tracked = false;  // a recount should re-anchor
  }
  table.print(std::cout);

  std::cout << "\nfinal n = " << s.extras[kChurnFinalN].mean
            << " (x" << s.extras[kChurnGrowth].mean << ")"
            << ", Byzantine budget x" << s.extras[kChurnByzInflation].mean
            << ", recounts = " << s.extras[kChurnRecounts].mean
            << ", max staleness = " << s.extras[kChurnMaxStaleness].mean << "\n";
  std::cout << "Estimates " << (tracked ? "track" : "FAIL to track")
            << " n(t): no node ever knew n, no configuration was updated between\n"
            << "epochs; counting is a pure function of the live overlay.\n";
  return 0;
}
