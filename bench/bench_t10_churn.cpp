// T10 — dynamic networks: continuous recounting under churn (the paper's §1
// motivating setting: "a dynamic distributed network such as a peer-to-peer
// network, where the network size changes continuously").
//
// Every cell evolves one overlay through E epochs under a ChurnModel from
// the gallery (src/churn/) and re-runs the counting->agreement pipeline on
// the recount cadence; between recounts the network operates on its stale
// estimate. The sweep crosses churn model × churn rate × recount cadence and
// reports how far n(t) drifted, how stale the live estimate got (mean/max of
// |est - ln n(t)| / ln n(t) across epochs), expander-health drift (spectral
// gap of each epoch's overlay), and the metered cost of the recounts.
//
// Claims probed: (1) recounting every epoch keeps staleness near the
// protocol's static estimation error regardless of the churn model;
// (2) stretching the cadence trades protocol cost for staleness, worst under
// flash crowds (n jumps between recounts); (3) ByzantineChurn inflates the
// effective budget B(t) while honest membership only drifts — the failure
// mode static placement analyses cannot see.
//
// Cells aggregate R trials (overlay trajectory, events, repair and protocol
// streams all forked per trial/epoch). BZC_TRIALS / BZC_THREADS / BZC_N
// override; JSON rows (BZC_OUTPUT=json) carry the churn extras with names.
#include <cmath>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "churn/epoch_runner.hpp"

int main() {
  using namespace bzc;
  using namespace bzc::bench;

  const NodeId n = nodeCount(512);
  const std::uint32_t epochs = 6;
  const std::uint32_t trials = trialCount(5);

  experimentHeader(
      "T10 — churn gallery: model × rate × recount cadence (n0 = " + std::to_string(n) +
          ", H(n,8), B = 8, " + std::to_string(epochs) + " epochs, pipeline per recount)",
      "'stale' is |est - ln n(t)| / ln n(t): total estimate error (protocol bias +\n"
      "churn). 'drift' is |ln n(anchor) - ln n(t)| / ln n(t): how far the truth moved\n"
      "since the last recount — the part the cadence controls; it is 0 whenever the\n"
      "network recounts every epoch. 'growth' is n(final)/n(0); 'byz x' is Byzantine\n"
      "budget inflation; 'gap drift' is the spectral-gap change of the evolving\n"
      "overlay. Recounts run the full counting->agreement pipeline; costs are\n"
      "engine-metered sums over recounts.");

  ExperimentRunner runner(threadCount());
  std::cout << "trials/cell=" << trials << "  threads=" << runner.threadCount() << "\n\n";

  const auto scheduleFor = [&](ChurnModelKind kind, double rate, std::uint32_t cadence) {
    ChurnSchedule s;
    switch (kind) {
      case ChurnModelKind::Steady: s = ChurnSchedule::steady(epochs, rate, cadence); break;
      case ChurnModelKind::FlashCrowd:
        s = ChurnSchedule::flashCrowd(epochs, /*fraction=*/3.0, /*atEpoch=*/3, cadence);
        s.joinRate = s.leaveRate = rate;  // steady background under the spike
        break;
      case ChurnModelKind::MassExodus:
        s = ChurnSchedule::massExodus(epochs, /*fraction=*/0.5, /*atEpoch=*/3, cadence);
        s.joinRate = s.leaveRate = rate;
        break;
      case ChurnModelKind::ByzantineChurn:
        s = ChurnSchedule::byzantine(epochs, rate, /*rejoinBoost=*/2.0, cadence);
        break;
      case ChurnModelKind::None: break;
    }
    return s;
  };

  Table table({"model", "rate", "cadence", "final n", "growth", "byz x", "stale mean",
               "drift mean", "drift max", "gap drift", "agree", "rounds", "messages"});
  std::uint64_t row = 0;
  const ChurnModelKind models[] = {ChurnModelKind::Steady, ChurnModelKind::FlashCrowd,
                                   ChurnModelKind::MassExodus, ChurnModelKind::ByzantineChurn};
  // staleness[cadence index][model index] at the high rate, for shape checks.
  double staleAtCadence[2][4] = {};
  double byzInflation = 0.0;
  double flashGrowth = 0.0, exodusGrowth = 0.0;

  for (int mi = 0; mi < 4; ++mi) {
    for (const double rate : {0.02, 0.10}) {
      for (int ci = 0; ci < 2; ++ci) {
        const std::uint32_t cadence = ci == 0 ? 1 : 3;
        ScenarioSpec spec;
        spec.name = "t10-" + std::string(churnModelKindName(models[mi])) + "-r" +
                    std::to_string(static_cast<int>(rate * 100)) + "-c" + std::to_string(cadence);
        spec.graph = {GraphKind::Hnd, n, 8, 0.1};
        spec.placement.kind = Placement::Random;
        spec.placement.count = 8;
        spec.protocol = ProtocolKind::Pipeline;
        spec.pipelineParams.agreement.initialOnesFraction = 0.7;
        spec.pipelineParams.agreement.walkLengthFactor = 0.5;
        spec.pipelineParams.estimateSafetyFactor = 1.5;
        spec.pipelineParams.countingLimits.maxPhase =
            static_cast<std::uint32_t>(std::ceil(std::log(static_cast<double>(n)))) + 4;
        spec.churn = scheduleFor(models[mi], rate, cadence);
        spec.trials = trials;
        spec.masterSeed = rowSeed(10, row++);

        const ExperimentSummary s = runScenario(runner, spec);
        table.addRow({churnModelKindName(models[mi]), Table::num(rate, 2),
                      Table::integer(cadence), Table::num(s.extras.at("finalN").mean, 0),
                      Table::num(s.extras.at("growth").mean, 2),
                      Table::num(s.extras.at("byzInflation").mean, 2),
                      Table::num(s.extras.at("meanStaleness").mean, 3),
                      Table::num(s.extras.at("meanDrift").mean, 3),
                      Table::num(s.extras.at("maxDrift").mean, 3),
                      Table::num(s.extras.at("gapDrift").mean, 3),
                      distPercentCell(s.extras.at("lastAgree")), distCell(s.totalRounds, 0),
                      distCell(s.totalMessages, 0)});
        if (rate == 0.10) staleAtCadence[ci][mi] = s.extras.at("maxDrift").mean;
        if (models[mi] == ChurnModelKind::ByzantineChurn && rate == 0.10 && cadence == 1) {
          byzInflation = s.extras.at("byzInflation").mean;
        }
        if (models[mi] == ChurnModelKind::FlashCrowd && rate == 0.02 && cadence == 1) {
          flashGrowth = s.extras.at("growth").mean;
        }
        if (models[mi] == ChurnModelKind::MassExodus && rate == 0.02 && cadence == 1) {
          exodusGrowth = s.extras.at("growth").mean;
        }
      }
    }
  }
  table.print(std::cout);

  double stale1 = 0.0, stale3 = 0.0;
  for (int mi = 0; mi < 4; ++mi) {
    stale1 += staleAtCadence[0][mi];
    stale3 += staleAtCadence[1][mi];
  }
  shapeCheck("stretching the recount cadence costs estimate drift (sum over models, high rate)",
             stale3 > stale1);
  shapeCheck("flash crowds grow the overlay, exoduses shrink it",
             flashGrowth > 1.5 && exodusGrowth < 0.8);
  shapeCheck("ByzantineChurn inflates the effective budget (byz x > 1.2)", byzInflation > 1.2);
  return shapeCheckExitCode();
}
