// p2p_agreement: the paper's §1.1 application end to end — bootstrap a
// peer-to-peer network that knows nothing about its own size into
// almost-everywhere Byzantine agreement.
//
//   ./p2p_agreement [n] [byzantine-count] [seed] [attack]
//
// Stage 1: Byzantine counting (Algorithm 2) gives every honest node a
//          constant-factor estimate of log n — with Byzantine beacon forgery
//          in progress.
// Stage 2: the sampling+majority agreement protocol of [3] runs with each
//          node using *its own* estimate for walk lengths and iteration
//          counts. No global knowledge was ever needed.
//
// `attack` selects the stage-2 walk adversary (src/adversary/): adaptive
// (default), dropper, flipper, tamperer, or hunter.
//
// Both stages execute as message-passing protocols on the SyncEngine; the
// run aggregates R independent trials (BZC_TRIALS / BZC_THREADS override)
// on the ExperimentRunner and reports metered round/message/bit costs.
#include <cmath>
#include <cstdint>
#include <iostream>

#include "bench/bench_common.hpp"
#include "support/knob.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace bzc;
  using namespace bzc::bench;
  const auto n = static_cast<NodeId>(argKnob(argc, argv, 1, "n", 1024, 3, kNoNode - 1));
  const std::size_t byzCount = argKnob(argc, argv, 2, "byz", 8, 0, n);
  const std::uint64_t seed = argKnob(argc, argv, 3, "seed", 11, 0, UINT64_MAX);
  const AgreementAttackProfile attack =
      argc > 4 ? walkAttackProfileByName(argv[4]) : AgreementAttackProfile::adaptiveMinority();
  const double logN = std::log(static_cast<double>(n));

  ScenarioSpec spec;
  spec.name = "p2p-agreement-" + attack.name;
  spec.graph = {GraphKind::Hnd, n, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = byzCount;
  spec.protocol = ProtocolKind::Pipeline;
  spec.beaconAdversary = BeaconAdversaryProfile::flooder();
  spec.pipelineParams.agreement.attack = attack;
  spec.pipelineParams.agreement.initialOnesFraction = 0.65;
  spec.pipelineParams.agreement.walkLengthFactor = 0.5;
  spec.pipelineParams.estimateSafetyFactor = 1.5;
  spec.pipelineParams.countingLimits.maxPhase =
      static_cast<std::uint32_t>(std::ceil(logN)) + 3;
  spec.trials = trialCount(5);
  spec.masterSeed = seed;

  ExperimentRunner runner(threadCount());
  const ExperimentSummary s = runScenario(runner, spec);

  std::cout << "network: H(" << n << ",8), " << byzCount
            << " Byzantine nodes, beacon flooder active, walk adversary: " << attack.name
            << "; " << s.trials << " independent trials on " << runner.threadCount()
            << " threads\n\n";

  std::cout << "=== stage 1: Byzantine counting (beacon flooder active) ===\n";
  std::cout << "  honest nodes decided:   " << distPercentCell(s.fracDecided) << "\n"
            << "  mean estimate (scaled): " << Table::num(s.extras.at("meanEstimate").mean, 2)
            << " (ln n = " << Table::num(logN, 2) << ")\n\n";

  std::cout << "=== stage 2: sampling+majority agreement on the counting estimates ===\n";
  std::cout << "  initial honest split: "
            << Table::percent(spec.pipelineParams.agreement.initialOnesFraction) << " ones\n"
            << "  honest nodes agreeing with the initial majority: "
            << distPercentCell(s.extras.at("fracAgreeing")) << "\n"
            << "  trials reaching almost-everywhere agreement (>=90%): "
            << Table::percent(aeTrialFraction(s), 0) << " of " << s.trials << "\n"
            << "  samples the adversary corrupted (mean): "
            << Table::num(s.extras.at("compromised").mean, 0)
            << " (dropped " << Table::num(s.extras.at("dropped").mean, 0) << ", flipped "
            << Table::num(s.extras.at("flipped").mean, 0) << ", misrouted "
            << Table::num(s.extras.at("misrouted").mean, 0) << ")\n\n";

  std::cout << "=== metered cost (counting + agreement, honest traffic only) ===\n";
  std::cout << "  total rounds:   " << Table::num(s.totalRounds.mean, 0) << " ["
            << Table::num(s.totalRounds.min, 0) << "," << Table::num(s.totalRounds.max, 0)
            << "] (agreement stage: " << Table::num(s.extras.at("agreementRounds").mean, 0) << ")\n"
            << "  total messages: " << Table::num(s.totalMessages.mean, 0) << "\n"
            << "  total bits:     " << Table::num(s.totalBits.mean, 0) << "\n";
  return 0;
}
