#include "agreement/pipeline.hpp"

#include "adversary/beacon/strategies.hpp"
#include "obs/trace.hpp"

namespace bzc {

PipelineOutcome runCountingThenAgreement(const Graph& g, const ByzantineSet& byz,
                                         const PipelineAdversaries& adversaries,
                                         const PipelineParams& params, Rng& rng) {
  PipelineOutcome out;
  // One blackboard for the whole trial: counting-stage hits and the
  // walk-stage bit lock land on the same Coalition (DESIGN.md §9).
  Coalition coalition;
  Rng countRng = rng.fork(0xc0);
  {
    const obs::ScopedTimer stage("pipeline.counting");
    out.counting = runBeaconCounting(g, byz, adversaries.beacon, params.counting,
                                     params.countingLimits, countRng, &coalition);
  }

  std::vector<double> estimates(g.numNodes(), params.fallbackEstimate);
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    if (byz.contains(u)) continue;
    const DecisionRecord& rec = out.counting.result.decisions[u];
    if (rec.decided) estimates[u] = params.estimateSafetyFactor * rec.estimate;
  }

  Rng agreeRng = rng.fork(0xa9);
  {
    const obs::ScopedTimer stage("pipeline.agreement");
    out.agreement = runMajorityAgreement(g, byz, estimates, params.agreement, agreeRng,
                                         adversaries.walk, &coalition);
  }
  out.totalRounds = out.counting.result.totalRounds + out.agreement.totalRounds;
  out.totalMessages =
      out.counting.result.meter.totalMessages() + out.agreement.meter.totalMessages();
  out.totalBits = out.counting.result.meter.totalBits() + out.agreement.meter.totalBits();
  return out;
}

PipelineOutcome runCountingThenAgreement(const Graph& g, const ByzantineSet& byz,
                                         const BeaconAdversaryProfile& attack,
                                         const PipelineParams& params, Rng& rng) {
  const std::unique_ptr<BeaconAdversary> beacon = makeBeaconAdversary(attack, g, byz);
  return runCountingThenAgreement(g, byz, PipelineAdversaries{*beacon, nullptr}, params, rng);
}

}  // namespace bzc
