// Fixed-seed scenarios whose run fingerprints are pinned as goldens.
//
// The constants in runtime_test.cpp were captured from the pre-SyncEngine
// (hand-rolled round loop) implementations; the migrated protocols must keep
// reproducing them bit-for-bit. Any change to these scenario definitions
// invalidates the goldens — re-capture deliberately, never casually.
#pragma once

#include <cmath>
#include <cstdint>

#include "agreement/pipeline.hpp"
#include "counting/baselines/geometric.hpp"
#include "counting/baselines/spanning_tree.hpp"
#include "counting/baselines/support_estimation.hpp"
#include "counting/beacon/protocol.hpp"
#include "counting/local/protocol.hpp"
#include "graph/generators.hpp"
#include "runtime/fingerprint.hpp"
#include "sim/byzantine.hpp"
#include "support/rng.hpp"

namespace bzc::golden {

inline Graph graph(NodeId n, NodeId d, std::uint64_t tag) {
  Rng rng(0x9e3779b9ULL ^ (tag * 1000003ULL + n * 31ULL + d));
  return hnd(n, d, rng);
}

inline ByzantineSet place(const Graph& g, Placement kind, std::size_t count, std::uint64_t tag,
                          NodeId victim = 3, std::uint32_t moatRadius = 1) {
  PlacementSpec spec;
  spec.kind = kind;
  spec.count = count;
  spec.victim = victim;
  spec.moatRadius = moatRadius;
  Rng rng(0x51ed270ULL ^ tag);
  return placeByzantine(g, spec, rng);
}

inline std::uint64_t beaconFingerprint(BeaconChoicePolicy policy,
                                       const BeaconAdversaryProfile& attack, std::size_t byzCount,
                                       unsigned shards = 1) {
  const NodeId n = 192;
  const Graph g = graph(n, 8, 21);
  const ByzantineSet byz =
      place(g, byzCount > 0 ? Placement::Random : Placement::None, byzCount, 5);
  BeaconParams params;
  params.choice = policy;
  BeaconLimits limits;
  limits.maxPhase = 8;
  limits.maxTotalRounds = 20'000;
  limits.shards = shards;
  Rng rng(4242);
  const BeaconOutcome out = runBeaconCounting(g, byz, attack, params, limits, rng);
  return fingerprint(out.result, n);
}

inline std::uint64_t localFingerprint(LocalAdversary& adversary, Placement placement) {
  const NodeId n = 192;
  const Graph g = graph(n, 8, 22);
  const ByzantineSet byz = place(g, placement, byzantineBudget(n, 0.55), 7);
  LocalParams params;
  Rng rng(777);
  const LocalOutcome out = runLocalCounting(g, byz, adversary, params, rng, /*victim=*/3);
  return fingerprint(out.result, n);
}

inline std::uint64_t geometricFingerprint(GeometricAttack attack) {
  const NodeId n = 128;
  const Graph g = graph(n, 6, 23);
  const ByzantineSet byz = place(g, Placement::Random, 4, 9);
  GeometricParams params;
  Rng rng(31337);
  return fingerprint(runGeometricMax(g, byz, attack, params, rng), n);
}

inline std::uint64_t supportFingerprint(SupportAttack attack) {
  const NodeId n = 128;
  const Graph g = graph(n, 6, 24);
  const ByzantineSet byz = place(g, Placement::Random, 4, 11);
  SupportParams params;
  params.coordinates = 16;
  Rng rng(91);
  return fingerprint(runSupportEstimation(g, byz, attack, params, rng), n);
}

inline std::uint64_t treeFingerprint(TreeAttack attack) {
  const NodeId n = 128;
  const Graph g = graph(n, 6, 25);
  const ByzantineSet byz = place(g, Placement::Random, 4, 13);
  TreeParams params;
  return fingerprint(runSpanningTreeCount(g, byz, attack, params), n);
}

// The agreement goldens below pin the *SyncEngine* implementation (walk-token
// forwarding); they were captured from it at migration time, after the
// statistical-equivalence gates against the oracle-walk implementation
// passed. They guard engine delivery order, token-stream derivation and
// metering — not the pre-refactor RNG sequence, which token forwarding
// necessarily reorders.

inline std::uint64_t agreementFingerprint(std::size_t byzCount, double estimateFactor,
                                          unsigned shards = 1) {
  const NodeId n = 192;
  const Graph g = graph(n, 8, 26);
  const ByzantineSet byz =
      place(g, byzCount > 0 ? Placement::Random : Placement::None, byzCount, 15);
  AgreementParams params;
  params.initialOnesFraction = 0.7;
  params.shards = shards;
  Rng rng(2025);
  const AgreementOutcome out =
      runMajorityAgreement(g, byz, estimateFactor * std::log(static_cast<double>(n)), params, rng);
  return fingerprint(out, n);
}

inline std::uint64_t pipelineFingerprint(const BeaconAdversaryProfile& attack, std::size_t byzCount,
                                         unsigned shards = 1) {
  const NodeId n = 192;
  const Graph g = graph(n, 8, 27);
  const ByzantineSet byz =
      place(g, byzCount > 0 ? Placement::Random : Placement::None, byzCount, 17);
  PipelineParams params;
  params.agreement.initialOnesFraction = 0.7;
  params.agreement.walkLengthFactor = 0.5;
  params.estimateSafetyFactor = 1.5;
  params.countingLimits.maxPhase = 8;
  params.countingLimits.maxTotalRounds = 20'000;
  params.countingLimits.shards = shards;
  params.agreement.shards = shards;
  Rng rng(4243);
  const PipelineOutcome out = runCountingThenAgreement(g, byz, attack, params, rng);
  const std::uint64_t countingFp = fingerprint(out.counting.result, n);
  const std::uint64_t agreementFp = fingerprint(out.agreement, n);
  return fnv1a64(&agreementFp, sizeof agreementFp, countingFp);
}

}  // namespace bzc::golden
