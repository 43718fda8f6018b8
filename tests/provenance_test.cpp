// Tests for the causal-provenance layer (src/obs/provenance.hpp, DESIGN.md
// §14). The contract: blame collection is unconditional and strictly
// observational (goldens bit-identical with attribution exported or not),
// every blame-edge family reconciles bit-for-bit against the protocol-side
// AdversaryStats / BeaconRunStats counters (recorder and counter increment at
// the same program point), and the canonical blame projection is a pure
// function of the trial across runner threads (on which an untraced trial's
// epoch recounts overlap).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/beacon/strategies.hpp"
#include "adversary/walk_adversary.hpp"
#include "churn/schedule.hpp"
#include "golden_scenarios.hpp"
#include "graph/bfs.hpp"
#include "obs/provenance.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "runtime/experiment.hpp"
#include "runtime/fingerprint.hpp"

namespace bzc {
namespace {

using obs::BlameEdge;
using obs::BlameGraph;
using obs::BlameKind;
using obs::kBlameNone;

/// Canonical projection + totals as comparable lines — the blame-graph
/// analogue of obs_test's trace projection (mirrors `tools/run_record.py diff`).
std::vector<std::string> canonLines(const BlameGraph& g) {
  std::vector<std::string> out;
  for (const BlameEdge& e : g.canonical()) {
    std::ostringstream os;
    os << obs::blameKindName(e.kind) << ' ' << e.cause << ' ' << e.victim << ' ' << e.count;
    out.push_back(os.str());
  }
  for (const auto& [name, value] : g.totals()) {
    out.push_back(name + "=" + std::to_string(value));
  }
  return out;
}

/// Golden-style agreement run with a selectable walk attack.
AgreementOutcome runAttackedAgreement(const AgreementAttackProfile& profile) {
  const NodeId n = 192;
  const Graph g = golden::graph(n, 8, 26);
  const ByzantineSet byz = golden::place(g, Placement::Random, 6, 15);
  AgreementParams params;
  params.initialOnesFraction = 0.7;
  params.attack = profile;
  params.victim = 3;
  Rng rng(2025);
  return runMajorityAgreement(g, byz, std::log(static_cast<double>(n)), params, rng);
}

// ---------------------------------------------------------------------------
// Conservation: per strategy, every damage event became exactly one typed
// edge — edge sums equal the strategy's own counters bit-for-bit, and every
// attributed cause is a real Byzantine node.
// ---------------------------------------------------------------------------

TEST(ProvenanceConservation, WalkEdgeSumsMatchAdversaryStatsPerStrategy) {
  const NodeId n = 192;
  const Graph g = golden::graph(n, 8, 26);
  const ByzantineSet byz = golden::place(g, Placement::Random, 6, 15);
  const AgreementAttackProfile profiles[] = {
      AgreementAttackProfile::adaptiveMinority(), AgreementAttackProfile::dropper(),
      AgreementAttackProfile::flipper(),          AgreementAttackProfile::tamperer(),
      AgreementAttackProfile::hunter(2),
  };
  for (const AgreementAttackProfile& profile : profiles) {
    const AgreementOutcome out = runAttackedAgreement(profile);
    const BlameGraph& bl = out.blame;
    const AdversaryStats& adv = out.adversary;
    EXPECT_EQ(bl.kindCount(BlameKind::DroppedQuery), adv.droppedQueries) << profile.name;
    EXPECT_EQ(bl.kindCount(BlameKind::DroppedAnswer), adv.droppedAnswers) << profile.name;
    EXPECT_EQ(bl.kindCount(BlameKind::FlippedAnswer), adv.flippedAnswers) << profile.name;
    EXPECT_EQ(bl.kindCount(BlameKind::MisroutedAnswer), adv.misroutedAnswers) << profile.name;
    EXPECT_EQ(bl.kindCount(BlameKind::StrayAnswer), adv.strayAnswers) << profile.name;
    EXPECT_EQ(bl.kindCount(BlameKind::ForgedAnswer), adv.forgedAnswers) << profile.name;
    EXPECT_EQ(bl.kindCount(BlameKind::CompromisedSample), out.compromisedSamples)
        << profile.name;
    // The denominators ride along in the graph itself, so an exported file
    // reconciles without the in-process stats (`tools/run_record.py validate`).
    EXPECT_EQ(bl.total("walk.flippedAnswers"), adv.flippedAnswers) << profile.name;
    EXPECT_EQ(bl.total("walk.compromisedSamples"), out.compromisedSamples) << profile.name;
    for (const BlameEdge& e : bl.canonical()) {
      if (e.cause == kBlameNone) continue;
      EXPECT_TRUE(byz.contains(static_cast<NodeId>(e.cause)))
          << profile.name << ": cause " << e.cause << " is not Byzantine";
      if (e.kind == BlameKind::CompromisedSample || e.kind == BlameKind::WrongDecision) {
        ASSERT_NE(e.victim, kBlameNone);
        EXPECT_FALSE(byz.contains(static_cast<NodeId>(e.victim)))
            << profile.name << ": victim " << e.victim << " is not honest";
      }
    }
    // Wrong decisions only exist where compromised samples reached an origin.
    if (out.compromisedSamples == 0) {
      EXPECT_EQ(bl.kindCount(BlameKind::WrongDecision), 0U) << profile.name;
    }
  }
}

TEST(ProvenanceConservation, BeaconBlacklistBlameSumsToInsertionCounters) {
  const NodeId n = 192;
  const Graph g = golden::graph(n, 8, 21);
  const ByzantineSet byz = golden::place(g, Placement::Random, 10, 5);
  BeaconParams params;
  BeaconLimits limits;
  limits.maxPhase = 8;
  limits.maxTotalRounds = 20'000;
  for (const auto& profile :
       {BeaconAdversaryProfile::prefixGrafter(2), BeaconAdversaryProfile::tamperer(2),
        BeaconAdversaryProfile::full(2)}) {
    const std::unique_ptr<BeaconAdversary> adv = makeBeaconAdversary(profile, g, byz);
    Rng rng(4242);
    const BeaconOutcome out = runBeaconCounting(g, byz, *adv, params, limits, rng);
    const BlameGraph& bl = out.blame;
    // Every blacklist insertion is either blamed on the forger whose tainted
    // path planted it, or explicitly counted as untainted collateral.
    EXPECT_EQ(bl.kindCount(BlameKind::BlacklistedHonestId) +
                  bl.kindCount(BlameKind::BlacklistedFakeId) +
                  bl.total("beacon.untaintedInsertions"),
              out.stats.blacklistInsertions)
        << profile.name;
    EXPECT_EQ(bl.kindCount(BlameKind::BeaconForged) + bl.kindCount(BlameKind::RelayTampered),
              out.stats.adversary.beaconsForged)
        << profile.name;
    EXPECT_EQ(bl.kindCount(BlameKind::RelaySuppressed), out.stats.adversary.relaysSuppressed)
        << profile.name;
    EXPECT_EQ(bl.kindCount(BlameKind::ContinueSuppressed),
              out.stats.adversary.continuesSuppressed)
        << profile.name;
    EXPECT_EQ(bl.kindCount(BlameKind::ContinueSpam), out.stats.adversary.continuesSpammed)
        << profile.name;
    for (const BlameEdge& e : bl.canonical()) {
      if (e.cause == kBlameNone) continue;
      EXPECT_TRUE(byz.contains(static_cast<NodeId>(e.cause)))
          << profile.name << ": cause " << e.cause;
      if (e.kind == BlameKind::BlacklistedHonestId) {
        ASSERT_NE(e.victim, kBlameNone);
        EXPECT_FALSE(byz.contains(static_cast<NodeId>(e.victim))) << profile.name;
      }
    }
    // The grafter's whole point is planting honest ids; make sure the blame
    // graph actually caught some.
    if (profile.kind == BeaconAttackKind::PrefixGrafter) {
      EXPECT_GT(bl.kindCount(BlameKind::BlacklistedHonestId), 0U);
    }
  }
}

// ---------------------------------------------------------------------------
// Mixed-coalition pipeline: totals reconcile bit-for-bit, subsets partition
// the attributed damage, and the summary extras are exact projections.
// ---------------------------------------------------------------------------

ScenarioSpec coalitionPipelineSpec() {
  ScenarioSpec spec;
  spec.name = "prov-coalition";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Surround;
  spec.placement.count = 16;
  spec.placement.victim = 3;
  spec.placement.moatRadius = 2;
  spec.protocol = ProtocolKind::Pipeline;
  spec.pipelineParams.agreement.initialOnesFraction = 0.7;
  spec.pipelineParams.agreement.walkLengthFactor = 0.5;
  spec.pipelineParams.countingLimits.maxPhase = 7;
  spec.pipelineParams.countingLimits.maxTotalRounds = 20'000;
  spec.coalitionPlan = CoalitionPlan::split(
      "grafters", 0.5, BeaconAdversaryProfile::prefixGrafter(2),
      AgreementAttackProfile::adaptiveMinority(), "hunters", BeaconAdversaryProfile::none(),
      AgreementAttackProfile::hunter(2));
  spec.trials = 2;
  spec.masterSeed = 0xabc1;
  return spec;
}

TEST(ProvenanceCoalition, PipelineTotalsReconcileAndSubsetsPartitionBlame) {
  ExperimentRunner runner(2);
  const ExperimentSummary s = runner.run(coalitionPipelineSpec());
  ASSERT_EQ(s.perTrial.size(), 2U);
  for (const TrialOutcome& t : s.perTrial) {
    const BlameGraph& bl = t.blame;
    // Walk identities against the totals the graph carries.
    EXPECT_EQ(bl.kindCount(BlameKind::DroppedQuery), bl.total("walk.droppedQueries"));
    EXPECT_EQ(bl.kindCount(BlameKind::DroppedAnswer), bl.total("walk.droppedAnswers"));
    EXPECT_EQ(bl.kindCount(BlameKind::FlippedAnswer), bl.total("walk.flippedAnswers"));
    EXPECT_EQ(bl.kindCount(BlameKind::MisroutedAnswer), bl.total("walk.misroutedAnswers"));
    EXPECT_EQ(bl.kindCount(BlameKind::StrayAnswer), bl.total("walk.strayAnswers"));
    EXPECT_EQ(bl.kindCount(BlameKind::ForgedAnswer), bl.total("walk.forgedAnswers"));
    EXPECT_EQ(bl.kindCount(BlameKind::CompromisedSample), bl.total("walk.compromisedSamples"));
    // Beacon identities.
    EXPECT_EQ(bl.kindCount(BlameKind::BeaconForged) + bl.kindCount(BlameKind::RelayTampered),
              bl.total("beacon.beaconsForged"));
    EXPECT_EQ(bl.kindCount(BlameKind::BlacklistedHonestId) +
                  bl.kindCount(BlameKind::BlacklistedFakeId) +
                  bl.total("beacon.untaintedInsertions"),
              bl.total("beacon.blacklistInsertions"));
    // The coalition plan annotated subsets; every attributed cause maps to
    // exactly one subset, so the per-subset split partitions the blame.
    ASSERT_FALSE(bl.subsetOf.empty());
    for (const BlameEdge& e : bl.canonical()) {
      if (e.cause == kBlameNone) continue;
      ASSERT_LT(e.cause, bl.subsetOf.size());
      EXPECT_NE(bl.subsetOf[e.cause], 0xff) << "cause " << e.cause << " unmapped";
    }
    const obs::BlameExtras x = bl.extras();
    const auto& bySubset = x.bySubset;
    std::uint64_t subsetSum = 0;
    for (const std::uint64_t v : bySubset) subsetSum += v;
    EXPECT_EQ(subsetSum, bl.attributedCount());
    // Extras are exact projections of the same graph.
    EXPECT_EQ(t.extra.at("blameTotal"), static_cast<double>(x.total));
    EXPECT_EQ(t.extra.at("wrongDecisions"),
              static_cast<double>(bl.kindCount(BlameKind::WrongDecision)));
    EXPECT_EQ(t.extra.at("blameConcentration"), x.concentration);
    EXPECT_EQ(t.extra.at("blameTopShare"), x.topShare);
    EXPECT_EQ(t.extra.at("blameSubset0"), static_cast<double>(bySubset[0]));
    EXPECT_EQ(t.extra.at("blameSubset1"), static_cast<double>(bySubset[1]));
    // Both subsets actually did damage in this scenario.
    EXPECT_GT(bySubset[0] + bySubset[1], 0U);
  }
}

// ---------------------------------------------------------------------------
// Strict observation: sampling a trial for export changes nothing, and the
// sampled trace carries the full graph (obs_test pins its record line).
// ---------------------------------------------------------------------------

TEST(ProvenanceIdentity, GoldensBitIdenticalWhenSampled) {
  ScenarioSpec spec = coalitionPipelineSpec();
  ExperimentRunner runner(2);
  const ExperimentSummary plain = runner.run(spec);

  const auto sink = std::make_shared<obs::CapturingTraceSink>();
  obs::setTraceSink(sink, /*sampleTrials=*/2);
  const ExperimentSummary sampled = runner.run(spec);
  obs::setTraceSink(nullptr);

  EXPECT_EQ(sampled.combinedFingerprint, plain.combinedFingerprint);
  ASSERT_EQ(sink->traces().size(), 2U);
  for (std::uint32_t i = 0; i < 2; ++i) {
    // The trace rides the same blame graph the summary keeps, and sampling
    // did not move a single edge.
    EXPECT_EQ(canonLines(sink->traces()[i].blame), canonLines(plain.perTrial[i].blame));
    // Sampled trials also get the victim-BFS annotation for the
    // distance-to-victim curves; it lives outside the canonical projection.
    EXPECT_FALSE(sink->traces()[i].blame.victimDistance.empty());
    EXPECT_TRUE(plain.perTrial[i].blame.victimDistance.empty());
    // ... and it is the hop distance from the placement victim, narrowed.
    const MaterializedTrial trial = materializeTrial(spec, i);
    const std::vector<std::uint32_t> hops = bfsDistances(trial.graph, spec.placement.victim);
    const auto& narrowed = sink->traces()[i].blame.victimDistance;
    ASSERT_EQ(narrowed.size(), hops.size());
    for (std::size_t v = 0; v < hops.size(); ++v) {
      EXPECT_EQ(narrowed[v], hops[v] == kUnreachable ? 0xffff : hops[v]) << "node " << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Walk-token flow marks: every launched token terminates exactly once
// (answer or drop), and turning the marks on moves no result.
// ---------------------------------------------------------------------------

// Flow ids are derived (iteration, origin, sample), not carried: the token
// is the wire-sized header plus bookkeeping.
static_assert(sizeof(WalkToken) <= 24, "walk tokens are copied on every hop");

TEST(ProvenanceFlow, LaunchMarksReconcileWithAnswerPlusDrop) {
  ScenarioSpec spec;
  spec.name = "prov-flow";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 8;
  spec.placement.victim = 3;
  spec.protocol = ProtocolKind::Agreement;
  spec.agreementParams.initialOnesFraction = 0.7;
  spec.agreementParams.attack = AgreementAttackProfile::tamperer();
  spec.trials = 1;
  spec.masterSeed = 0xf10a;

  ExperimentRunner runner(1);
  const ExperimentSummary plain = runner.run(spec);

  const auto sink = std::make_shared<obs::CapturingTraceSink>();
  obs::setTraceSink(sink, 1);
  obs::setTraceFlowMarks(true);
  const ExperimentSummary marked = runner.run(spec);
  obs::setTraceFlowMarks(false);
  obs::setTraceSink(nullptr);

  EXPECT_EQ(marked.combinedFingerprint, plain.combinedFingerprint);
  ASSERT_EQ(sink->traces().size(), 1U);
  std::uint64_t launches = 0, answers = 0, drops = 0;
  // FNV-1a over every walk mark's (name, flow id, round) in emission order.
  std::uint64_t flowDigest = 0xcbf29ce484222325ull;
  for (const obs::TraceEvent& e : sink->traces()[0].events) {
    if (e.kind != obs::EventKind::Mark || e.name == nullptr) continue;
    const std::string name(e.name);
    if (name.rfind("walk.", 0) != 0) continue;
    if (name == "walk.launch") ++launches;
    if (name == "walk.answer") ++answers;
    if (name == "walk.drop") ++drops;
    const std::uint64_t id = static_cast<std::uint64_t>(e.value);
    flowDigest = fnv1a64(name.data(), name.size(), flowDigest);
    flowDigest = fnv1a64(&id, sizeof id, flowDigest);
    flowDigest = fnv1a64(&e.round, sizeof e.round, flowDigest);
  }
  // Flow ids are derived from (iteration, origin, sample) and must not move:
  // this literal pins every mark of the scenario.
  EXPECT_EQ(flowDigest, 0x1344b1f5e92a1937ull) << std::hex << flowDigest;
  EXPECT_GT(launches, 0U);
  EXPECT_EQ(launches, answers + drops);
  // The tamperer redirected answers; some landed stray, so drops are real.
  EXPECT_GT(drops, 0U);
  EXPECT_EQ(answers, sink->traces()[0].blame.total("walk.answeredSamples"));
}

// ---------------------------------------------------------------------------
// Churn: whitewashing rejoin lineage is recorded, and the merged graph's ids
// survive the dense -> global remap (causes live in overlay-id space).
// ---------------------------------------------------------------------------

TEST(ProvenanceChurn, ByzantineRejoinsLeaveLineageEdges)  {
  ScenarioSpec spec;
  spec.name = "prov-churn";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 8;
  spec.protocol = ProtocolKind::Beacon;
  spec.beaconAdversary = BeaconAdversaryProfile::tamperer();
  spec.beaconLimits.maxPhase = 7;
  spec.beaconLimits.maxTotalRounds = 20'000;
  spec.churn = ChurnSchedule::byzantine(/*epochs=*/6, /*rate=*/0.10, /*rejoinBoost=*/3.0);
  spec.trials = 2;
  spec.masterSeed = 0xc4e;

  ExperimentRunner runner(2);
  const ExperimentSummary s = runner.run(spec);
  std::uint64_t lineageEdges = 0;
  for (const TrialOutcome& t : s.perTrial) {
    EXPECT_EQ(t.blame.kindCount(BlameKind::RejoinLineage), t.blame.total("churn.byzRejoins"));
    lineageEdges += t.blame.kindCount(BlameKind::RejoinLineage);
    for (const BlameEdge& e : t.blame.canonical()) {
      if (e.kind != BlameKind::RejoinLineage) continue;
      // Fresh identities are always concrete; the laundered old identity may
      // be kBlameNone when the rejoin spent carried-over credit.
      EXPECT_NE(e.victim, kBlameNone);
    }
  }
  // The boosted schedule must actually have produced whitewashing rejoins.
  EXPECT_GT(lineageEdges, 0U);
}

// ---------------------------------------------------------------------------
// Determinism matrix: the canonical blame projection is invariant across
// runner threads {1, 2, 4, 8}, on which the two trials' epoch recounts
// overlap.
// ---------------------------------------------------------------------------

ScenarioSpec matrixSpec() {
  ScenarioSpec spec = coalitionPipelineSpec();
  spec.name = "prov-matrix";
  spec.pipelineParams.countingLimits.maxPhase = 6;
  spec.churn = ChurnSchedule::steady(/*epochs=*/3, /*rate=*/0.08, /*recountEvery=*/2);
  spec.masterSeed = 0xdead5;
  return spec;
}

TEST(ProvenanceDeterminism, BlameProjectionInvariantAcrossThreadsAndDepth) {
  std::vector<std::vector<std::string>> baseline;
  std::uint64_t baselineFp = 0;
  bool first = true;
  for (const unsigned threads : {1U, 2U, 4U, 8U}) {
    ExperimentRunner runner(threads);
    const ExperimentSummary s = runner.run(matrixSpec());
    ASSERT_EQ(s.perTrial.size(), 2U);
    std::vector<std::vector<std::string>> proj;
    proj.reserve(2);
    for (const TrialOutcome& t : s.perTrial) proj.push_back(canonLines(t.blame));
    if (first) {
      first = false;
      baseline = std::move(proj);
      baselineFp = s.combinedFingerprint;
      // The baseline run must attribute something, or the matrix is vacuous.
      EXPECT_GT(s.perTrial[0].blame.attributedCount(), 0U);
      continue;
    }
    const std::string tag = "threads=" + std::to_string(threads);
    EXPECT_EQ(s.combinedFingerprint, baselineFp) << tag;
    for (std::uint32_t i = 0; i < 2; ++i) {
      EXPECT_EQ(proj[i], baseline[i]) << tag << " trial " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// BlameGraph unit behaviour: merge is a keyed sum, remap rewrites ids.
// ---------------------------------------------------------------------------

TEST(ProvenanceGraph, MergeSumsAndRemapRewritesNodeIds) {
  BlameGraph a;
  a.add(BlameKind::FlippedAnswer, 1, 2, 3);
  a.addTotal("walk.flippedAnswers", 3);
  BlameGraph b;
  b.add(BlameKind::FlippedAnswer, 1, 2, 4);
  b.add(BlameKind::RejoinLineage, kBlameNone, 9);
  b.addTotal("walk.flippedAnswers", 4);
  a.merge(b);
  EXPECT_EQ(a.kindCount(BlameKind::FlippedAnswer), 7U);
  EXPECT_EQ(a.total("walk.flippedAnswers"), 7U);
  EXPECT_EQ(a.attributedCount(), 7U);  // the kBlameNone-cause edge is unattributed

  a.subsetOf = {0, 1};
  a.remapNodes({100, 101, 102});
  bool sawRemapped = false;
  for (const BlameEdge& e : a.canonical()) {
    if (e.kind == BlameKind::FlippedAnswer) {
      EXPECT_EQ(e.cause, 101U);
      EXPECT_EQ(e.victim, 102U);
      sawRemapped = true;
    }
    if (e.kind == BlameKind::RejoinLineage) {
      EXPECT_EQ(e.cause, kBlameNone);  // sentinel survives the remap
      EXPECT_EQ(e.victim, 9U);         // beyond the table = already global, kept
    }
  }
  EXPECT_TRUE(sawRemapped);
  // Dense-indexed annotations are invalid after a remap and must be dropped.
  EXPECT_TRUE(a.subsetOf.empty());
}

// ---------------------------------------------------------------------------
// The one-pass extras fold equals the sorted canonical() projections it
// replaced, bit for bit, on randomized graphs with subset annotations.
// ---------------------------------------------------------------------------

/// Extras slots 13..20 computed the way the sorted projections did: every
/// sum over canonical(), per-cause sums in a cause-keyed map.
std::vector<double> canonicalExtras(const BlameGraph& g) {
  std::uint64_t wrong = 0, total = 0;
  std::map<std::uint64_t, std::uint64_t> byCause;
  std::vector<std::uint64_t> bySubset(obs::kBlameMaxSubsets, 0);
  for (const BlameEdge& e : g.canonical()) {
    total += e.count;
    if (e.kind == BlameKind::WrongDecision) wrong += e.count;
    if (e.cause == kBlameNone) continue;
    byCause[e.cause] += e.count;
    std::uint8_t subset = 0xff;
    if (e.cause < g.subsetOf.size()) subset = g.subsetOf[e.cause];
    if (subset < obs::kBlameMaxSubsets - 1)
      bySubset[subset] += e.count;
    else
      bySubset[obs::kBlameMaxSubsets - 1] += e.count;
  }
  std::uint64_t attributed = 0, top = 0;
  for (const auto& [cause, count] : byCause) {
    attributed += count;
    top = std::max(top, count);
  }
  double hhi = 0.0;
  for (const auto& [cause, count] : byCause) {
    const double share = static_cast<double>(count) / static_cast<double>(attributed);
    hhi += share * share;
  }
  const double topShare =
      attributed == 0 ? 0.0 : static_cast<double>(top) / static_cast<double>(attributed);
  std::vector<double> out = {static_cast<double>(wrong), static_cast<double>(total),
                             attributed == 0 ? 0.0 : hhi, topShare};
  for (const std::uint64_t v : bySubset) out.push_back(static_cast<double>(v));
  return out;
}

std::vector<double> onePassExtras(const BlameGraph& g) {
  const obs::BlameExtras x = g.extras();
  std::vector<double> out = {static_cast<double>(x.wrongDecisions), static_cast<double>(x.total),
                             x.concentration, x.topShare};
  for (const std::uint64_t v : x.bySubset) out.push_back(static_cast<double>(v));
  return out;
}

TEST(ProvenanceGraph, OnePassExtrasMatchCanonicalProjections) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::uint64_t causes = 2 + rng.uniform(60);
    BlameGraph g;
    // Subset labels cover only some causes, including the unmapped 0xff and
    // labels past the last named bin (both pool into it).
    g.subsetOf.resize(rng.uniform(causes + 1));
    for (std::uint8_t& s : g.subsetOf) {
      const std::uint64_t pick = rng.uniform(6);
      s = pick == 5 ? 0xff : static_cast<std::uint8_t>(pick);
    }
    const std::uint64_t edges = rng.uniform(400);
    for (std::uint64_t e = 0; e < edges; ++e) {
      const auto kind = static_cast<BlameKind>(rng.uniform(obs::kBlameKinds));
      const std::uint64_t cause = rng.uniform(8) == 0 ? kBlameNone : rng.uniform(causes);
      const std::uint64_t victim = rng.uniform(5) == 0 ? kBlameNone : rng.uniform(200);
      g.add(kind, cause, victim, 1 + rng.uniform(1000));
    }
    const std::vector<double> want = canonicalExtras(g);
    const std::vector<double> got = onePassExtras(g);
    ASSERT_EQ(got.size(), 8U);  // slots 13..20
    for (std::size_t i = 0; i < want.size(); ++i) {
      std::uint64_t wantBits = 0, gotBits = 0;
      std::memcpy(&wantBits, &want[i], sizeof wantBits);
      std::memcpy(&gotBits, &got[i], sizeof gotBits);
      EXPECT_EQ(gotBits, wantBits) << "seed " << seed << " slot " << 13 + i;
    }
  }
  // Nothing attributed: the shares stay 0, the total still counts.
  BlameGraph none;
  none.add(BlameKind::ContinueSpam, kBlameNone, kBlameNone, 5);
  EXPECT_EQ(onePassExtras(none), canonicalExtras(none));
  EXPECT_EQ(none.extras().total, 5U);
  EXPECT_EQ(none.extras().concentration, 0.0);
}

}  // namespace
}  // namespace bzc
