// blame_attribution_demo: who did what to whom — the causal provenance layer
// (src/obs/provenance.hpp, DESIGN.md §14) on the worst mixed coalition the
// gallery offers.
//
//   BZC_ATTRIB=blame.jsonl ./blame_attribution_demo [seed]
//
// Half the Byzantine budget runs the PrefixGrafter in the counting stage
// (forged beacons carrying honest ID prefixes, so honest nodes blacklist each
// other), the other half runs the VictimHunter in the agreement stage
// (poisoning exactly the samples that cross the moat around the victim).
// Every trial's blame graph resolves the damage back to individual Byzantine
// nodes: which grafter got which honest ID blacklisted, which hunter
// compromised which origin's sample, and which compromised samples flipped a
// local decision. With BZC_ATTRIB set, the sampled trials export one JSONL
// blame line each — feed those to tools/blame_report.py (--check reconciles
// the edge sums against the AdversaryStats counters bit-for-bit), which is
// exactly what the CI smoke job does.
//
// Attribution is collected unconditionally and is strictly observational:
// results are bit-identical with or without the sink installed.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/bench_common.hpp"
#include "obs/provenance.hpp"
#include "support/knob.hpp"

int main(int argc, char** argv) {
  using namespace bzc;
  using namespace bzc::bench;
  const std::uint64_t seed = argKnob(argc, argv, 1, "seed", 11, 0, UINT64_MAX);

  const NodeId n = nodeCount(512);
  const NodeId victim = 3;
  const double logN = std::log(static_cast<double>(n));

  ScenarioSpec spec;
  spec.name = "blame-demo-graft+hunt";
  spec.graph = {GraphKind::Hnd, n, 8, 0.1};
  spec.placement.kind = Placement::Surround;
  spec.placement.count = 24;
  spec.placement.victim = victim;
  spec.placement.moatRadius = 2;
  spec.protocol = ProtocolKind::Pipeline;
  spec.pipelineParams.agreement.initialOnesFraction = 0.7;
  spec.pipelineParams.agreement.walkLengthFactor = 0.5;
  spec.pipelineParams.countingLimits.maxPhase = static_cast<std::uint32_t>(std::ceil(logN)) + 3;
  spec.pipelineParams.countingLimits.maxTotalRounds = 20'000;
  spec.coalitionPlan = CoalitionPlan::split(
      "grafters", 0.5, BeaconAdversaryProfile::prefixGrafter(2),
      AgreementAttackProfile::adaptiveMinority(), "hunters", BeaconAdversaryProfile::none(),
      AgreementAttackProfile::hunter(2));
  spec.trials = trialCount(4);
  spec.traceTrials = spec.trials;  // export a blame line per trial when a sink is up
  spec.masterSeed = Rng(seed).fork(0xb1a).next();

  ExperimentRunner runner(threadCount());
  std::cout << "n=" << n << "  B=" << spec.placement.count << " (50% grafters / 50% hunters)"
            << "  trials=" << spec.trials << "  threads=" << runner.threadCount() << "\n\n";

  const ExperimentSummary s = runScenario(runner, spec);

  // Fold the per-trial graphs into one run-level graph for the console view
  // (merge is a keyed sum, so this mirrors what blame_report.py aggregates).
  obs::BlameGraph all;
  for (const TrialOutcome& t : s.perTrial) all.merge(t.blame);

  Table kinds({"blame kind", "edges", "damage units"});
  for (std::size_t k = 0; k < obs::kBlameKinds; ++k) {
    const auto kind = static_cast<obs::BlameKind>(k);
    const std::uint64_t units = all.kindCount(kind);
    if (units == 0) continue;
    std::uint64_t rows = 0;
    for (const obs::BlameEdge& e : all.canonical()) rows += e.kind == kind ? 1 : 0;
    kinds.addRow({obs::blameKindName(kind), Table::integer(static_cast<long long>(rows)),
                  Table::integer(static_cast<long long>(units))});
  }
  kinds.print(std::cout);

  std::cout << "\nper-trial means:  blameTotal=" << s.extras.at("blameTotal").mean
            << "  wrongDecisions=" << s.extras.at("wrongDecisions").mean
            << "  concentration(HHI)=" << s.extras.at("blameConcentration").mean
            << "  topOffenderShare=" << s.extras.at("blameTopShare").mean << "\n";
  std::cout << "per-subset damage: grafters=" << s.extras.at("blameSubset0").mean
            << "  hunters=" << s.extras.at("blameSubset1").mean << "\n";

  if (const char* attrib = std::getenv("BZC_ATTRIB"); attrib != nullptr && *attrib != '\0') {
    std::cout << "\nblame graphs exported to " << attrib
              << " — run: python3 tools/blame_report.py " << attrib << " --check\n";
  } else {
    std::cout << "\n(set BZC_ATTRIB=blame.jsonl to export the per-trial blame graphs)\n";
  }
  return 0;
}
