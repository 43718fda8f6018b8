// T11 — beacon-adversary gallery: strategy × placement × budget for the
// counting stage (Algorithm 2), plus mixed cross-stage coalitions.
//
// The paper's analysis quantifies resilience over adversary *behaviours*
// (the flooder of §1.3, the tampered-prefix case of Lemma 11, suppression,
// continue spam); src/adversary/beacon/ makes each a strategy. The grid
// measures what every gallery strategy does to decision coverage, estimate
// quality and the defence's own workload (blacklist insertions), across
// placements (random vs victim-surround) and Byzantine budgets — including
// the two behaviours beyond the fixed presets: the pressure-adaptive
// flooder and the prefix-grafting tamperer.
//
// The coalition rows split ONE budget across both pipeline stages
// (CoalitionPlan on the ScenarioSpec): 50/50 beacon-flooders + walk-hunters
// against 100% of either, reporting the combined cross-stage damage score
// around the victim next to global agreement.
//
// Claims probed: (1) no single counting-stage strategy pushes Good nodes
// outside the Theorem 2 window — flooding delays, suppression accelerates,
// neither corrupts silently; (2) adaptive forging buys the flooder most of
// the damage at a fraction of the forging volume once blacklists react;
// (3) a mixed coalition trades global agreement damage for victim-area
// damage that neither pure allocation achieves at the same budget.
//
// Cells aggregate R trials; BZC_TRIALS / BZC_THREADS / BZC_N override.
// JSON rows (BZC_OUTPUT=json) carry named extras.
#include <cmath>
#include <iostream>
#include <string>

#include "adversary/beacon/strategies.hpp"
#include "adversary/coalition.hpp"
#include "bench_common.hpp"
#include "counting/beacon/protocol.hpp"

int main() {
  using namespace bzc;
  using namespace bzc::bench;

  const NodeId n = nodeCount(512);
  const std::uint32_t trials = trialCount(5);
  const double logN = std::log(static_cast<double>(n));
  const std::size_t fullBudget = byzantineBudget(n, 0.55);
  const NodeId victim = 3;

  experimentHeader(
      "T11 — beacon-adversary gallery: strategy × placement × budget (n = " +
          std::to_string(n) + ", H(n,8)) + mixed cross-stage coalitions",
      "Counting-stage strategies (src/adversary/beacon/). 'forged' counts adversary-\n"
      "authored beacons (iteration forges + tampered relays), 'bl ins' the Line 32\n"
      "blacklist insertions the defence performed, 'backoffs' the phases an adaptive\n"
      "forger went quiet in. Placement 'surround' mans the wall around node 3\n"
      "(moat radius 2; targeted forging radius reaches it). The coalition rows run\n"
      "the full counting->agreement pipeline with one budget split across stages.");

  ExperimentRunner runner(threadCount());
  std::cout << "trials/cell=" << trials << "  threads=" << runner.threadCount()
            << "  B(full)=" << fullBudget << "\n\n";

  // --- strategy × placement × budget grid (counting stage) ------------------
  const BeaconAdversaryProfile strategies[] = {
      BeaconAdversaryProfile::none(),
      BeaconAdversaryProfile::flooder(),
      BeaconAdversaryProfile::targetedFlooder(victim, /*radius=*/3),
      BeaconAdversaryProfile::tamperer(),
      BeaconAdversaryProfile::suppressor(),
      BeaconAdversaryProfile::continueSpammer(),
      BeaconAdversaryProfile::full(),
      BeaconAdversaryProfile::adaptiveFlooder(/*tolerance=*/64),
      BeaconAdversaryProfile::prefixGrafter(),
  };
  const struct {
    const char* name;
    Placement kind;
  } placements[] = {{"random", Placement::Random}, {"surround", Placement::Surround}};
  const std::size_t budgets[] = {8, fullBudget};

  Table grid({"strategy", "placement", "B", "frac decided", "est/ln n", "forged", "bl ins",
              "backoffs", "rounds"});
  std::uint64_t row = 0;
  double forgedPlain = 0.0, forgedAdaptive = 0.0, forgedTargeted = 0.0;
  double backoffsAdaptive = 0.0;
  double graftsSeen = 0.0;

  for (const BeaconAdversaryProfile& strategy : strategies) {
    for (const auto& placement : placements) {
      for (const std::size_t budget : budgets) {
        if (strategy.kind == BeaconAttackKind::None && budget != budgets[0]) continue;
        ScenarioSpec spec;
        spec.name = "t11-" + strategy.name + "-" + placement.name + "-b" + std::to_string(budget);
        spec.graph = {GraphKind::Hnd, n, 8, 0.1};
        spec.placement.kind =
            strategy.kind == BeaconAttackKind::None ? Placement::None : placement.kind;
        spec.placement.count = strategy.kind == BeaconAttackKind::None ? 0 : budget;
        spec.placement.victim = victim;
        spec.placement.moatRadius = 2;
        spec.beaconLimits.maxPhase = static_cast<std::uint32_t>(std::ceil(logN)) + 3;
        spec.beaconLimits.maxTotalRounds = 20'000;
        spec.masterSeed = rowSeed(11, row++);
        // Custom trials: the grid reports the counting-stage adversary stats,
        // which the declarative Beacon path does not surface as extras.
        const ExperimentSummary s = runScenario(
            runner, spec.name, trials,
            [&](std::uint32_t index) {
              MaterializedTrial trial = materializeTrial(spec, index);
              const auto adversary = makeBeaconAdversary(strategy, trial.graph, trial.byz);
              Rng runRng = std::move(trial.runRng);
              const BeaconOutcome out = runBeaconCounting(trial.graph, trial.byz, *adversary,
                                                          spec.beaconParams, spec.beaconLimits,
                                                          runRng);
              TrialOutcome t = countingTrialOutcome(out.result, trial.byz, n, spec.window);
              t.extra.set("forged", static_cast<double>(out.stats.adversary.beaconsForged));
              t.extra.set("tampered", static_cast<double>(out.stats.adversary.relaysTampered));
              t.extra.set("suppressed", static_cast<double>(out.stats.adversary.relaysSuppressed));
              t.extra.set("spammed", static_cast<double>(out.stats.adversary.continuesSpammed));
              t.extra.set("grafts", static_cast<double>(out.stats.adversary.prefixGrafts));
              t.extra.set("backoffs", static_cast<double>(out.stats.adversary.pressureBackoffs));
              t.extra.set("blacklistIns", static_cast<double>(out.stats.blacklistInsertions));
              return t;
            });
        grid.addRow({strategy.name, placement.name, Table::integer(spec.placement.count),
                     distPercentCell(s.fracDecided), Table::num(s.meanRatio.mean, 2),
                     Table::num(s.extras.at("forged").mean, 0),
                     Table::num(s.extras.at("blacklistIns").mean, 0),
                     Table::num(s.extras.at("backoffs").mean, 1), distCell(s.totalRounds, 0)});
        if (placement.kind == Placement::Random && budget == fullBudget) {
          if (strategy.kind == BeaconAttackKind::Flooder) {
            forgedPlain = s.extras.at("forged").mean;
          }
          if (strategy.kind == BeaconAttackKind::AdaptiveFlooder) {
            forgedAdaptive = s.extras.at("forged").mean;
            backoffsAdaptive = s.extras.at("backoffs").mean;
          }
          if (strategy.kind == BeaconAttackKind::TargetedFlooder) {
            forgedTargeted = s.extras.at("forged").mean;
          }
          if (strategy.kind == BeaconAttackKind::PrefixGrafter) {
            graftsSeen = s.extras.at("grafts").mean;
          }
        }
        if (strategy.kind == BeaconAttackKind::None) break;  // one placement row for none
      }
      if (strategy.kind == BeaconAttackKind::None) break;
    }
  }
  grid.print(std::cout);

  // --- mixed cross-stage coalition rows (full pipeline) ---------------------
  std::cout << "\n--- mixed cross-stage coalitions (pipeline, B = 24, surround victim 3) ---\n";
  const auto planSpec = [&](const std::string& name, const CoalitionPlan& plan) {
    ScenarioSpec spec;
    spec.name = name;
    spec.graph = {GraphKind::Hnd, n, 8, 0.1};
    spec.placement.kind = Placement::Surround;
    spec.placement.count = 24;
    spec.placement.victim = victim;
    spec.placement.moatRadius = 2;
    spec.protocol = ProtocolKind::Pipeline;
    spec.pipelineParams.agreement.initialOnesFraction = 0.7;
    spec.pipelineParams.agreement.walkLengthFactor = 0.5;
    spec.pipelineParams.countingLimits.maxPhase =
        static_cast<std::uint32_t>(std::ceil(logN)) + 3;
    spec.pipelineParams.countingLimits.maxTotalRounds = 20'000;
    spec.coalitionPlan = plan;
    spec.trials = trials;
    spec.masterSeed = rowSeed(11, 1000 + row++);
    return spec;
  };

  CoalitionPlan pureFlood;
  pureFlood.subsets.push_back({"flooders", 1.0,
                               BeaconAdversaryProfile::targetedFlooder(victim, 3),
                               AgreementAttackProfile::adaptiveMinority()});
  CoalitionPlan pureHunt;
  pureHunt.subsets.push_back(
      {"hunters", 1.0, BeaconAdversaryProfile::none(), AgreementAttackProfile::hunter(2)});
  const CoalitionPlan mixed = CoalitionPlan::split(
      "flooders", 0.5, BeaconAdversaryProfile::targetedFlooder(victim, 3),
      AgreementAttackProfile::adaptiveMinority(), "hunters", BeaconAdversaryProfile::none(),
      AgreementAttackProfile::hunter(2));

  Table coalitionTable({"plan", "agree", "combined score", "beacon forged", "coalition hits",
                        "frac decided", "blame conc", "blame s0/s1"});
  double scorePure = 0.0, scoreMixed = 0.0;
  const struct {
    const char* label;
    const CoalitionPlan* plan;
  } planRows[] = {{"100% beacon-flooders", &pureFlood},
                  {"100% walk-hunters", &pureHunt},
                  {"50/50 flood+hunt", &mixed}};
  for (const auto& entry : planRows) {
    const ExperimentSummary s =
        runScenario(runner, planSpec(std::string("t11-plan-") + entry.label, *entry.plan));
    coalitionTable.addRow({entry.label,
                           distPercentCell(s.extras.at("fracAgreeing")),
                           Table::num(s.extras.at("combinedScore").mean, 3),
                           Table::num(s.extras.at("beaconForged").mean, 0),
                           Table::num(s.extras.at("coalitionHits").mean, 0),
                           distPercentCell(s.fracDecided),
                           // Blame-graph projections (DESIGN.md §14): damage
                           // concentration over causes, and the per-subset
                           // split of attributed damage.
                           Table::num(s.extras.at("blameConcentration").mean, 3),
                           Table::num(s.extras.at("blameSubset0").mean, 0) + "/" +
                               Table::num(s.extras.at("blameSubset1").mean, 0)});
    if (entry.plan == &pureFlood) scorePure = s.extras.at("combinedScore").mean;
    if (entry.plan == &mixed) scoreMixed = s.extras.at("combinedScore").mean;
  }
  coalitionTable.print(std::cout);

  shapeCheck("targeted forging spends less than global flooding (same budget)",
             forgedTargeted < forgedPlain);
  shapeCheck("adaptive flooder backs off under blacklist pressure (fewer forges, real backoffs)",
             forgedAdaptive < forgedPlain && backoffsAdaptive > 0.0);
  shapeCheck("prefix grafter carries honest IDs into forged paths", graftsSeen > 0.0);
  shapeCheck("splitting the budget across stages changes the victim-area damage profile",
             scoreMixed != scorePure);
  return shapeCheckExitCode();
}
