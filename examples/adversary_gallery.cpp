// adversary_gallery: a resilience matrix — every adversary strategy in the
// library against both counting algorithms AND the agreement stage, on one
// page.
//
//   ./adversary_gallery [n] [trials] [seed] [beacon-attack]
//
// The optional [beacon-attack] argument (bench_common name/alias resolution,
// like p2p_agreement's [attack]) narrows the Algorithm 2 table to one
// beacon-adversary strategy next to the honest baseline — e.g.
// `adversary_gallery 512 5 3 adaptive-flooder`.
//
// Shows at a glance what each attack does to decision coverage and estimate
// quality, and that neither algorithm is ever pushed outside its theorem's
// guarantee by any implemented strategy. Every cell aggregates `trials`
// independent trials (fresh graph, placement and protocol streams per trial)
// fanned out over the ExperimentRunner's thread pool — the declarative
// ScenarioSpec path for Algorithm 2 and both strategy galleries
// (src/adversary/ for walks, src/adversary/beacon/ for the counting stage),
// the custom-trial path (with per-trial extra metrics) for Algorithm 1.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>

#include "adversary/beacon/profile.hpp"
#include "adversary/profile.hpp"
#include "bench/bench_common.hpp"
#include "counting/beacon/protocol.hpp"
#include "counting/local/protocol.hpp"
#include "support/knob.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace bzc;
  const auto n = static_cast<NodeId>(argKnob(argc, argv, 1, "n", 512, 3, kNoNode - 1));
  const auto trials =
      static_cast<std::uint32_t>(argKnob(argc, argv, 2, "trials", 5, 1, UINT32_MAX));
  const std::uint64_t seed = argKnob(argc, argv, 3, "seed", 3, 0, UINT64_MAX);
  const std::string beaconFilter = argc > 4 ? argv[4] : "";

  const std::size_t budget = byzantineBudget(n, 0.55);
  const double logN = std::log(static_cast<double>(n));
  ExperimentRunner runner;

  std::cout << "H(" << n << ",8), B = " << budget << " (gamma = 0.55), ln n = "
            << Table::num(logN, 2) << ", " << trials << " trials/cell on "
            << runner.threadCount() << " threads\n";

  auto baseSpec = [&](const std::string& name, bool withByzantine) {
    ScenarioSpec spec;
    spec.name = name;
    spec.graph = {GraphKind::Hnd, n, 8, 0.1};
    spec.placement.kind = withByzantine ? Placement::Random : Placement::None;
    spec.placement.count = withByzantine ? budget : 0;
    spec.trials = trials;
    spec.masterSeed = seed;
    return spec;
  };

  std::cout << "\n--- Algorithm 2 (randomized, small messages; beacon-adversary gallery) ---\n";
  Table beaconTable({"adversary", "frac decided", "mean est/ln n", "rounds", "capped trials"});
  std::vector<BeaconAdversaryProfile> beaconStrategies;
  if (beaconFilter.empty()) {
    beaconStrategies = {BeaconAdversaryProfile::none(),
                        BeaconAdversaryProfile::flooder(),
                        BeaconAdversaryProfile::targetedFlooder(/*victim=*/3, /*radius=*/3),
                        BeaconAdversaryProfile::tamperer(),
                        BeaconAdversaryProfile::suppressor(),
                        BeaconAdversaryProfile::continueSpammer(),
                        BeaconAdversaryProfile::full(),
                        BeaconAdversaryProfile::adaptiveFlooder(),
                        BeaconAdversaryProfile::prefixGrafter()};
  } else {
    beaconStrategies = {BeaconAdversaryProfile::none(),
                        bench::beaconAdversaryProfileByName(beaconFilter)};
  }
  for (const auto& strategy : beaconStrategies) {
    const bool withByzantine = strategy.kind != BeaconAttackKind::None;
    ScenarioSpec spec = baseSpec("gallery-beacon-" + strategy.name, withByzantine);
    spec.protocol = ProtocolKind::Beacon;
    spec.beaconAdversary = strategy;
    spec.placement.victim = 3;
    spec.beaconLimits.maxPhase = static_cast<std::uint32_t>(std::ceil(logN)) + 3;
    const ExperimentSummary s = bench::runScenario(runner, spec);
    beaconTable.addRow({strategy.name, Table::percent(s.fracDecided.mean),
                        Table::num(s.meanRatio.mean, 2),
                        Table::num(s.totalRounds.mean, 0) + " [" +
                            Table::num(s.totalRounds.min, 0) + "," +
                            Table::num(s.totalRounds.max, 0) + "]",
                        Table::integer(static_cast<long long>(s.cappedTrials))});
  }
  beaconTable.print(std::cout);

  std::cout << "\n--- Algorithm 1 (deterministic, LOCAL) ---\n";
  Table localTable({"adversary", "frac decided", "mean est", "max est", "dominant reason",
                    "rounds"});
  struct Entry {
    const char* name;
    std::unique_ptr<LocalAdversary> (*make)();
    bool withByzantine;
  };
  const Entry entries[] = {
      {"none", &makeHonestLocalAdversary, false},
      {"silent", [] { return makeSilentLocalAdversary(1); }, true},
      {"conflict", &makeConflictLocalAdversary, true},
      {"degree-bomb", &makeDegreeBombLocalAdversary, true},
      {"fake-world", [] { return makeFakeWorldLocalAdversary({}); }, true},
  };
  // Extra slots: mean est, max est, decisions by reason (inc/mute/ball/cut).
  enum : std::size_t { kMean, kMax, kInc, kMute, kBall, kCut, kSlots };
  for (const Entry& e : entries) {
    const ScenarioSpec spec = baseSpec(std::string("gallery-local-") + e.name, e.withByzantine);
    const ExperimentSummary s = bench::runScenario(runner, spec.name, trials, [&](std::uint32_t index) {
      MaterializedTrial trial = materializeTrial(spec, index);
      auto adversary = e.make();
      const LocalOutcome out =
          runLocalCounting(trial.graph, trial.byz, *adversary, {}, trial.runRng);
      TrialOutcome t;
      t.quality = evaluateQuality(out.result, trial.byz, n, spec.window);
      t.totalRounds = out.result.totalRounds;
      t.hitRoundCap = out.result.hitRoundCap;
      t.resultFingerprint = fingerprint(out.result, n);
      t.extra.assign(kSlots, 0.0);
      double mean = 0;
      std::size_t decided = 0;
      for (NodeId u = 0; u < n; ++u) {
        const auto& rec = out.result.decisions[u];
        if (trial.byz.contains(u) || !rec.decided) continue;
        ++decided;
        mean += rec.estimate;
        t.extra[kMax] = std::max(t.extra[kMax], rec.estimate);
      }
      t.extra[kMean] = decided ? mean / decided : 0.0;
      t.extra[kInc] = static_cast<double>(out.stats.inconsistencyDecisions);
      t.extra[kMute] = static_cast<double>(out.stats.muteDecisions);
      t.extra[kBall] = static_cast<double>(out.stats.ballGrowthDecisions);
      t.extra[kCut] = static_cast<double>(out.stats.sparseCutDecisions);
      return t;
    });
    const char* reason = "ball growth";
    double top = s.extras[kBall].mean;
    if (s.extras[kMute].mean > top) {
      reason = "mute";
      top = s.extras[kMute].mean;
    }
    if (s.extras[kInc].mean > top) {
      reason = "inconsistency";
      top = s.extras[kInc].mean;
    }
    if (s.extras[kCut].mean > top) reason = "sparse cut";
    localTable.addRow({e.name, Table::percent(s.fracDecided.mean),
                       Table::num(s.extras[kMean].mean, 2), Table::num(s.extras[kMax].max, 0),
                       reason, Table::integer(static_cast<long long>(s.totalRounds.mean))});
  }
  localTable.print(std::cout);

  std::cout << "\n--- sampling+majority agreement (walk adversaries, B = 8) ---\n";
  Table walkTable({"adversary", "agree", "a-e (90%)", "compromised", "dropped", "flipped",
                   "misrouted", "coalition hits"});
  for (const auto& attack :
       {AgreementAttackProfile::adaptiveMinority(), AgreementAttackProfile::dropper(),
        AgreementAttackProfile::flipper(), AgreementAttackProfile::tamperer(),
        AgreementAttackProfile::hunter(2)}) {
    // B = 8 keeps the budget at the sqrt(n)/polylog scale the agreement
    // protocol tolerates (the full counting budget above would drown it).
    ScenarioSpec spec = baseSpec("gallery-walk-" + attack.name, true);
    spec.placement.count = 8;
    spec.placement.kind =
        attack.kind == WalkAttackKind::VictimHunter ? Placement::Surround : Placement::Random;
    spec.placement.victim = 3;
    spec.placement.moatRadius = 2;
    spec.protocol = ProtocolKind::Agreement;
    spec.agreementParams.initialOnesFraction = 0.7;
    spec.agreementParams.attack = attack;
    const ExperimentSummary s = bench::runScenario(runner, spec);
    walkTable.addRow({attack.name, Table::percent(s.extras[kAgreementFracAgreeing].mean),
                      Table::percent(bench::aeTrialFraction(s)),
                      Table::num(s.extras[kAgreementCompromised].mean, 0),
                      Table::num(s.extras[kAgreementDropped].mean, 0),
                      Table::num(s.extras[kAgreementFlipped].mean, 0),
                      Table::num(s.extras[kAgreementMisrouted].mean, 0),
                      Table::num(s.extras[kAgreementCoalitionHits].mean, 0)});
  }
  walkTable.print(std::cout);

  std::cout << "\nEvery counting attack either gets detected (early, distance-scale decisions)\n"
               "or gets outlasted (blacklisting); none moves Good nodes outside their theorem\n"
               "window. In the walk gallery the adaptive minority answerer is consistently the\n"
               "strongest attack: starving (dropper), corrupting in transit (flipper),\n"
               "misrouting (tamperer) and targeted collusion (hunter) all do strictly less\n"
               "global damage than adaptive lying at the same budget.\n";
  return 0;
}
