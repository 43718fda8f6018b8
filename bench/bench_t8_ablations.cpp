// T8 — Ablations of the design choices DESIGN.md calls out.
//
//  (a) Blacklisting (§1.3): with it, the beacon flooder is neutralised; when
//      disabled, forged beacons are accepted forever and decisions stall.
//  (b) Continue messages: keep decided nodes participating so that
//      late-deciding nodes still see beacons; when disabled, estimates sag.
//  (c) Beacon choice policy: the Line 14 "arbitrary" choice, implemented as
//      FirstSeen vs PreferAcceptable, under the path tamperer.
//  (d) Algorithm 1 expansion checks: the Fiedler sweep catches the sparse
//      cut of a barbell (assumption violation) rounds before ball growth
//      throttles; on a true expander it never fires (no false positives).
//  (e) Activation scale c1 (Line 5): estimate stability across c1.
//  (f) Phase schedule: linear (paper) vs doubling (open-problem probe).
//  (g) Walk-adversary strength knobs (src/adversary/): agreement damage as a
//      function of the dropper/flipper probabilities — partial-strength
//      attacks interpolate between honest and full-strength behaviour.
//
// Every sub-table aggregates R trials (fresh graph, placement and protocol
// streams per trial) on the ExperimentRunner. BZC_TRIALS / BZC_THREADS
// override.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "counting/beacon/protocol.hpp"
#include "counting/local/protocol.hpp"
#include "graph/generators.hpp"

namespace {

using namespace bzc;
using namespace bzc::bench;

constexpr NodeId kN = 512;

ScenarioSpec baseSpec(const std::string& name, std::uint64_t seed, bool withByz) {
  ScenarioSpec spec;
  spec.name = name;
  spec.graph = {GraphKind::Hnd, kN, 8, 0.1};
  spec.placement.kind = withByz ? Placement::Random : Placement::None;
  if (withByz) spec.byzGamma = 0.55;
  spec.trials = trialCount(5);
  spec.masterSeed = seed;
  return spec;
}

BeaconLimits standardLimits() {
  BeaconLimits limits;
  limits.maxPhase =
      static_cast<std::uint32_t>(std::ceil(std::log(static_cast<double>(kN)))) + 3;
  return limits;
}

/// Runs a beacon scenario with per-trial params and returns the summary.
ExperimentSummary runBeaconRow(ExperimentRunner& runner, const ScenarioSpec& spec,
                               const BeaconAdversaryProfile& attack, const BeaconParams& params,
                               const BeaconLimits& limits) {
  return runScenario(runner, spec.name, spec.trials, [&](std::uint32_t index) {
    MaterializedTrial trial = materializeTrial(spec, index);
    const auto out =
        runBeaconCounting(trial.graph, trial.byz, attack, params, limits, trial.runRng);
    const auto s = summarize(out.result, trial.byz, kN);
    TrialOutcome t = countingTrialOutcome(out.result, trial.byz, kN);
    t.extra.set("meanEst", s.meanEst);
    t.extra.set("maxEst", s.maxEst);
    t.extra.set("lastPhase", static_cast<double>(out.stats.lastPhase));
    t.extra.set("spread", s.maxEst - s.minEst);
    t.extra.set("meanRatio", s.meanRatio);
    return t;
  });
}

}  // namespace

int main() {
  const std::uint32_t trials = trialCount(5);
  ExperimentRunner runner(threadCount());

  // (a) Blacklisting.
  experimentHeader("T8a — blacklisting under the beacon flooder (n = 512)",
                   "Without blacklisting (Line 32 disabled) forged beacons are never rejected\n"
                   "and honest nodes cannot decide (§1.3). Cells aggregate R trials.");
  {
    Table table({"blacklisting", "frac decided", "est mean", "last phase"});
    double fracOn = 0;
    double fracOff = 0;
    // Arms share one seed: the on/off comparison is paired on identical
    // graphs, placements and protocol streams, isolating the ablated flag.
    const std::uint64_t seed = rowSeed(8, 0);
    for (bool enabled : {true, false}) {
      const auto spec =
          baseSpec(std::string("t8a-blacklist-") + (enabled ? "on" : "off"), seed, true);
      BeaconParams params;
      params.blacklistEnabled = enabled;
      const auto s =
          runBeaconRow(runner, spec, BeaconAdversaryProfile::flooder(), params, standardLimits());
      (enabled ? fracOn : fracOff) = s.fracDecided.mean;
      table.addRow({enabled ? "on" : "off", distPercentCell(s.fracDecided),
                    Table::num(s.extras.at("meanEst").mean, 2),
                    Table::num(s.extras.at("lastPhase").mean, 1)});
    }
    table.print(std::cout);
    shapeCheck("blacklisting is necessary against the flooder", fracOn > 0.7 && fracOff < 0.2);
  }

  // (b) Continue messages.
  experimentHeader("T8b — continue messages (benign, n = 512)",
                   "Disabling the continue flood lets early deciders exit; the undecided tail\n"
                   "stops seeing beacons and decides earlier (smaller estimates).");
  {
    Table table({"continue msgs", "est mean", "est max", "rounds"});
    double meanOn = 0;
    double meanOff = 0;
    const std::uint64_t seed = rowSeed(8, 1);  // shared: paired arms
    for (bool enabled : {true, false}) {
      const auto spec =
          baseSpec(std::string("t8b-continue-") + (enabled ? "on" : "off"), seed, false);
      BeaconParams params;
      params.continueEnabled = enabled;
      const auto s = runBeaconRow(runner, spec, BeaconAdversaryProfile::none(), params, {});
      (enabled ? meanOn : meanOff) = s.extras.at("meanEst").mean;
      table.addRow({enabled ? "on" : "off", Table::num(s.extras.at("meanEst").mean, 2),
                    Table::num(s.extras.at("maxEst").mean, 1), distCell(s.totalRounds, 0)});
    }
    table.print(std::cout);
    shapeCheck("continues keep estimates from sagging", meanOn >= meanOff);
  }

  // (c) Choice policy under the tamperer.
  experimentHeader("T8c — beacon choice policy under the path tamperer (n = 512)",
                   "Line 14 says 'discard all but one arbitrarily chosen message'. The policy\n"
                   "matters: preferring an acceptable beacon resists blacklist-induced false\n"
                   "decisions better than taking the first arrival.");
  {
    Table table({"policy", "frac decided", "in window [0.3,1.8]", "est mean"});
    const std::uint64_t seed = rowSeed(8, 2);  // shared: paired arms
    for (BeaconChoicePolicy policy :
         {BeaconChoicePolicy::FirstSeen, BeaconChoicePolicy::PreferAcceptable}) {
      const auto spec = baseSpec(std::string("t8c-policy-") +
                                     (policy == BeaconChoicePolicy::FirstSeen ? "first" : "prefer"),
                                 seed, true);
      BeaconParams params;
      params.choice = policy;
      const auto s =
          runBeaconRow(runner, spec, BeaconAdversaryProfile::tamperer(), params, standardLimits());
      table.addRow({policy == BeaconChoicePolicy::FirstSeen ? "first-seen" : "prefer-acceptable",
                    distPercentCell(s.fracDecided), distPercentCell(s.fracWithinWindow),
                    Table::num(s.extras.at("meanEst").mean, 2)});
    }
    table.print(std::cout);
  }

  // (d) Algorithm 1 checks on a barbell vs a true expander.
  experimentHeader("T8d — Algorithm 1 expansion checks: Fiedler sweep vs ball growth",
                   "On a barbell (two H(256,8) expanders joined by 2 edges — the expansion\n"
                   "assumption violated) the sweep detects the sparse cut; on H(512,8) it\n"
                   "never fires (no false positives) and benign behaviour is unchanged.");
  {
    Table table({"graph", "spectral", "mean est", "ball decisions", "sweep decisions"});
    bool sweepFiresOnBarbell = false;
    bool noFalsePositives = true;
    for (const auto* graphName : {"barbell", "expander"}) {
      const bool isBarbell = std::string(graphName) == "barbell";
      // Shared per graph family: the spectral on/off arms see identical
      // graphs and run streams.
      const std::uint64_t seed = rowSeed(8, isBarbell ? 3 : 4);
      for (bool spectral : {false, true}) {
        const std::string name = std::string("t8d-") + graphName + (spectral ? "-sweep" : "-ball");
        const auto s = runScenario(runner, name, trials, [&](std::uint32_t index) {
          const Rng trialRng = Rng(seed).fork(index);
          Rng graphRng = trialRng.fork(1);
          const Graph graph =
              isBarbell ? barbell(256, 8, 2, graphRng) : hnd(kN, 8, graphRng);
          const ByzantineSet none(graph.numNodes(), {});
          auto adversary = makeHonestLocalAdversary();
          LocalParams params;
          params.checks.spectralEnabled = spectral;
          Rng runRng = trialRng.fork(2);
          const auto out = runLocalCounting(graph, none, *adversary, params, runRng);
          const auto est = summarize(out.result, none, graph.numNodes());
          TrialOutcome t = countingTrialOutcome(out.result, none, graph.numNodes());
          t.extra.set("meanEst", est.meanEst);
          t.extra.set("ballGrowthDecisions",
                      static_cast<double>(out.stats.ballGrowthDecisions));
          t.extra.set("sparseCutDecisions", static_cast<double>(out.stats.sparseCutDecisions));
          return t;
        });
        const Distribution& sweep = s.extras.at("sparseCutDecisions");
        if (spectral && isBarbell) sweepFiresOnBarbell = sweep.min > 0;
        if (spectral && !isBarbell) noFalsePositives = sweep.max == 0;
        table.addRow({graphName, spectral ? "on" : "off",
                      Table::num(s.extras.at("meanEst").mean, 2),
                      Table::num(s.extras.at("ballGrowthDecisions").mean, 0),
                      Table::num(sweep.mean, 0)});
      }
    }
    table.print(std::cout);
    shapeCheck("sweep detects the barbell's sparse cut (every trial)", sweepFiresOnBarbell);
    shapeCheck("sweep never fires on the true expander (any trial)", noFalsePositives);
  }

  // (e) Activation scale c1.
  experimentHeader("T8e — activation scale c1 (Line 5), benign n = 512",
                   "The estimate shifts by ~log_d(c1): a mild, bounded sensitivity.");
  {
    Table table({"c1", "est mean", "est spread", "rounds"});
    const std::uint64_t seed = rowSeed(8, 5);  // shared: paired sweep
    for (double c1 : {1.0, 4.0, 16.0}) {
      const auto spec =
          baseSpec("t8e-c1-" + std::to_string(static_cast<int>(c1)), seed, false);
      BeaconParams params;
      params.c1 = c1;
      const auto s = runBeaconRow(runner, spec, BeaconAdversaryProfile::none(), params, {});
      table.addRow({Table::num(c1, 0), Table::num(s.extras.at("meanEst").mean, 2),
                    Table::num(s.extras.at("spread").mean, 1), distCell(s.totalRounds, 0)});
    }
    table.print(std::cout);
  }

  // (f) Phase schedule: linear (paper) vs doubling (open-problem probe).
  experimentHeader(
      "T8f — phase schedule: linear (Line 1) vs doubling (experimental extension)",
      "Doubling guesses log n in O(log log n) phases instead of O(log n). The cost: up\n"
      "to 2x estimate slack (phases land on 2^k c) and a heavier final phase under\n"
      "attack. Probes the paper's open problem of cheaper small-message counting.");
  {
    Table table({"schedule", "scenario", "frac decided", "est mean", "est/ln n", "rounds"});
    bool doublingCorrect = true;
    for (PhaseSchedule schedule : {PhaseSchedule::Linear, PhaseSchedule::Doubling}) {
      for (const bool attacked : {false, true}) {
        const std::string name = std::string("t8f-") +
                                 (schedule == PhaseSchedule::Linear ? "linear" : "doubling") +
                                 (attacked ? "-flooder" : "-benign");
        // Shared per scenario: linear vs doubling compare on the same
        // workloads.
        const auto spec = baseSpec(name, rowSeed(8, attacked ? 7 : 6), attacked);
        BeaconParams params;
        params.schedule = schedule;
        BeaconLimits scheduleLimits;
        scheduleLimits.maxPhase = 16;
        const auto s = runBeaconRow(
            runner, spec,
            attacked ? BeaconAdversaryProfile::flooder() : BeaconAdversaryProfile::none(), params,
            scheduleLimits);
        if (schedule == PhaseSchedule::Doubling) {
          doublingCorrect = doublingCorrect && s.fracDecided.mean > 0.7 &&
                            s.extras.at("meanRatio").mean < 3.0;
        }
        table.addRow({schedule == PhaseSchedule::Linear ? "linear" : "doubling",
                      attacked ? "flooder" : "benign", distPercentCell(s.fracDecided),
                      Table::num(s.extras.at("meanEst").mean, 2),
                      Table::num(s.extras.at("meanRatio").mean, 2),
                      distCell(s.totalRounds, 0)});
      }
    }
    table.print(std::cout);
    shapeCheck("doubling stays correct within its 2x slack", doublingCorrect);
  }

  // (g) Walk-adversary strength knobs.
  experimentHeader(
      "T8g — walk-adversary strength knobs (agreement, n = 512, B = 16, oracle ln n)",
      "The declarative attack profiles carry per-contact probabilities; sweeping them\n"
      "shows each mechanism's dose-response. Answered slots shrink with the dropper's\n"
      "probability; flip events grow with the flipper's. B = 16 is past the protocol's\n"
      "sqrt(n)/polylog budget, so full-strength attacks visibly dent agreement.");
  {
    Table table({"strategy", "p", "agree", "answered", "dropped", "flipped"});
    double answeredWeak = 0;
    double answeredFull = 0;
    double flippedWeak = 0;
    double flippedFull = 0;
    for (const bool flipper : {false, true}) {
      for (const double p : {0.25, 1.0}) {
        ScenarioSpec spec = baseSpec(std::string("t8g-") + (flipper ? "flipper" : "dropper") +
                                         "-p" + Table::num(p, 2),
                                     rowSeed(8, 8), true);
        spec.byzGamma = 0.0;
        spec.placement.count = 16;
        spec.protocol = ProtocolKind::Agreement;
        spec.agreementParams.initialOnesFraction = 0.7;
        spec.agreementParams.attack = flipper ? AgreementAttackProfile::flipper(p)
                                              : AgreementAttackProfile::dropper(p);
        const auto s = runScenario(runner, spec);
        table.addRow({flipper ? "answer-flipper" : "token-dropper", Table::num(p, 2),
                      distPercentCell(s.extras.at("fracAgreeing")),
                      Table::num(s.extras.at("answered").mean, 0),
                      Table::num(s.extras.at("dropped").mean, 0),
                      Table::num(s.extras.at("flipped").mean, 0)});
        if (!flipper) (p < 0.5 ? answeredWeak : answeredFull) = s.extras.at("answered").mean;
        if (flipper) (p < 0.5 ? flippedWeak : flippedFull) = s.extras.at("flipped").mean;
      }
    }
    table.print(std::cout);
    shapeCheck("the dropper knob starves more samples at full strength",
               answeredFull < answeredWeak);
    shapeCheck("the flipper knob flips more answers at full strength",
               flippedFull > flippedWeak);
  }
  return shapeCheckExitCode();
}
