// T7 — §1.1 application: Byzantine counting as a preprocessing step for the
// sampling+majority almost-everywhere agreement protocol of [3].
//
// The agreement protocol needs a constant-factor upper bound on log n for
// its walk lengths and iteration counts. The rows compare: an oracle ln n, a
// deliberately tiny estimate, a deliberately huge estimate, and the
// estimates actually produced by Algorithm 2 (benign and under the beacon
// flooder). Claim: counting-derived estimates work as well as the oracle.
//
// Both stages run as message-passing protocols on the SyncEngine, so rounds
// and message/bit totals are real metered costs. Each row aggregates R
// independent trials (graph, placement, counting and walk-token streams all
// forked per trial); cells show mean [min,max]. BZC_TRIALS / BZC_THREADS /
// BZC_N override the defaults (BZC_N=16384 BZC_TRIALS=48 is the token-arena
// perf sweep reported in DESIGN.md §7).
//
// The second half is the walk-adversary gallery: every strategy in
// src/adversary/ crossed with the placements the paper's discussion singles
// out, selected purely from the ScenarioSpec (DESIGN.md §7), plus the
// Remark 1 composition (VictimHunter × Placement::Surround) scored with
// coalitionScore.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "adversary/strategies.hpp"
#include "agreement/pipeline.hpp"
#include "obs/provenance.hpp"

int main() {
  using namespace bzc;
  using namespace bzc::bench;

  const NodeId n = nodeCount(1024);

  experimentHeader(
      "T7 — §1.1: counting -> agreement pipeline (n = " + std::to_string(n) +
          ", H(n,8), B = 8, adaptive adversary)",
      "'agree' is the fraction of honest nodes ending on the initial honest majority bit\n"
      "after the sampling+majority protocol; 'a-e' is the fraction of trials reaching\n"
      "almost-everywhere agreement (agree >= 90%). Initial split: 70/30. Rounds and\n"
      "message totals are engine-metered, not analytic. Cells aggregate R trials.");

  const double logN = std::log(static_cast<double>(n));
  const std::uint32_t trials = trialCount(5);
  ExperimentRunner runner(threadCount());
  std::cout << "trials/row=" << trials << "  threads=" << runner.threadCount() << "\n\n";

  Table table({"estimate source", "mean L", "agree", "a-e (90%)", "rounds", "messages",
               "compromised samples"});
  std::uint64_t row = 0;

  const auto addRow = [&](const std::string& name, const ExperimentSummary& s, double meanL) {
    table.addRow({name, Table::num(meanL, 2), distPercentCell(s.extras[kAgreementFracAgreeing]),
                  Table::percent(aeTrialFraction(s)), distCell(s.extras[kAgreementRounds], 0),
                  distCell(s.totalMessages, 0),
                  Table::integer(static_cast<long long>(s.extras[kAgreementCompromised].mean))});
  };

  AgreementParams agreeParams;
  agreeParams.initialOnesFraction = 0.7;

  double oracleAgree = 0;
  double pipelineAgree = 0;
  double tinyAgree = 0;

  const auto runUniformRow = [&](const std::string& name, double L) {
    ScenarioSpec spec;
    spec.name = "t7-" + name;
    spec.graph = {GraphKind::Hnd, n, 8, 0.1};
    spec.placement.kind = Placement::Random;
    spec.placement.count = 8;
    spec.protocol = ProtocolKind::Agreement;
    spec.agreementParams = agreeParams;
    spec.agreementEstimate = L;
    spec.trials = trials;
    spec.masterSeed = rowSeed(7, row++);
    const ExperimentSummary s = runScenario(runner, spec);
    addRow(name, s, s.extras[kAgreementMeanEstimate].mean);
    return s.extras[kAgreementFracAgreeing].mean;
  };

  oracleAgree = runUniformRow("oracle ln n", logN);
  tinyAgree = runUniformRow("too small (L=1)", 1.0);
  runUniformRow("overshoot (L=3 ln n)", 3.0 * logN);

  for (const auto& attack : {BeaconAdversaryProfile::none(), BeaconAdversaryProfile::flooder()}) {
    ScenarioSpec spec;
    spec.name = "t7-pipeline-" + attack.name;
    spec.graph = {GraphKind::Hnd, n, 8, 0.1};
    spec.placement.kind = Placement::Random;
    spec.placement.count = 8;
    spec.protocol = ProtocolKind::Pipeline;
    spec.beaconAdversary = attack;
    spec.pipelineParams.agreement = agreeParams;
    spec.pipelineParams.agreement.walkLengthFactor = 0.5;  // counting phases overshoot ln n
    spec.pipelineParams.estimateSafetyFactor = 1.5;
    spec.pipelineParams.countingLimits.maxPhase = static_cast<std::uint32_t>(std::ceil(logN)) + 3;
    spec.trials = trials;
    spec.masterSeed = rowSeed(7, row++);
    const ExperimentSummary s = runScenario(runner, spec);
    addRow("Algorithm 2 (" + attack.name + ")", s, s.extras[kAgreementMeanEstimate].mean);
    if (attack.name == "flooder") pipelineAgree = s.extras[kAgreementFracAgreeing].mean;
  }
  table.print(std::cout);

  shapeCheck("oracle log n reaches almost-everywhere agreement", oracleAgree >= 0.9);
  shapeCheck("counting-derived estimates match the oracle (within 5%)",
             pipelineAgree >= oracleAgree - 0.05);
  shapeCheck("a too-small estimate fails", tinyAgree < 0.9);

  // --- walk-adversary gallery: strategy × placement grid --------------------
  experimentHeader(
      "T7g — walk-adversary gallery (strategy × placement, n = " + std::to_string(n) +
          ", B = 8, oracle ln n)",
      "Every WalkAdversary strategy against every adversarial placement, selected\n"
      "purely from the ScenarioSpec. 'answered' counts sample slots whose answer\n"
      "reached its origin; dropped/flipped/misrouted/hits are the strategy's own\n"
      "signature counters (ExperimentSummary extras).");

  Table grid({"strategy", "placement", "agree", "a-e (90%)", "answered", "dropped", "flipped",
              "misrouted", "coalition hits"});
  const AgreementAttackProfile profiles[] = {
      AgreementAttackProfile::adaptiveMinority(), AgreementAttackProfile::dropper(),
      AgreementAttackProfile::flipper(),          AgreementAttackProfile::tamperer(),
      AgreementAttackProfile::hunter(2),
  };
  const struct {
    Placement kind;
    const char* name;
  } placements[] = {
      {Placement::Random, "random"},
      {Placement::Spread, "spread"},
      {Placement::Surround, "surround"},
  };
  double adaptiveRandomAgree = 0;
  double dropperRandomAgree = 0;
  bool mechanismsFired = true;
  for (const AgreementAttackProfile& profile : profiles) {
    for (const auto& placement : placements) {
      ScenarioSpec spec;
      spec.name = std::string("t7g-") + profile.name + "-" + placement.name;
      spec.graph = {GraphKind::Hnd, n, 8, 0.1};
      spec.placement.kind = placement.kind;
      spec.placement.count = 8;
      spec.placement.victim = 3;
      spec.placement.moatRadius = 2;
      spec.protocol = ProtocolKind::Agreement;
      spec.agreementParams = agreeParams;
      spec.agreementParams.attack = profile;
      spec.trials = trials;
      spec.masterSeed = rowSeed(7, row++);
      const ExperimentSummary s = runScenario(runner, spec);
      grid.addRow({profile.name, placement.name,
                   distPercentCell(s.extras[kAgreementFracAgreeing]),
                   Table::percent(aeTrialFraction(s)),
                   Table::num(s.extras[kAgreementAnswered].mean, 0),
                   Table::num(s.extras[kAgreementDropped].mean, 0),
                   Table::num(s.extras[kAgreementFlipped].mean, 0),
                   Table::num(s.extras[kAgreementMisrouted].mean, 0),
                   Table::num(s.extras[kAgreementCoalitionHits].mean, 0)});
      if (placement.kind == Placement::Random) {
        if (profile.kind == WalkAttackKind::AdaptiveMinority)
          adaptiveRandomAgree = s.extras[kAgreementFracAgreeing].mean;
        if (profile.kind == WalkAttackKind::TokenDropper)
          dropperRandomAgree = s.extras[kAgreementFracAgreeing].mean;
      }
      switch (profile.kind) {
        case WalkAttackKind::AdaptiveMinority:
          mechanismsFired = mechanismsFired && s.extras[kAgreementForged].min > 0;
          break;
        case WalkAttackKind::TokenDropper:
          mechanismsFired = mechanismsFired && s.extras[kAgreementDropped].min > 0;
          break;
        case WalkAttackKind::AnswerFlipper:
          mechanismsFired = mechanismsFired && s.extras[kAgreementFlipped].min > 0;
          break;
        case WalkAttackKind::PathTamperer:
          mechanismsFired = mechanismsFired && s.extras[kAgreementMisrouted].min > 0;
          break;
        case WalkAttackKind::VictimHunter:
          // Targeting is only guaranteed when the victim is actually walled
          // in; the surround row has ~10^3 victim-area tokens crossing an
          // 8-node moat, so zero hits would mean broken targeting.
          if (placement.kind == Placement::Surround) {
            mechanismsFired = mechanismsFired && s.extras[kAgreementCoalitionHits].min > 0;
          }
          break;
      }
    }
  }
  grid.print(std::cout);

  shapeCheck("every strategy's mechanism fires under every placement", mechanismsFired);
  shapeCheck("starving samples (dropper) is weaker than adaptive lying",
             dropperRandomAgree >= adaptiveRandomAgree - 0.02);

  // --- Remark 1 composition: VictimHunter × Placement::Surround -------------
  // Custom-trial row (final values are needed for coalitionScore): how much
  // of the victim's radius-2 neighbourhood each adversary flips when the
  // victim is walled off behind a Byzantine moat.
  experimentHeader(
      "T7h — Remark 1: victim surrounded (B large enough to man the moat), coalition scored",
      "coalitionScore = fraction of honest nodes within distance 2 of the victim\n"
      "ending OFF the initial honest majority. Every sample leaving the walled-off\n"
      "ball crosses the Byzantine boundary; the hunter poisons exactly those with\n"
      "one coalition-locked bit (surgical: global agreement survives), while the\n"
      "adaptive answerer at the same budget degrades the whole network.");
  Table remark({"strategy", "agree (global)", "victim-area flipped", "coalition hits",
                "blame conc", "top offender"});
  enum : std::size_t { kScore, kHits, kAgree, kConc, kTopShare, kRemarkSlots };
  double hunterScore = 0;
  double hunterGlobalDisagree = 0;
  for (const auto& profile :
       {AgreementAttackProfile::adaptiveMinority(), AgreementAttackProfile::hunter(2)}) {
    ScenarioSpec spec;
    spec.name = std::string("t7h-") + profile.name;
    spec.graph = {GraphKind::Hnd, n, 8, 0.1};
    spec.placement.kind = Placement::Surround;
    // A radius-2 boundary in H(n,8) has up to d(d-1) = 56 vertices; 64 nodes
    // seal the moat (Remark 1 needs the boundary fully Byzantine).
    spec.placement.count = 64;
    spec.placement.victim = 3;
    spec.placement.moatRadius = 2;
    spec.trials = trials;
    spec.masterSeed = rowSeed(7, row++);
    const ExperimentSummary s = runScenario(runner, spec.name, trials, [&](std::uint32_t index) {
      MaterializedTrial trial = materializeTrial(spec, index);
      AgreementParams params = agreeParams;
      params.attack = profile;
      params.victim = spec.placement.victim;
      const AgreementOutcome out = runMajorityAgreement(
          trial.graph, trial.byz, std::log(static_cast<double>(n)), params, trial.runRng);
      TrialOutcome t;
      t.quality.honestCount = out.honestCount;
      t.quality.decidedCount = out.honestCount;
      t.quality.fracDecided = out.honestCount > 0 ? 1.0 : 0.0;
      t.totalRounds = out.totalRounds;
      t.totalMessages = out.meter.totalMessages();
      t.totalBits = out.meter.totalBits();
      t.resultFingerprint = fingerprint(out, trial.graph.numNodes());
      t.extra.assign(kRemarkSlots, 0.0);
      t.extra[kScore] = coalitionScore(trial.graph, trial.byz, spec.placement.victim, 2,
                                       out.finalValues, out.initialMajority);
      t.extra[kHits] = static_cast<double>(out.adversary.coalitionHits);
      t.extra[kAgree] = out.fracAgreeing;
      // Blame-graph projections (DESIGN.md §14): how concentrated the damage
      // is over individual moat members. The hunter should look diffuse (the
      // whole moat participates); a lone tamperer would approach 1.0.
      const obs::BlameExtras blame = out.blame.extras();
      t.extra[kConc] = blame.concentration;
      t.extra[kTopShare] = blame.topShare;
      return t;
    });
    remark.addRow({profile.name, distPercentCell(s.extras[kAgree]),
                   distPercentCell(s.extras[kScore]), Table::num(s.extras[kHits].mean, 0),
                   Table::num(s.extras[kConc].mean, 3),
                   Table::percent(s.extras[kTopShare].mean)});
    if (profile.kind == WalkAttackKind::VictimHunter) {
      hunterScore = s.extras[kScore].mean;
      hunterGlobalDisagree = 1.0 - s.extras[kAgree].mean;
    }
  }
  remark.print(std::cout);
  shapeCheck("the hunter's damage concentrates on the victim area",
             hunterScore >= hunterGlobalDisagree);

  // --- T7i — budget-vs-damage frontier (ROADMAP open item) ------------------
  // Sweeps the Byzantine budget B for every walk-adversary strategy at fixed
  // n: how much damage (1 - agree) each marginal Byzantine node buys, per
  // strategy. Emits one JSON row per (strategy, B) cell for the nightly
  // trajectory diffs.
  experimentHeader(
      "T7i — budget-vs-damage frontier (n = " + std::to_string(n) +
          ", random placement, oracle ln n, B swept)",
      "'damage' is 1 - agree: the honest-agreement mass the strategy destroys at\n"
      "budget B. The adaptive answerer climbs fastest (every tainted sample lies\n"
      "consistently); droppers waste their budget (a lost sample only falls back\n"
      "to the node's own bit). The sqrt(n) threshold the paper's agreement\n"
      "discussion assumes sits inside this sweep's range.");

  Table frontier({"strategy", "B", "agree", "a-e (90%)", "damage", "compromised", "answered"});
  const std::size_t budgets[] = {4, 8, 16, 32, 64};
  const std::size_t maxB = budgets[std::size(budgets) - 1];
  double adaptiveDamage[2] = {0, 0};  // at the smallest and largest budgets
  double dropperDamageMax = 0;
  for (const AgreementAttackProfile& profile : profiles) {
    for (const std::size_t b : budgets) {
      ScenarioSpec spec;
      spec.name = std::string("t7i-") + profile.name + "-B" + std::to_string(b);
      spec.graph = {GraphKind::Hnd, n, 8, 0.1};
      spec.placement.kind = Placement::Random;
      spec.placement.count = b;
      spec.placement.victim = 3;
      spec.protocol = ProtocolKind::Agreement;
      spec.agreementParams = agreeParams;
      spec.agreementParams.attack = profile;
      spec.trials = trials;
      spec.masterSeed = rowSeed(7, row++);
      const ExperimentSummary s = runScenario(runner, spec);
      const double agree = s.extras[kAgreementFracAgreeing].mean;
      frontier.addRow({profile.name, Table::integer(static_cast<long long>(b)),
                       distPercentCell(s.extras[kAgreementFracAgreeing]),
                       Table::percent(aeTrialFraction(s)), Table::percent(1.0 - agree),
                       Table::num(s.extras[kAgreementCompromised].mean, 0),
                       Table::num(s.extras[kAgreementAnswered].mean, 0)});
      if (profile.kind == WalkAttackKind::AdaptiveMinority) {
        if (b == budgets[0]) adaptiveDamage[0] = 1.0 - agree;
        if (b == maxB) adaptiveDamage[1] = 1.0 - agree;
      }
      if (profile.kind == WalkAttackKind::TokenDropper && b == maxB) {
        dropperDamageMax = 1.0 - agree;
      }
    }
  }
  frontier.print(std::cout);
  shapeCheck("a 16x budget buys the adaptive answerer real damage",
             adaptiveDamage[1] > adaptiveDamage[0] + 0.05);
  shapeCheck("at the largest budget consistent lying beats starving (adaptive > dropper)",
             adaptiveDamage[1] > dropperDamageMax);
  return 0;
}
