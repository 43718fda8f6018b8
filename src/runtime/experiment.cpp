#include "runtime/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "adversary/coalition.hpp"
#include "churn/epoch_runner.hpp"
#include "counting/beacon/protocol.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/thread_pool.hpp"
#include "support/require.hpp"
#include "support/stats.hpp"

namespace bzc {

Graph buildGraph(const GraphSpec& spec, Rng& rng) {
  switch (spec.kind) {
    case GraphKind::Hnd: return hnd(spec.n, spec.degree, rng);
    case GraphKind::ConfigurationModel: return configurationModel(spec.n, spec.degree, rng);
    case GraphKind::WattsStrogatz:
      return wattsStrogatz(spec.n, spec.degree, spec.rewireProbability, rng);
    case GraphKind::Ring: return ring(spec.n);
    case GraphKind::BinaryTree: return binaryTree(spec.n);
    case GraphKind::Complete: return complete(spec.n);
  }
  BZC_REQUIRE(false, "unknown graph kind");
  return {};
}

namespace {

// Stream tags for the per-trial forks; arbitrary but fixed forever (changing
// them silently invalidates every pinned expectation downstream).
constexpr std::uint64_t kGraphStream = 0x6a4f;
constexpr std::uint64_t kPlacementStream = 0xb52d;
constexpr std::uint64_t kProtocolStream = 0x52aa;

}  // namespace

MaterializedTrial materializeTrial(const ScenarioSpec& spec, std::uint32_t index) {
  const Rng master(spec.masterSeed);
  const Rng trialRng = master.fork(index);

  Rng graphRng = trialRng.fork(kGraphStream);
  Graph graph = buildGraph(spec.graph, graphRng);

  PlacementSpec placement = spec.placement;
  if (spec.byzGamma > 0.0) placement.count = byzantineBudget(spec.graph.n, spec.byzGamma);
  Rng placeRng = trialRng.fork(kPlacementStream);
  ByzantineSet byz = placeByzantine(graph, placement, placeRng);

  return {std::move(graph), std::move(byz), trialRng.fork(kProtocolStream)};
}

namespace {

/// Shared summary shape for the two agreement-bearing protocol kinds: the
/// agreement stage's fingerprint and extra metrics are appended onto
/// whatever the caller already accumulated (cost totals stay the caller's
/// responsibility — the pipeline defines its own in PipelineOutcome).
/// The walk-adversary diagnostics say what the selected strategy did:
/// "answered" counts resolved sample slots under every profile; of the rest,
/// only "forged" is nonzero under the default adaptive minority (= its taint
/// count), and "coalitionHits" only under coalition strategies (the
/// cross-stage total for pipeline runs).
void foldAgreementStage(TrialOutcome& outcome, const AgreementOutcome& agreement, NodeId n,
                        double meanEstimate) {
  const std::uint64_t stageFp = fingerprint(agreement, n);
  outcome.resultFingerprint = fnv1a64(&stageFp, sizeof stageFp, outcome.resultFingerprint);
  const AdversaryStats& adv = agreement.adversary;
  outcome.extra.set("fracAgreeing", agreement.fracAgreeing);
  // Answered samples the adversary controlled, the agreement stage's own
  // engine rounds, and the mean L_u it actually ran with.
  outcome.extra.set("compromised", static_cast<double>(agreement.compromisedSamples));
  outcome.extra.set("agreementRounds", static_cast<double>(agreement.totalRounds));
  outcome.extra.set("meanEstimate", meanEstimate);
  outcome.extra.set("answered", static_cast<double>(agreement.answeredSamples));
  outcome.extra.set("dropped", static_cast<double>(adv.droppedQueries + adv.droppedAnswers));
  outcome.extra.set("flipped", static_cast<double>(adv.flippedAnswers));
  outcome.extra.set("misrouted", static_cast<double>(adv.misroutedAnswers));
  outcome.extra.set("forged", static_cast<double>(adv.forgedAnswers));
  outcome.extra.set("coalitionHits", static_cast<double>(adv.coalitionHits));
}

/// Scalar projections of the assembled blame graph into the extras. Call
/// after outcome.blame is final — subsetOf annotation included, since the
/// per-subset split reads it.
void foldBlameExtras(TrialOutcome& outcome) {
  const obs::BlameExtras x = outcome.blame.extras();
  outcome.extra.set("wrongDecisions", static_cast<double>(x.wrongDecisions));
  outcome.extra.set("blameTotal", static_cast<double>(x.total));
  outcome.extra.set("blameConcentration", x.concentration);
  outcome.extra.set("blameTopShare", x.topShare);
  for (std::size_t s = 0; s < obs::kBlameMaxSubsets; ++s) {
    outcome.extra.set("blameSubset" + std::to_string(s), static_cast<double>(x.bySubset[s]));
  }
}

/// BFS hop distance from the placement victim (0xffff = unreachable), used
/// by the blame-concentration-vs-distance curves in `tools/run_record.py blame`.
/// Computed only for sampled (traced) trials — it is O(n + m) per trial.
std::vector<std::uint16_t> victimDistances(const Graph& g, NodeId victim) {
  if (victim >= g.numNodes()) return std::vector<std::uint16_t>(g.numNodes(), 0xffff);
  const std::vector<std::uint32_t> dist = bfsDistances(g, victim);
  std::vector<std::uint16_t> narrow(dist.size());
  std::transform(dist.begin(), dist.end(), narrow.begin(), [](std::uint32_t d) {
    return static_cast<std::uint16_t>(std::min<std::uint32_t>(d, 0xffff));
  });
  return narrow;
}

}  // namespace

TrialOutcome ExperimentRunner::runTrial(const ScenarioSpec& spec, std::uint32_t index) {
  if (spec.churn.enabled()) return runChurnTrial(spec, index);
  MaterializedTrial trial = materializeTrial(spec, index);
  return runProtocolTrial(spec, trial.graph, trial.byz, std::move(trial.runRng));
}

TrialOutcome runProtocolTrial(const ScenarioSpec& spec, const Graph& graph,
                              const ByzantineSet& byz, Rng runRng) {
  // Reference view shaped like MaterializedTrial so the protocol dispatch
  // below reads identically to the pre-split runTrial (no graph copies).
  struct {
    const Graph& graph;
    const ByzantineSet& byz;
    Rng& runRng;
  } trial{graph, byz, runRng};
  const NodeId n = trial.graph.numNodes();

  // Mixed-coalition and gallery-native beacon adversaries are materialised
  // per trial here, so both axes stay selectable purely from the spec.
  const bool adversarial = spec.protocol == ProtocolKind::Beacon ||
                           spec.protocol == ProtocolKind::Agreement ||
                           spec.protocol == ProtocolKind::Pipeline;
  const bool hasPlan = adversarial && spec.coalitionPlan.enabled();
  const NodeId victim = spec.placement.victim;
  CoalitionAssignment assignment;
  if (hasPlan) assignment = partitionBudget(spec.coalitionPlan, trial.byz);
  const auto makeSpecBeaconAdversary = [&]() -> std::unique_ptr<BeaconAdversary> {
    if (hasPlan) {
      return makeCoalitionBeaconAdversary(spec.coalitionPlan, assignment, trial.graph, trial.byz,
                                          victim);
    }
    return makeBeaconAdversary(anchorBeaconProfile(spec.beaconAdversary, victim), trial.graph,
                               trial.byz);
  };
  const auto planExtras = [&](TrialOutcome& outcome, const PipelineOutcome* pipeline,
                              const AgreementOutcome& agreement) {
    outcome.extra.set(
        "beaconForged",
        pipeline != nullptr
            ? static_cast<double>(pipeline->counting.stats.adversary.beaconsForged)
            : 0.0);
    // Zero without a plan: every Agreement/Pipeline trial carries one layout.
    outcome.extra.set("coalitionSubsets",
                      hasPlan ? static_cast<double>(spec.coalitionPlan.subsets.size()) : 0.0);
    double score = 0.0;
    if (hasPlan) {
      const std::uint32_t radius = spec.coalitionPlan.scoreRadius;
      score = pipeline != nullptr
                  ? combinedCoalitionScore(trial.graph, trial.byz, victim, radius,
                                           pipeline->counting.result, spec.window,
                                           agreement.finalValues, agreement.initialMajority)
                  : coalitionScore(trial.graph, trial.byz, victim, radius,
                                   agreement.finalValues, agreement.initialMajority);
    }
    outcome.extra.set("combinedScore", score);
  };
  // Export-side blame annotations (DESIGN.md §14): subset labels when a
  // coalition plan partitioned the budget, victim BFS distances for sampled
  // (traced) trials only. Neither feeds back into protocol state.
  const auto annotateBlame = [&](TrialOutcome& outcome) {
    if (hasPlan) outcome.blame.subsetOf = assignment.subsetOf;
    if (obs::currentTrace() != nullptr) {
      outcome.blame.victimDistance = victimDistances(trial.graph, victim);
    }
  };

  if (spec.protocol == ProtocolKind::Agreement) {
    const double L =
        spec.agreementEstimate > 0.0 ? spec.agreementEstimate : std::log(static_cast<double>(n));
    // Victim-centric strategies target the placement's victim — the attack is
    // selectable purely from the ScenarioSpec.
    AgreementParams aParams = spec.agreementParams;
    aParams.victim = victim;
    std::unique_ptr<WalkAdversary> planWalk;
    if (hasPlan) {
      planWalk = makeCoalitionWalkAdversary(spec.coalitionPlan, assignment, trial.graph,
                                            trial.byz, victim);
    }
    AgreementOutcome out =
        runMajorityAgreement(trial.graph, trial.byz, L, aParams, trial.runRng, planWalk.get());
    TrialOutcome outcome;
    outcome.blame = std::move(out.blame);
    outcome.quality.honestCount = out.honestCount;
    outcome.quality.decidedCount = out.honestCount;  // every honest node ends with a bit
    outcome.quality.fracDecided = out.honestCount > 0 ? 1.0 : 0.0;
    outcome.totalRounds = out.totalRounds;
    outcome.totalMessages = out.meter.totalMessages();
    outcome.totalBits = out.meter.totalBits();
    foldAgreementStage(outcome, out, n, L);
    planExtras(outcome, nullptr, out);
    annotateBlame(outcome);
    foldBlameExtras(outcome);
    return outcome;
  }
  if (spec.protocol == ProtocolKind::Pipeline) {
    PipelineParams pParams = spec.pipelineParams;
    pParams.agreement.victim = victim;
    const std::unique_ptr<BeaconAdversary> beaconAdv = makeSpecBeaconAdversary();
    std::unique_ptr<WalkAdversary> planWalk;
    if (hasPlan) {
      planWalk = makeCoalitionWalkAdversary(spec.coalitionPlan, assignment, trial.graph,
                                            trial.byz, victim);
    }
    const PipelineOutcome out = runCountingThenAgreement(
        trial.graph, trial.byz, PipelineAdversaries{*beaconAdv, planWalk.get()}, pParams,
        trial.runRng);
    TrialOutcome outcome;
    outcome.quality = evaluateQuality(out.counting.result, trial.byz, n, spec.window);
    outcome.totalRounds = out.totalRounds;
    outcome.hitRoundCap = out.counting.result.hitRoundCap;
    outcome.totalMessages = out.totalMessages;
    outcome.totalBits = out.totalBits;
    outcome.resultFingerprint = fingerprint(out.counting.result, n);
    double meanL = 0.0;
    std::size_t decided = 0;
    for (NodeId u = 0; u < n; ++u) {
      if (trial.byz.contains(u) || !out.counting.result.decisions[u].decided) continue;
      meanL += spec.pipelineParams.estimateSafetyFactor * out.counting.result.decisions[u].estimate;
      ++decided;
    }
    foldAgreementStage(outcome, out.agreement, n,
                       decided > 0 ? meanL / static_cast<double>(decided) : 0.0);
    planExtras(outcome, &out, out.agreement);
    // Both stages' blame graphs fold into one trial graph — keyed sums, so
    // the merge order is immaterial.
    outcome.blame.merge(out.counting.blame);
    outcome.blame.merge(out.agreement.blame);
    annotateBlame(outcome);
    foldBlameExtras(outcome);
    return outcome;
  }

  CountingResult result;
  obs::BlameGraph blame;
  switch (spec.protocol) {
    case ProtocolKind::Beacon: {
      const std::unique_ptr<BeaconAdversary> beaconAdv = makeSpecBeaconAdversary();
      BeaconOutcome bo = runBeaconCounting(trial.graph, trial.byz, *beaconAdv, spec.beaconParams,
                                           spec.beaconLimits, trial.runRng);
      blame = std::move(bo.blame);
      result = std::move(bo.result);
      break;
    }
    case ProtocolKind::Local: {
      std::unique_ptr<LocalAdversary> adversary =
          spec.localAdversary ? spec.localAdversary() : makeHonestLocalAdversary();
      result = runLocalCounting(trial.graph, trial.byz, *adversary, spec.localParams,
                                trial.runRng, spec.placement.victim)
                   .result;
      break;
    }
    case ProtocolKind::GeometricMax:
      result = runGeometricMax(trial.graph, trial.byz, spec.geometricAttack, spec.geometricParams,
                               trial.runRng);
      break;
    case ProtocolKind::SupportEstimation:
      result = runSupportEstimation(trial.graph, trial.byz, spec.supportAttack, spec.supportParams,
                                    trial.runRng);
      break;
    case ProtocolKind::SpanningTree: {
      TreeParams params = spec.treeParams;
      // The protocol requires an honest root; random placement may have taken
      // the configured one, so fall back to the smallest honest node.
      if (trial.byz.contains(params.root)) {
        for (NodeId u = 0; u < n; ++u) {
          if (!trial.byz.contains(u)) {
            params.root = u;
            break;
          }
        }
      }
      result = runSpanningTreeCount(trial.graph, trial.byz, spec.treeAttack, params);
      break;
    }
    case ProtocolKind::Agreement:
    case ProtocolKind::Pipeline:
      BZC_REQUIRE(false, "agreement protocols are handled before the counting switch");
      break;
  }

  TrialOutcome outcome;
  outcome.quality = evaluateQuality(result, trial.byz, n, spec.window);
  outcome.totalRounds = result.totalRounds;
  outcome.hitRoundCap = result.hitRoundCap;
  outcome.totalMessages = result.meter.totalMessages();
  outcome.totalBits = result.meter.totalBits();
  outcome.resultFingerprint = fingerprint(result, n);
  outcome.blame = std::move(blame);
  if (!outcome.blame.empty()) annotateBlame(outcome);
  return outcome;
}

namespace {

/// Quantile q of an ascending-sorted, non-empty sample, interpolated linearly
/// between the two nearest order statistics.
double sortedQuantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = lo + 1 < sorted.size() ? lo + 1 : lo;
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

Distribution Distribution::of(std::vector<double> sample) {
  Distribution d;
  if (sample.empty()) return d;
  RunningStat stat;
  for (double x : sample) stat.add(x);
  d.mean = stat.mean();
  d.min = stat.min();
  d.max = stat.max();
  d.stddev = stat.stddev();
  // No bootstrap stream: the CI degenerates to the point estimate.
  d.ci95lo = d.mean;
  d.ci95hi = d.mean;
  // Sort once; quantile() would otherwise copy and re-sort per call.
  std::sort(sample.begin(), sample.end());
  d.p10 = sortedQuantile(sample, 0.10);
  d.p50 = sortedQuantile(sample, 0.50);
  d.p90 = sortedQuantile(sample, 0.90);
  return d;
}

Distribution Distribution::of(std::vector<double> sample, Rng boot) {
  Distribution d = of(sample);
  const std::size_t n = sample.size();
  if (n < 2) return d;  // CI stays the point estimate
  // Percentile bootstrap of the mean: B resample means, 2.5%/97.5% order
  // statistics. The stream is a fork of a fixed seed taken in the serial
  // aggregation pass, so the CI is bit-identical at any thread count.
  constexpr std::size_t kResamples = 200;
  std::vector<double> means(kResamples);
  for (std::size_t b = 0; b < kResamples; ++b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += sample[boot.uniform(n)];
    means[b] = sum / static_cast<double>(n);
  }
  std::sort(means.begin(), means.end());
  d.ci95lo = sortedQuantile(means, 0.025);
  d.ci95hi = sortedQuantile(means, 0.975);
  return d;
}

ExperimentRunner::ExperimentRunner(unsigned threads)
    : pool_(std::make_unique<ThreadPool>(threads)) {}

ExperimentRunner::~ExperimentRunner() = default;

unsigned ExperimentRunner::threadCount() const noexcept { return pool_->threadCount(); }

ExperimentSummary ExperimentRunner::run(const ScenarioSpec& spec) {
  const TrialFn fn = [&spec](std::uint32_t index) { return runTrial(spec, index); };
  return runWith(spec.name, spec.trials, fn, spec.traceTrials);
}

ExperimentSummary ExperimentRunner::runCustom(const std::string& name, std::uint32_t trials,
                                              const TrialFn& fn) {
  return runWith(name, trials, fn);
}

ExperimentSummary ExperimentRunner::runWith(const std::string& name, std::uint32_t trials,
                                            const TrialFn& fn, std::uint32_t traceTrials) {
  BZC_REQUIRE(trials > 0, "need at least one trial");
  ThreadPool& pool = *pool_;
  // Trace sampling (DESIGN.md §12): the first `width` trials get a private
  // event buffer installed scoped around their execution. Probes never feed
  // back into protocol state, so outcomes are unchanged; buffers drain to the
  // sink serially in trial index order below, which makes the exported stream
  // deterministic even though trials run on arbitrary workers.
  obs::ensureEnvTraceConfig();
  const std::shared_ptr<obs::TraceSink> sink = obs::traceSink();
  const std::uint32_t width =
      sink != nullptr
          ? std::min(trials, traceTrials > 0 ? traceTrials : obs::traceSampleTrials())
          : 0;
  std::vector<std::unique_ptr<obs::TrialTrace>> traces(width);
  for (std::uint32_t i = 0; i < width; ++i) {
    traces[i] = std::make_unique<obs::TrialTrace>();
    traces[i]->scenario = name;
    traces[i]->trial = i;
  }
  std::vector<TrialOutcome> outcomes(trials);
  // Which thread runs a trial never matters (pure function of the index).
  // A one-trial run gets no helper, so it runs on this thread with every
  // worker free for its own work. A trial spreads that work (Algorithm 1's
  // end-of-round passes, the epoch pipeline's recounts) over this same pool
  // through trialPool(), except a traced one, which runs it inline on its
  // own thread so that its spans nest (DESIGN.md §5).
  pool.parallelFor(trials, pool.threadCount() - 1, [&](std::size_t i) {
    if (i < width) {
      const ThreadPool::TrialPoolScope inlinePool(nullptr);
      const obs::TraceScope scope(traces[i].get());
      const obs::ScopedTimer timer("trial");
      outcomes[i] = fn(static_cast<std::uint32_t>(i));
    } else {
      const ThreadPool::TrialPoolScope runnerPool(&pool);
      outcomes[i] = fn(static_cast<std::uint32_t>(i));
    }
  });
  for (std::uint32_t i = 0; i < width; ++i) {
    // Sampled trials carry their blame graph out with the trace, so the
    // run record's blame line is the same per-trial attribution the extras
    // project.
    traces[i]->blame = outcomes[i].blame;
    sink->consume(*traces[i]);
  }

  // Aggregation walks trials in index order, so the summary (and especially
  // combinedFingerprint) is independent of which worker ran which trial.
  ExperimentSummary summary;
  summary.name = name;
  summary.trials = trials;

  std::vector<double> fracDecided, fracWithin, meanRatio, rounds, messages, bits;
  fracDecided.reserve(trials);
  fracWithin.reserve(trials);
  meanRatio.reserve(trials);
  rounds.reserve(trials);
  messages.reserve(trials);
  bits.reserve(trials);
  // Extras aggregate by name: every trial carries the first trial's names
  // in the same order, and the k-th name keeps bootstrap stream 16 + k.
  const NamedValues<double>& layout = outcomes.front().extra;
  std::vector<std::vector<double>> extras(layout.size());

  std::uint64_t combined = 0xcbf29ce484222325ULL;
  for (const TrialOutcome& t : outcomes) {
    BZC_REQUIRE(std::equal(t.extra.begin(), t.extra.end(), layout.begin(), layout.end(),
                           [](const auto& a, const auto& b) { return a.first == b.first; }),
                "trials disagree on extra metric names or order");
    fracDecided.push_back(t.quality.fracDecided);
    fracWithin.push_back(t.quality.fracWithinWindow);
    meanRatio.push_back(t.quality.meanRatio);
    rounds.push_back(static_cast<double>(t.totalRounds));
    messages.push_back(static_cast<double>(t.totalMessages));
    bits.push_back(static_cast<double>(t.totalBits));
    std::size_t k = 0;
    for (const auto& [name, value] : t.extra) extras[k++].push_back(value);
    if (t.hitRoundCap) ++summary.cappedTrials;
    combined = fnv1a64(&t.resultFingerprint, sizeof t.resultFingerprint, combined);
  }
  // Bootstrap CIs: one forked stream per metric off a fixed seed, drawn
  // here in the serial pass — deterministic and thread-count invariant
  // (tests/metrics_test.cpp pins the bitwise identity across runner widths).
  const Rng boot(0xb0075eedULL);
  summary.fracDecided = Distribution::of(std::move(fracDecided), boot.fork(0));
  summary.fracWithinWindow = Distribution::of(std::move(fracWithin), boot.fork(1));
  summary.meanRatio = Distribution::of(std::move(meanRatio), boot.fork(2));
  summary.totalRounds = Distribution::of(std::move(rounds), boot.fork(3));
  summary.totalMessages = Distribution::of(std::move(messages), boot.fork(4));
  summary.totalBits = Distribution::of(std::move(bits), boot.fork(5));
  std::size_t k = 0;
  for (const auto& [name, value] : layout) {
    summary.extras.set(name, Distribution::of(std::move(extras[k]), boot.fork(16 + k)));
    ++k;
  }
  summary.combinedFingerprint = combined;
  summary.perTrial = std::move(outcomes);
  return summary;
}

}  // namespace bzc
