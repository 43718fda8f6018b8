// ExperimentRunner: batched, seed-deterministic multi-trial execution.
//
// A ScenarioSpec names a workload (graph generator × Byzantine placement ×
// attack profile × protocol params); the runner fans R independent trials out
// over a thread pool. Trial i derives every random stream it touches from
// fork(masterSeed, i), so results are bit-identical regardless of thread
// count or scheduling — the property the runtime determinism tests pin down,
// and the statistical depth the paper-reproduction benches need (both
// Lenzen–Rybicki and Chatterjee–Pandurangan–Robinson evaluate across many
// placements/seeds). See DESIGN.md §5.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adversary/beacon/profile.hpp"
#include "adversary/coalition_plan.hpp"
#include "agreement/pipeline.hpp"
#include "churn/schedule.hpp"
#include "counting/baselines/geometric.hpp"
#include "counting/baselines/spanning_tree.hpp"
#include "counting/baselines/support_estimation.hpp"
#include "counting/beacon/params.hpp"
#include "counting/common.hpp"
#include "counting/local/attacks.hpp"
#include "counting/local/protocol.hpp"
#include "graph/graph.hpp"
#include "obs/provenance.hpp"
#include "sim/byzantine.hpp"
#include "support/rng.hpp"

namespace bzc {

class ThreadPool;

// --- workload description ---------------------------------------------------

enum class GraphKind {
  Hnd,                 ///< H(n,d) permutation model (union of d/2 cycles)
  ConfigurationModel,  ///< d-regular configuration model
  WattsStrogatz,       ///< ring lattice with rewiring
  Ring,
  BinaryTree,
  Complete,
};

struct GraphSpec {
  GraphKind kind = GraphKind::Hnd;
  NodeId n = 256;
  NodeId degree = 8;               ///< d (Hnd/ConfigurationModel), k (WattsStrogatz)
  double rewireProbability = 0.1;  ///< WattsStrogatz only
};

/// Materialises the graph for one trial from the trial's own stream.
[[nodiscard]] Graph buildGraph(const GraphSpec& spec, Rng& rng);

enum class ProtocolKind {
  Beacon,
  Local,
  GeometricMax,
  SupportEstimation,
  SpanningTree,
  Agreement,  ///< sampling+majority a-e agreement with a given estimate of log n
  Pipeline,   ///< Algorithm 2 counting feeding the agreement protocol (§1.1)
};

/// TrialOutcome::extra slots filled by the declarative Agreement and Pipeline
/// paths (runTrial). Benches index summary.extras with these.
enum AgreementExtraSlot : std::size_t {
  kAgreementFracAgreeing = 0,    ///< honest fraction ending on the initial majority
  kAgreementCompromised = 1,     ///< answered samples the adversary controlled
  kAgreementRounds = 2,          ///< engine rounds of the agreement stage alone
  kAgreementMeanEstimate = 3,    ///< mean L_u the agreement stage actually used
  // Walk-adversary diagnostics (src/adversary/): what the selected strategy
  // actually did. kAgreementAnswered counts resolved sample slots for every
  // profile; of the rest, only kAgreementForged is nonzero under the default
  // adaptive-minority profile (= its taint count), and kAgreementCoalitionHits
  // only under coalition strategies.
  kAgreementAnswered = 4,        ///< sample slots whose answer reached its origin
  kAgreementDropped = 5,         ///< queries + answers silently discarded
  kAgreementFlipped = 6,         ///< answer bits inverted in transit
  kAgreementMisrouted = 7,       ///< answers pushed off their reverse path
  kAgreementForged = 8,          ///< answers the adversary authored at walk end
  kAgreementCoalitionHits = 9,   ///< targets tallied on the Coalition blackboard
                                 ///< (cross-stage total for pipeline runs)
  // Beacon-adversary / mixed-coalition diagnostics (src/adversary/beacon/,
  // DESIGN.md §9). Zero for plain Agreement runs and for scenarios without a
  // CoalitionPlan; like every extra they stay outside fingerprint().
  kAgreementBeaconForged = 10,   ///< counting-stage beacons the adversary authored
  kAgreementCoalitionSubsets = 11,  ///< subsets of the CoalitionPlan (0 = no plan)
  kAgreementCombinedScore = 12,  ///< combinedCoalitionScore around the victim
  // Blame-graph projections (src/obs/provenance.hpp, DESIGN.md §14): scalar
  // summaries of TrialOutcome::blame. Like every extra they stay outside
  // fingerprint() — the blame graph is observational.
  kAgreementWrongDecisions = 13,    ///< honest verdicts flipped by compromised samples
  kAgreementBlameTotal = 14,        ///< attributed damage units (edge-count sum)
  kAgreementBlameConcentration = 15,  ///< HHI over per-cause blame shares
  kAgreementBlameTopShare = 16,     ///< top single offender's share of the blame
  kAgreementBlameSubset0 = 17,      ///< blame attributed to coalition subset 0
  kAgreementBlameSubset1 = 18,
  kAgreementBlameSubset2 = 19,
  kAgreementBlameSubset3 = 20,      ///< subsets >= 3 and unmapped causes pool here
  kAgreementExtraSlots = 21,
};

/// Names for the slots above, aligned by index (bench JSON labelling).
[[nodiscard]] const char* agreementExtraSlotName(std::size_t slot);

/// Graph × placement × attack × params × trial plan. Only the fields of the
/// selected protocol are read.
struct ScenarioSpec {
  std::string name = "scenario";
  GraphSpec graph;
  PlacementSpec placement;  ///< placement.count is used as-is when byzGamma == 0
  double byzGamma = 0.0;    ///< when > 0, count = byzantineBudget(n, byzGamma)

  ProtocolKind protocol = ProtocolKind::Beacon;
  /// Counting-stage adversary (src/adversary/beacon/) for Beacon and
  /// Pipeline scenarios; a TargetedFlooder left at kScenarioVictim anchors to
  /// placement.victim.
  BeaconAdversaryProfile beaconAdversary = BeaconAdversaryProfile::none();
  BeaconParams beaconParams;
  BeaconLimits beaconLimits;
  LocalParams localParams;
  /// Fresh adversary per trial (factories must be callable concurrently);
  /// nullptr = honest control.
  std::function<std::unique_ptr<LocalAdversary>()> localAdversary;
  GeometricAttack geometricAttack = GeometricAttack::None;
  GeometricParams geometricParams;
  SupportAttack supportAttack = SupportAttack::None;
  SupportParams supportParams;
  TreeAttack treeAttack = TreeAttack::None;
  TreeParams treeParams;
  AgreementParams agreementParams;
  /// Uniform estimate L for ProtocolKind::Agreement; <= 0 means the oracle
  /// ln n of the trial's graph.
  double agreementEstimate = 0.0;
  /// Counting and agreement stage parameters for ProtocolKind::Pipeline
  /// (beaconAdversary above selects the stage-1 adversary).
  PipelineParams pipelineParams;

  /// Mixed-coalition axis (src/adversary/coalition_plan.hpp). An empty plan
  /// is inert. When enabled for Beacon/Agreement/Pipeline scenarios, the
  /// Byzantine budget is partitioned into subsets with per-subset stage
  /// strategies (overriding beaconAdversary and the agreement attack
  /// profile), all sharing one per-trial Coalition blackboard.
  CoalitionPlan coalitionPlan;

  /// Dynamic-network axis (src/churn/). The default schedule is inert; when
  /// enabled, trials route through the EpochRunner: the overlay evolves for
  /// churn.epochs epochs and the selected protocol re-runs on the recount
  /// cadence, with churn diagnostics in the ChurnExtraSlot extras.
  ChurnSchedule churn;

  QualityWindow window{0.3, 1.8};
  std::uint32_t trials = 32;
  std::uint64_t masterSeed = 1;

  /// Intra-trial engine shards (DESIGN.md §10) for the sharded protocols
  /// (Beacon, Agreement, Pipeline — incl. their churn recounts). 0 leaves the
  /// protocol params untouched; > 0 overrides them. When shards exceeds 1,
  /// run() narrows the trial-level pool to threadCount() / shards so
  /// trials × shards stays within the core budget (DESIGN.md §5).
  std::uint32_t shards = 0;

  /// How many leading trials to trace when a TraceSink is installed
  /// (DESIGN.md §12). 0 inherits the process-wide width (BZC_TRACE_TRIALS,
  /// default 1); tracing stays off entirely while no sink is installed.
  /// Traces are observational: results are bit-identical either way.
  std::uint32_t traceTrials = 0;
};

// --- per-trial and aggregate results ----------------------------------------

/// The deterministic inputs of one trial, derived from (masterSeed, index).
struct MaterializedTrial {
  Graph graph;
  ByzantineSet byz;
  Rng runRng;  ///< the protocol's stream for this trial
};

/// Builds trial `index` of `spec`: graph, placement and protocol RNG all come
/// from forks of Rng(spec.masterSeed).fork(index). Exposed so custom trial
/// functions can reuse the exact derivation the declarative path uses.
[[nodiscard]] MaterializedTrial materializeTrial(const ScenarioSpec& spec, std::uint32_t index);

struct TrialOutcome {
  QualitySummary quality;
  Round totalRounds = 0;
  bool hitRoundCap = false;
  std::uint64_t totalMessages = 0;
  std::uint64_t totalBits = 0;
  std::uint64_t resultFingerprint = 0;  ///< fingerprint() of the CountingResult
  std::vector<double> extra;            ///< caller-defined metrics, aggregated by slot
  /// Causal damage attribution for the adversarial protocols (Beacon,
  /// Agreement, Pipeline — incl. churn trials, which merge every recount's
  /// graph plus the rejoin lineage). Collected unconditionally; exported only
  /// when BZC_ATTRIB installs a sink. Never folded into resultFingerprint.
  obs::BlameGraph blame;
};

/// Runs spec's protocol once on an explicit (graph, byz, stream) instead of a
/// materialised trial — the execution core shared by the static declarative
/// path and the per-epoch recounts of the churn EpochRunner (src/churn/),
/// which is what makes a zero-churn epoch bit-identical to the static run.
/// Victim-centric strategies read spec.placement.victim; callers on shrunken
/// graphs must clamp it below numNodes first.
[[nodiscard]] TrialOutcome runProtocolTrial(const ScenarioSpec& spec, const Graph& graph,
                                            const ByzantineSet& byz, Rng runRng);

/// Distribution of one metric over the R trials.
struct Distribution {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p10 = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double stddev = 0.0;  ///< sample stddev (n-1); 0 for a single trial
  /// Seeded-bootstrap 95% CI of the mean (percentile method, B = 200
  /// resamples). Computed only by the Rng overload; the runner seeds it in
  /// the serial aggregation pass, so CIs are thread-count invariant like
  /// every other summary field. Degenerate (= mean) for a single trial.
  double ci95lo = 0.0;
  double ci95hi = 0.0;

  [[nodiscard]] static Distribution of(std::vector<double> sample);
  /// Same, plus the bootstrap CI drawn from `boot` (consumed by value: each
  /// metric slot gets its own forked stream).
  [[nodiscard]] static Distribution of(std::vector<double> sample, Rng boot);
};

struct ExperimentSummary {
  std::string name;
  std::uint32_t trials = 0;
  std::size_t cappedTrials = 0;  ///< trials stopped by the round cap

  Distribution fracDecided;
  Distribution fracWithinWindow;
  Distribution meanRatio;
  Distribution totalRounds;
  Distribution totalMessages;
  Distribution totalBits;
  std::vector<Distribution> extras;  ///< one per TrialOutcome::extra slot

  /// Order-sensitive hash over all per-trial fingerprints: equal across runs
  /// iff every trial produced identical results in identical trial order —
  /// the witness the thread-count-invariance tests compare.
  std::uint64_t combinedFingerprint = 0;

  std::vector<TrialOutcome> perTrial;  ///< indexed by trial
};

// --- the runner -------------------------------------------------------------

class ExperimentRunner {
 public:
  /// threads == 0 picks the hardware concurrency.
  explicit ExperimentRunner(unsigned threads = 0);
  ~ExperimentRunner();

  [[nodiscard]] unsigned threadCount() const noexcept;

  /// Runs one declarative trial; pure function of (spec, index).
  [[nodiscard]] static TrialOutcome runTrial(const ScenarioSpec& spec, std::uint32_t index);

  /// Fans spec.trials declarative trials out over the pool.
  [[nodiscard]] ExperimentSummary run(const ScenarioSpec& spec);

  /// Custom path: fn(index) must be thread-safe and a pure function of the
  /// index (use materializeTrial / Rng(masterSeed).fork(index) inside).
  using TrialFn = std::function<TrialOutcome(std::uint32_t index)>;
  [[nodiscard]] ExperimentSummary runCustom(const std::string& name, std::uint32_t trials,
                                            const TrialFn& fn);

 private:
  /// Shared fan-out core: aggregation is identical whichever pool runs it.
  /// traceTrials > 0 overrides the process-wide trace sample width.
  static ExperimentSummary runWith(ThreadPool& pool, const std::string& name,
                                   std::uint32_t trials, const TrialFn& fn,
                                   std::uint32_t traceTrials = 0);

  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace bzc
