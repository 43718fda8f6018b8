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
//
// With a TraceSink installed, the leading traceTrials of each scenario run
// traced and are handed to the sink serially, in trial order, after the
// fan-out, each carrying its blame graph. BZC_TRACE=path installs the one
// file sink, the run record (obs/sinks.hpp, DESIGN.md §12).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
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
#include "support/require.hpp"
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
  /// cadence, with churn diagnostics in the extras (DESIGN.md §11).
  ChurnSchedule churn;

  QualityWindow window{0.3, 1.8};
  std::uint32_t trials = 32;
  std::uint64_t masterSeed = 1;

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

/// Insertion-ordered name → value record: a trial's diagnostics
/// (TrialOutcome::extra) and their distributions over the trials
/// (ExperimentSummary::extras). A flat vector of pairs with linear lookup —
/// a record holds a few dozen names at most.
template <typename V>
class NamedValues {
 public:
  using Entry = std::pair<std::string, V>;

  /// Appends `name`, or overwrites its value in place when already present.
  void set(std::string_view name, V value) {
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const Entry& e) { return e.first == name; });
    if (it != entries_.end()) {
      it->second = std::move(value);
    } else {
      entries_.emplace_back(std::string(name), std::move(value));
    }
  }

  /// The value under `name`; throws std::invalid_argument when it is missing.
  [[nodiscard]] const V& at(std::string_view name) const {
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const Entry& e) { return e.first == name; });
    BZC_REQUIRE(it != entries_.end(), "no extra named \"" + std::string(name) + "\"");
    return it->second;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }

 private:
  std::vector<Entry> entries_;
};

/// Name of the honest agreeing fraction in Agreement/Pipeline extras.
/// perfbench/perfbench.cpp reads the extra through this constant and
/// perfbench/ changes only with the benchmark, so it stays until then.
inline constexpr std::string_view kAgreementFracAgreeing = "fracAgreeing";

struct TrialOutcome {
  QualitySummary quality;
  Round totalRounds = 0;
  bool hitRoundCap = false;
  std::uint64_t totalMessages = 0;
  std::uint64_t totalBits = 0;
  std::uint64_t resultFingerprint = 0;  ///< fingerprint() of the CountingResult
  NamedValues<double> extra;            ///< caller-defined metrics, aggregated by name
  /// Causal damage attribution for the adversarial protocols (Beacon,
  /// Agreement, Pipeline — incl. churn trials, which merge every recount's
  /// graph plus the rejoin lineage). Collected unconditionally; exported only
  /// as the `blame` line of a sampled trial's run record (BZC_TRACE). Never
  /// folded into resultFingerprint.
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
  /// metric gets its own forked stream).
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
  NamedValues<Distribution> extras;  ///< one per TrialOutcome::extra name

  /// Order-sensitive hash over all per-trial fingerprints: equal across runs
  /// iff every trial produced identical results in identical trial order —
  /// the witness the thread-count-invariance tests compare.
  std::uint64_t combinedFingerprint = 0;

  std::vector<TrialOutcome> perTrial;  ///< indexed by trial
};

// --- the runner -------------------------------------------------------------

class ExperimentRunner {
 public:
  /// threads == 0 picks the hardware concurrency; more than kMaxPoolThreads
  /// throws. Trials spread their own work over the same pool (trialPool()).
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
  /// Shared fan-out core of run and runCustom. traceTrials > 0 overrides
  /// the process-wide trace sample width.
  ExperimentSummary runWith(const std::string& name, std::uint32_t trials, const TrialFn& fn,
                            std::uint32_t traceTrials = 0);

  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace bzc
