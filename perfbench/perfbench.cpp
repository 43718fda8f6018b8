// Repository benchmark binary: runs one workload in its own process and
// prints its raw measurements as one JSON object on the last stdout line.
//
//   perfbench --workload NAME --seed N --seconds S --mode plain|traced [--tiny]
//
// plain   End-to-end timing through ExperimentRunner::run with tracing off.
//         The exact trial set always runs first; further runs cycle through
//         it for S seconds after it (S = 0: the exact set only).
// traced  The exact trial set through ExperimentRunner::runCustom with a
//         benchmark-owned trace sink that folds the spans, round records and
//         counters the library emits into per-layer self times and counts.
//
// Every input derives from --seed: unit u (one run() call of `batch` trials)
// gets masterSeed = Rng(seed).fork(u).next(). perfbench/run.py builds this
// binary, runs it and turns the raw numbers into the metrics BENCHMARK.json
// declares.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "churn/schedule.hpp"
#include "obs/trace.hpp"
#include "runtime/experiment.hpp"
#include "sim/byzantine.hpp"
#include "support/rng.hpp"

namespace {

using namespace bzc;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  ScenarioSpec spec;        ///< trials and masterSeed are set per unit
  std::uint32_t batch = 1;  ///< trials per run() call; 1 = one trial in flight
  std::uint32_t units = 1;  ///< distinct unit seeds: the exact trial set
  /// Single-trial run() calls before each batch (fan-out workloads only;
  /// their latency sample), cycling over `latencyUnits` distinct unit seeds.
  /// Trial costs differ by up to 2x between seeds, so the sample must span
  /// many of them for its median to stay put from one --seed to the next.
  std::uint32_t latencyTrials = 0;
  std::uint32_t latencyUnits = 0;
  /// Protocol span name in traced trials: a layer name when the protocol
  /// emits no spans of its own, "bench.protocol" otherwise.
  const char* protocolSpan = "bench.protocol";
  double minFracDecided = 0.0;  ///< output checks on the exact set's means
  double minQuality = 0.0;
};

/// The benches' Algorithm 2 phase cap, ceil(ln n) + 3: past it the flooder
/// only runs the trial into the engine's round cap.
std::uint32_t phaseCap(NodeId n) {
  return static_cast<std::uint32_t>(std::ceil(std::log(static_cast<double>(n)))) + 3;
}

Workload makeWorkload(const std::string& name, bool tiny) {
  Workload w;
  ScenarioSpec& s = w.spec;
  s.name = name;
  s.placement.kind = Placement::Random;
  if (name == "count-flood") {
    // Algorithm 2 under its worst flooding adversary.
    s.graph = {GraphKind::Hnd, tiny ? NodeId{128} : NodeId{1024}, 8, 0.1};
    s.byzGamma = 0.55;
    s.protocol = ProtocolKind::Beacon;
    s.beaconAdversary = BeaconAdversaryProfile::flooder();
    s.beaconLimits.maxPhase = phaseCap(s.graph.n);
    w.units = tiny ? 2 : 8;
    w.minFracDecided = 0.75;  // the flooder keeps about 16% undecided at n = 1024
    w.minQuality = 0.75;
  } else if (name == "agree-walk") {
    // Oracle-estimate sampling-and-majority agreement, adaptive minority.
    s.graph = {GraphKind::Hnd, tiny ? NodeId{512} : NodeId{8192}, 8, 0.1};
    s.byzGamma = 0.55;
    s.protocol = ProtocolKind::Agreement;
    w.units = tiny ? 2 : 8;
    w.minFracDecided = 1.0;
    w.minQuality = 0.9;
  } else if (name == "churn-pipeline") {
    // Steady churn; counting -> agreement recount every epoch, fanned out.
    const NodeId n = tiny ? 256 : 2048;
    s.graph = {GraphKind::Hnd, n, 8, 0.1};
    s.placement.count = 8;
    s.protocol = ProtocolKind::Pipeline;
    s.pipelineParams.agreement.initialOnesFraction = 0.7;
    s.pipelineParams.agreement.walkLengthFactor = 0.5;
    s.pipelineParams.estimateSafetyFactor = 1.5;
    s.pipelineParams.countingLimits.maxPhase = phaseCap(n) + 1;
    s.churn = ChurnSchedule::steady(6, /*rate=*/0.06);
    w.batch = 8;
    w.units = tiny ? 1 : 4;
    w.latencyTrials = tiny ? 1 : 4;
    w.latencyUnits = tiny ? 2 : 48;
    w.minFracDecided = 0.99;
    w.minQuality = 0.9;
  } else if (name == "local-count") {
    // Algorithm 1; Byzantine nodes follow the protocol (the default honest
    // local adversary), which forces full view growth. n = 768 decides in 5
    // rounds on every seed; n = 1024 sits where trials flip between 5 and 6
    // rounds, which swings time and memory by seed.
    s.graph = {GraphKind::Hnd, tiny ? NodeId{64} : NodeId{768}, 8, 0.1};
    s.byzGamma = 0.5;
    s.protocol = ProtocolKind::Local;
    w.units = tiny ? 2 : 8;
    w.protocolSpan = "local.run";
    w.minFracDecided = 1.0;
    w.minQuality = 0.9;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::uint64_t unitSeed(std::uint64_t seed, std::uint32_t unit) {
  return Rng(seed).fork(unit).next();
}

ScenarioSpec unitSpec(const Workload& w, std::uint64_t seed, std::uint32_t unit,
                      std::uint32_t trials) {
  ScenarioSpec s = w.spec;
  s.masterSeed = unitSeed(seed, unit);
  s.trials = trials;
  s.traceTrials = trials;
  return s;
}

// --- the exact metrics -------------------------------------------------------

/// Folds the exact trial set: mean simulated rounds, honest bits per initial
/// node, decided fraction and estimate quality, plus the order-sensitive
/// fingerprint of every unit's combinedFingerprint. All of it is a pure
/// function of (workload, seed).
struct ExactFold {
  double trials = 0, rounds = 0, bits = 0, decided = 0, quality = 0;
  std::uint64_t fingerprint = 0xcbf29ce484222325ULL;

  void add(const Workload& w, const ExperimentSummary& s) {
    const double n = static_cast<double>(w.spec.graph.n);
    for (const TrialOutcome& t : s.perTrial) {
      trials += 1;
      rounds += static_cast<double>(t.totalRounds);
      bits += static_cast<double>(t.totalBits) / n;
      decided += t.quality.fracDecided;
      quality += w.spec.protocol == ProtocolKind::Agreement ? t.extra.at(kAgreementFracAgreeing)
                                                            : t.quality.fracWithinWindow;
    }
    for (int b = 0; b < 8; ++b) {
      fingerprint ^= (s.combinedFingerprint >> (8 * b)) & 0xffu;
      fingerprint *= 0x100000001b3ULL;
    }
  }
};

// --- trace folding -----------------------------------------------------------

/// Counters the protocols emit as running totals within one protocol run
/// (one run per lane): the last value of each lane counts.
const std::map<std::string, std::string>& runningCounters() {
  static const std::map<std::string, std::string> m = {
      {"beacon.blacklistInsertions", "beacon.blacklist_insertions"},
      {"beacon.beaconsGenerated", "beacon.beacons_generated"},
      {"beacon.adversary.forged", "beacon.forged"},
      {"agreement.answered", "agreement.answered"},
      {"agreement.compromised", "agreement.compromised"},
      {"agreement.adversary.forged", "adversary.walk_forged"},
  };
  return m;
}

/// Counters emitted once per iteration: they are summed.
const std::map<std::string, std::string>& summedCounters() {
  static const std::map<std::string, std::string> m = {
      {"agreement.tokensLaunched", "agreement.tokens_launched"},
  };
  return m;
}

struct TrialFold {
  bool sumOk = false;  ///< the spans form one tree under `trial`
  /// Per span name: "self.NAME" and "total.NAME" seconds; per counter and
  /// round-record field: its fold. Averaged over traced trials on output.
  std::map<std::string, double> v;
};

/// Self time = a span's duration minus the spans it directly contains. Spans
/// carry no parent id, so nesting comes from interval containment: sorted by
/// start (longest first on ties), each span's parent is the innermost open
/// span that contains it. sumOk records that the trial's spans form one
/// such tree under the runner's `trial` span with no negative self time, in
/// which case the self times sum exactly to the trial's duration.
TrialFold foldTrial(const obs::TrialTrace& trace) {
  TrialFold f;
  std::vector<const obs::TraceEvent*> spans;
  std::map<std::pair<std::string, std::uint32_t>, double> lastRunning;
  for (const obs::TraceEvent& e : trace.events) {
    switch (e.kind) {
      case obs::EventKind::Span: spans.push_back(&e); break;
      case obs::EventKind::Round:
        f.v["engine.recv_s"] += static_cast<double>(e.rd.recvNs) * 1e-9;
        f.v["engine.merge_s"] += static_cast<double>(e.rd.mergeNs) * 1e-9;
        f.v["engine.scatter_s"] += static_cast<double>(e.rd.scatterNs) * 1e-9;
        f.v["engine.sends"] += e.rd.sends;
        f.v["engine.touched"] += e.rd.touched;
        f.v["engine.messages"] += static_cast<double>(e.rd.messages);
        break;
      case obs::EventKind::Counter: {
        const std::string name = e.name;
        if (const auto it = runningCounters().find(name); it != runningCounters().end())
          lastRunning[{it->second, e.lane}] = e.value;
        if (const auto it = summedCounters().find(name); it != summedCounters().end())
          f.v[it->second] += e.value;
        break;
      }
      case obs::EventKind::Mark: break;
    }
  }
  for (const auto& [key, value] : lastRunning) f.v[key.first] += value;

  std::stable_sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    return a->tsNs != b->tsNs ? a->tsNs < b->tsNs : a->durNs > b->durNs;
  });
  const auto endOf = [](const obs::TraceEvent* e) { return e->tsNs + e->durNs; };
  std::vector<std::int64_t> childNs(spans.size(), 0);
  std::vector<std::size_t> open;
  std::size_t roots = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() && endOf(spans[open.back()]) <= spans[i]->tsNs) open.pop_back();
    if (!open.empty() && endOf(spans[open.back()]) >= endOf(spans[i])) {
      childNs[open.back()] += spans[i]->durNs;
    } else {
      ++roots;  // a second root, or a partial overlap: the tree check fails
    }
    open.push_back(i);
  }
  std::int64_t selfSum = 0;
  bool nonNegative = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t self = spans[i]->durNs - childNs[i];
    nonNegative = nonNegative && self >= 0;
    selfSum += self;
    const std::string name = spans[i]->name;
    f.v["self." + name] += static_cast<double>(self) * 1e-9;
    f.v["total." + name] += static_cast<double>(spans[i]->durNs) * 1e-9;
  }
  const bool rootIsTrial = !spans.empty() && std::string(spans.front()->name) == "trial";
  f.sumOk = rootIsTrial && roots == 1 && nonNegative && selfSum == spans.front()->durNs;
  return f;
}

/// Benchmark-owned sink: folds each consumed trial buffer as it arrives.
class FoldingSink final : public obs::TraceSink {
 public:
  void consume(const obs::TrialTrace& trace) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    folds_.push_back(foldTrial(trace));
  }
  [[nodiscard]] std::vector<TrialFold> folds() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return folds_;
  }

 private:
  std::mutex mutex_;
  std::vector<TrialFold> folds_;
};

// --- JSON output -------------------------------------------------------------

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + num(v[i]);
  return s + "]";
}

std::string object(const std::map<std::string, double>& m) {
  std::string s = "{";
  bool first = true;
  for (const auto& [k, x] : m) {
    s += (first ? "\"" : ",\"") + k + "\":" + num(x);
    first = false;
  }
  return s + "}";
}

std::string hex(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(x));
  return buf;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// The runner's core budget: the CPUs this process may run on (its affinity
/// mask, which cpusets also restrict), at most 4.
unsigned coreBudget() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return static_cast<unsigned>(std::clamp(cpus, 1, 4));
}

// --- set-up timing -----------------------------------------------------------

/// The host-speed reference: fixed work shaped like materializeTrial (an
/// H(4096, 8) graph from four random Hamiltonian cycles, built into sorted
/// adjacency arrays, and a random quarter of its nodes marked), written here
/// apart from the library so that no change under src/ can change it. It is
/// timed in the same blocks as set-up; run.py divides the run's times by it
/// (see BASELINE.md). Returns a checksum so the work cannot be dropped.
std::uint64_t referenceWork(std::uint64_t seed) {
  constexpr std::uint32_t n = 4096, d = 8;
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> perm(n);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(n * d / 2);
  for (std::uint32_t c = 0; c < d / 2; ++c) {
    std::iota(perm.begin(), perm.end(), 0u);
    std::shuffle(perm.begin(), perm.end(), rng);
    for (std::uint32_t i = 0; i < n; ++i) edges.emplace_back(perm[i], perm[(i + 1) % n]);
  }
  std::vector<std::uint32_t> offset(n + 1, 0), adj(edges.size() * 2);
  for (const auto& [u, v] : edges) ++offset[u + 1], ++offset[v + 1];
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  std::vector<std::uint32_t> fill(offset.begin(), offset.end() - 1);
  for (const auto& [u, v] : edges) adj[fill[u]++] = v, adj[fill[v]++] = u;
  for (std::uint32_t u = 0; u < n; ++u) std::sort(adj.begin() + offset[u], adj.begin() + offset[u + 1]);
  std::vector<char> marked(n, 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  for (std::uint32_t i = 0; i < n / 4; ++i) marked[perm[i]] = 1;
  std::uint64_t sum = 0;
  for (std::uint32_t u = 0; u < n; ++u)
    for (std::uint32_t e = offset[u]; e < offset[u + 1]; ++e) sum += marked[adj[e]] ? adj[e] : 0;
  return sum;
}

/// Median wall time of `fn` over repetitions filling about `budget` seconds
/// (at least 21, at most 5001), after one untimed warm-up call.
template <typename Fn>
double medianRepeat(double budget, Fn&& fn) {
  fn(0u);
  std::vector<double> samples;
  const auto t0 = Clock::now();
  for (std::uint32_t rep = 0; samples.size() < 21 || secondsSince(t0) < budget; ++rep) {
    const auto s0 = Clock::now();
    fn(rep);
    samples.push_back(secondsSince(s0));
    if (samples.size() >= 5001) break;
  }
  return median(std::move(samples));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string mode = "plain";
  bool tiny = false;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    std::size_t used = 0;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val, &used);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val, &used);
    } else if (key == "--mode") {
      a.mode = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
    if (used != 0 && used != val.size()) throw std::invalid_argument("bad value for " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.mode != "plain" && a.mode != "traced") throw std::invalid_argument("bad --mode");
  if (!(a.seconds >= 0)) throw std::invalid_argument("bad --seconds");
  return a;
}

/// The library reads these on the first run and would install a trace sink
/// of its own, so a timed run could silently trace. Refuse instead.
void refuseObservabilityEnv() {
  for (const char* var : {"BZC_TRACE", "BZC_TRACE_CHROME", "BZC_METRICS", "BZC_ATTRIB",
                          "BZC_TRACE_FLOW", "BZC_TRACE_TRIALS"}) {
    if (std::getenv(var) != nullptr) {
      throw std::runtime_error(std::string(var) +
                               " is set; unset it, the benchmark owns tracing");
    }
  }
}

int runBenchmark(const Args& a) {
  refuseObservabilityEnv();
  const Workload w = makeWorkload(a.workload, a.tiny);
  const bool traced = a.mode == "traced";
  const unsigned threads = coreBudget();
  std::shared_ptr<FoldingSink> sink;
  if (traced) {
    sink = std::make_shared<FoldingSink>();
    obs::setTraceSink(sink, w.batch);
  }
  // The exact pass runs on a runner as wide as the workload's trials in
  // flight. With one trial in flight that is the calling thread alone: on a
  // wider pool whichever thread takes the trial allocates from its own malloc
  // arena, which keeps its freed pages, so peak RSS would count one retained
  // footprint per thread that happened to take a trial (29 to 52 MB by seed
  // on local-count). Results are identical at any width; the timed loop,
  // on the full core budget, checks that.
  ExperimentRunner exactRunner(std::min(threads, w.batch));
  ExperimentRunner runner(threads);

  // Set-up: the inputs (graph + Byzantine placement) of the exact set's
  // trials, timed outside any trial. The machine's speed drifts from second
  // to second, so set-up is timed in short blocks, one before the exact pass
  // and then one at most every second between the timed loop's run() calls, and
  // setup_s is the median over all of them. Each block alternates set-up
  // calls with the host-speed reference. An untimed warm-up call of each
  // first takes the first-touch page faults and allocator growth that every
  // later call of the process is spared.
  const std::uint32_t setupSeeds = w.units * w.batch;
  std::map<std::string, double> setup;
  std::vector<double> setupSamples, refSamples;
  std::uint32_t setupRep = 0;
  std::uint64_t refSum = 0;
  const auto materializeNext = [&] {
    const std::uint32_t k = setupRep++ % setupSeeds;
    const MaterializedTrial t =
        materializeTrial(unitSpec(w, a.seed, k / w.batch, w.batch), k % w.batch);
    if (t.graph.numNodes() != w.spec.graph.n) throw std::logic_error("setup built a wrong graph");
  };
  const auto setupBlock = [&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < 3 || secondsSince(t0) < 0.08; ++i) {
      auto s0 = Clock::now();
      materializeNext();
      setupSamples.push_back(secondsSince(s0));
      s0 = Clock::now();
      refSum += referenceWork(refSamples.size());
      refSamples.push_back(secondsSince(s0));
    }
  };
  if (!traced) {
    materializeNext();
    refSum += referenceWork(0);
    setupBlock();
  } else {
    PlacementSpec placement = w.spec.placement;
    if (w.spec.byzGamma > 0.0) placement.count = byzantineBudget(w.spec.graph.n, w.spec.byzGamma);
    std::vector<Graph> graphs;
    setup["graph.build_s"] = medianRepeat(0.2, [&](std::uint32_t rep) {
      Rng rng = Rng(unitSeed(a.seed, rep % setupSeeds)).fork(1);
      Graph g = buildGraph(w.spec.graph, rng);
      if (graphs.size() < setupSeeds) graphs.push_back(std::move(g));
    });
    setup["sim.place_s"] = medianRepeat(0.2, [&](std::uint32_t rep) {
      Rng rng = Rng(unitSeed(a.seed, rep % setupSeeds)).fork(2);
      const ByzantineSet byz = placeByzantine(graphs[rep % graphs.size()], placement, rng);
      if (byz.count() != placement.count) throw std::logic_error("placement size mismatch");
    });
  }

  std::uint64_t attempted = 0, failed = 0, mismatches = 0;
  ExactFold exact;
  std::vector<std::uint64_t> unitFp(w.units, 0);
  std::vector<double> unitWalls;     // one per run() of the exact set, in unit order
  std::vector<double> latency;       // one-trial-in-flight run() walls
  double fanTrials = 0, fanWall = 0;  // every run() call of `batch` trials

  // One run() (plain) or runCustom() (traced) call of unit u; false when it
  // threw.
  const auto runUnit = [&](ExperimentRunner& runner, std::uint32_t u, std::uint32_t trials,
                           ExperimentSummary& out) {
    const ScenarioSpec spec = unitSpec(w, a.seed, u, trials);
    attempted += trials;
    try {
      if (!traced) {
        out = runner.run(spec);
      } else {
        const bool churn = spec.churn.enabled();
        out = runner.runCustom(spec.name, trials, [&](std::uint32_t i) {
          if (churn) {
            const obs::ScopedTimer protocol(w.protocolSpan);
            return ExperimentRunner::runTrial(spec, i);
          }
          std::optional<MaterializedTrial> trial;
          {
            const obs::ScopedTimer timer("bench.setup");
            trial.emplace(materializeTrial(spec, i));
          }
          const obs::ScopedTimer protocol(w.protocolSpan);
          return runProtocolTrial(spec, trial->graph, trial->byz, std::move(trial->runRng));
        });
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s unit %u threw: %s\n", a.workload.c_str(), u, e.what());
      failed += trials;
      return false;
    }
    failed += out.cappedTrials;
    return true;
  };

  // The exact pass: every unit once. Its trials are the exact metrics and
  // the fingerprints every later run must reproduce; the process's peak RSS
  // is read right after it.
  for (std::uint32_t u = 0; u < w.units; ++u) {
    ExperimentSummary s;
    const auto t0 = Clock::now();
    if (!runUnit(exactRunner, u, w.batch, s)) continue;
    unitWalls.push_back(secondsSince(t0));
    unitFp[u] = s.combinedFingerprint;
    exact.add(w, s);
  }
  const double peakRss = peakRssMb();

  // The timed loop (plain mode), at least one step and for --seconds after
  // the exact pass: step k runs unit u = k % units, on fan-out workloads
  // preceded by `latencyTrials` single-trial run() calls, the next ones in
  // the cycle over the latency units. Latency unit v has unit v's seed, so
  // for v < units it is the first trial of batch unit v. Interleaving
  // spreads the latency and throughput samples over the run alike.
  std::vector<std::uint64_t> singleFp(w.latencyUnits, 0);
  const auto start = Clock::now();
  auto lastSetup = start;
  const auto setupEverySecond = [&] {
    if (secondsSince(lastSetup) < 1.0) return;
    setupBlock();
    lastSetup = Clock::now();
  };
  for (std::uint32_t k = 0; !traced && a.seconds > 0 && (k == 0 || secondsSince(start) < a.seconds);
       ++k) {
    const std::uint32_t u = k % w.units;
    for (std::uint32_t j = 0; j < w.latencyTrials; ++j) {
      const std::uint32_t v = (k * w.latencyTrials + j) % w.latencyUnits;
      setupEverySecond();
      ExperimentSummary s;
      const auto t0 = Clock::now();
      if (!runUnit(runner, v, 1, s)) continue;
      latency.push_back(secondsSince(t0));
      const std::uint64_t fp = s.perTrial.front().resultFingerprint;
      if (singleFp[v] == 0) singleFp[v] = fp;
      if (fp != singleFp[v]) ++mismatches;
    }
    setupEverySecond();
    ExperimentSummary s;
    const auto t0 = Clock::now();
    if (!runUnit(runner, u, w.batch, s)) continue;
    const double wall = secondsSince(t0);
    if (w.batch == 1) latency.push_back(wall);
    fanTrials += w.batch;
    fanWall += wall;
    // A repeated unit must reproduce itself bit for bit, and a trial run
    // alone must equal the same trial inside the fan-out.
    if (s.combinedFingerprint != unitFp[u]) ++mismatches;
    if (w.batch > 1 && u < w.latencyUnits && singleFp[u] != 0 &&
        singleFp[u] != s.perTrial.front().resultFingerprint)
      ++mismatches;
  }

  std::ostringstream out;
  out << "{\"workload\":\"" << a.workload << "\",\"mode\":\"" << a.mode << "\",\"seed\":" << a.seed
      << ",\"threads\":" << threads << ",\"n\":" << w.spec.graph.n << ",\"batch\":" << w.batch
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"mismatches\":" << mismatches << ",\"ref_checksum\":" << refSum << ",\"fingerprint\":\"" << hex(exact.fingerprint)
      << "\"";
  const double t = std::max(exact.trials, 1.0);
  const std::map<std::string, double> exactMetrics = {
      {"rounds", exact.rounds / t},
      {"bits_per_node", exact.bits / t},
      {"frac_decided", exact.decided / t},
      {"quality_frac", exact.quality / t},
  };
  out << ",\"exact\":" << object(exactMetrics);
  const bool outputsOk = exact.trials > 0 && exactMetrics.at("frac_decided") >= w.minFracDecided &&
                         exactMetrics.at("quality_frac") >= w.minQuality;
  out << ",\"outputs_ok\":" << (outputsOk ? "true" : "false");
  if (!traced) {
    setup["setup_s"] = median(setupSamples);
    setup["ref_s"] = median(refSamples);
  }
  out << ",\"setup\":" << object(setup);
  out << ",\"unit_walls\":" << list(unitWalls) << ",\"latency\":" << list(latency)
      << ",\"fan_trials\":" << num(fanTrials) << ",\"fan_wall\":" << num(fanWall);

  if (traced) {
    const std::vector<TrialFold> folds = sink->folds();
    std::map<std::string, double> layers;
    std::vector<double> trialWalls;
    bool sumOk = !folds.empty();
    for (const TrialFold& f : folds) {
      for (const auto& [k, x] : f.v) layers[k] += x / static_cast<double>(folds.size());
      trialWalls.push_back(f.v.at("total.trial"));
      sumOk = sumOk && f.sumOk;
    }
    double runWall = 0;
    for (double x : unitWalls) runWall += x;
    double busy = 0;
    for (double x : trialWalls) busy += x;
    layers["runner.busy_frac"] = runWall > 0 ? busy / (runWall * threads) : 0.0;
    layers["runner.trial_s_p50"] = median(trialWalls);
    layers["traced_trials"] = static_cast<double>(folds.size());
    out << ",\"layers\":" << object(layers) << ",\"sum_ok\":" << (sumOk ? "true" : "false");
  }
  out << ",\"peak_rss_mb\":" << num(peakRss) << "}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return runBenchmark(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
