// Shared helpers for the experiment harnesses (bench_t*/bench_f*).
//
// Each bench binary reproduces one table/figure derived from a claim of the
// paper (DESIGN.md §3 maps experiment ids to claims); the helpers here keep
// the workload construction and result summaries consistent across them.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "churn/epoch_runner.hpp"
#include "counting/common.hpp"
#include "graph/generators.hpp"
#include "runtime/experiment.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/byzantine.hpp"
#include "support/knob.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace bzc::bench {

// Integer knobs parse strictly (support/knob.hpp): garbage such as
// BZC_N=1e6 or BZC_TRIALS=abc exits with status 2 and a message.

/// Trials per table row. BZC_TRIALS overrides (CI smoke runs set it to 2).
inline std::uint32_t trialCount(std::uint32_t defaultTrials = 5) {
  return static_cast<std::uint32_t>(envKnob("BZC_TRIALS", defaultTrials, 1, UINT32_MAX));
}

/// Worker threads for the ExperimentRunner. BZC_THREADS overrides, up to
/// kMaxPoolThreads; 0 (the default) picks the hardware concurrency.
inline unsigned threadCount() {
  return static_cast<unsigned>(envKnob("BZC_THREADS", 0, 0, kMaxPoolThreads));
}

/// Network size for benches that support scaling their rows (currently T7).
/// BZC_N overrides the bench's default — e.g. BZC_N=16384 BZC_TRIALS=48 is
/// the token-arena perf sweep DESIGN.md §7 reports.
inline NodeId nodeCount(NodeId defaultN) {
  return static_cast<NodeId>(envKnob("BZC_N", defaultN, 1, kNoNode - 1));
}

/// CLI/env attack selection for the walk-adversary gallery (accepts both a
/// short alias and the canonical profile name, which stays owned by
/// src/adversary/profile.cpp).
inline AgreementAttackProfile walkAttackProfileByName(const std::string& name) {
  const struct {
    const char* alias;
    AgreementAttackProfile profile;
  } gallery[] = {
      {"adaptive", AgreementAttackProfile::adaptiveMinority()},
      {"dropper", AgreementAttackProfile::dropper()},
      {"flipper", AgreementAttackProfile::flipper()},
      {"tamperer", AgreementAttackProfile::tamperer()},
      {"hunter", AgreementAttackProfile::hunter()},
  };
  for (const auto& entry : gallery) {
    if (name == entry.alias || name == entry.profile.name) return entry.profile;
  }
  BZC_REQUIRE(false, "unknown walk attack: " + name);
  return {};
}

/// CLI/env attack selection for the beacon-adversary gallery
/// (src/adversary/beacon/): canonical profile names, plus the short aliases
/// the walk gallery uses.
inline BeaconAdversaryProfile beaconAdversaryProfileByName(const std::string& name) {
  // The targeted flooder is handed out with the scenario-victim sentinel:
  // the declarative path anchors it to the spec's placement victim.
  const BeaconAdversaryProfile gallery[] = {
      BeaconAdversaryProfile::none(),          BeaconAdversaryProfile::flooder(),
      BeaconAdversaryProfile::targetedFlooder(BeaconAdversaryProfile::kScenarioVictim),
      BeaconAdversaryProfile::tamperer(),      BeaconAdversaryProfile::suppressor(),
      BeaconAdversaryProfile::continueSpammer(), BeaconAdversaryProfile::full(),
      BeaconAdversaryProfile::adaptiveFlooder(), BeaconAdversaryProfile::prefixGrafter(),
  };
  for (const BeaconAdversaryProfile& profile : gallery) {
    if (name == profile.name) return profile;
  }
  if (name == "targeted") {
    return BeaconAdversaryProfile::targetedFlooder(BeaconAdversaryProfile::kScenarioVictim);
  }
  if (name == "adaptive") return BeaconAdversaryProfile::adaptiveFlooder();
  if (name == "grafter") return BeaconAdversaryProfile::prefixGrafter();
  if (name == "spammer") return BeaconAdversaryProfile::continueSpammer();
  BZC_REQUIRE(false, "unknown beacon attack: " + name);
  return {};
}

/// Master seed for table row `row` of bench `benchTag`. Seeds derive from the
/// row *index*, never from row parameters: parameter-derived seeds collide
/// when two rows share a parameter value (T7's old `Rng(900 + L*10)` gave the
/// oracle and pipeline rows overlapping streams).
inline std::uint64_t rowSeed(std::uint64_t benchTag, std::uint64_t row) {
  return Rng(0x5eed0000ULL ^ benchTag).fork(row).next();
}

// --- machine-readable results (BZC_OUTPUT=json) -----------------------------

/// Where JSON rows go under BZC_OUTPUT=json: stdout, or $BZC_JSON_FILE
/// opened for append when that is set and non-empty; nullptr under the
/// default BZC_OUTPUT=text. Resolved once, first by experimentHeader, so a
/// BZC_OUTPUT value other than text|json or an unopenable BZC_JSON_FILE exits
/// with status 2 before any row runs.
inline std::ostream* jsonSink() {
  static std::ostream* const sink = []() -> std::ostream* {
    if (envChoice("BZC_OUTPUT", {"text", "json"}).value_or(0) == 0) return nullptr;
    const char* path = std::getenv("BZC_JSON_FILE");
    if (path == nullptr || *path == '\0') return &std::cout;
    static std::ofstream file(path, std::ios::app);
    if (!file.is_open()) {
      std::cerr << "BZC_JSON_FILE: cannot open " << path << "\n";
      std::exit(2);
    }
    return &file;
  }();
  return sink;
}

/// Process peak RSS in KB (getrusage; Linux reports ru_maxrss in KB). A
/// monotone high-water mark: later rows in one binary can only report equal
/// or larger values, so per-row deltas are only meaningful across runs.
inline std::int64_t peakRssKb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::int64_t>(ru.ru_maxrss);
}

inline void appendJsonDistBody(std::ostringstream& os, const Distribution& d) {
  os << "{\"mean\":" << d.mean << ",\"min\":" << d.min << ",\"max\":" << d.max
     << ",\"p10\":" << d.p10 << ",\"p50\":" << d.p50 << ",\"p90\":" << d.p90
     << ",\"stddev\":" << d.stddev << ",\"ci95lo\":" << d.ci95lo << ",\"ci95hi\":" << d.ci95hi
     << '}';
}

inline void appendJsonDist(std::ostringstream& os, const char* key, const Distribution& d) {
  os << '"' << key << "\":";
  appendJsonDistBody(os, d);
}

/// Per-trial sample array for one key metric, pulled from summary.perTrial so
/// tools/diff_bench_json.py can run rank-sum tests instead of comparing point
/// estimates.
inline void appendJsonSamples(std::ostringstream& os, const char* key,
                              const ExperimentSummary& s, double (*get)(const TrialOutcome&)) {
  os << '"' << key << "\":[";
  for (std::size_t i = 0; i < s.perTrial.size(); ++i) {
    if (i > 0) os << ',';
    os << get(s.perTrial[i]);
  }
  os << ']';
}

/// One ExperimentSummary as a single JSON line, written to jsonSink() so perf
/// trajectories (BENCH_*.json) can be tracked across PRs. No-op unless
/// BZC_OUTPUT=json. Extras are keyed by name (tools/diff_bench_json.py pairs
/// them by name and orients lower-is-better metrics like staleness by name).
inline void maybeEmitJson(const ExperimentSummary& s, double wallMs = -1.0) {
  std::ostream* const out = jsonSink();
  if (out == nullptr) return;
  std::ostringstream os;
  os.precision(12);
  os << "{\"name\":\"" << s.name << "\",\"trials\":" << s.trials
     << ",\"cappedTrials\":" << s.cappedTrials;
  // Machine-load telemetry: wall_ms is the runner.run wall time for this row
  // (lower is better; tools/diff_bench_json.py applies a noise floor before
  // flagging), peak_rss_kb the process high-water mark at emission.
  if (wallMs >= 0.0) os << ",\"wall_ms\":" << wallMs;
  os << ",\"peak_rss_kb\":" << peakRssKb();
  os << ",\"combinedFingerprint\":\"0x" << std::hex << s.combinedFingerprint << std::dec
     << "\",";
  appendJsonDist(os, "fracDecided", s.fracDecided);
  os << ',';
  appendJsonDist(os, "fracWithinWindow", s.fracWithinWindow);
  os << ',';
  appendJsonDist(os, "meanRatio", s.meanRatio);
  os << ',';
  appendJsonDist(os, "totalRounds", s.totalRounds);
  os << ',';
  appendJsonDist(os, "totalMessages", s.totalMessages);
  os << ',';
  appendJsonDist(os, "totalBits", s.totalBits);
  // Extras carry the same field set as the primary distributions (they used
  // to drop p10/p90/stddev, which kept the diff tool from treating them
  // uniformly).
  os << ",\"extras\":{";
  const char* sep = "";
  for (const auto& [name, d] : s.extras) {
    os << sep;
    appendJsonDist(os, name.c_str(), d);
    sep = ",";
  }
  os << '}';
  // Raw per-trial samples of the six key metrics: the statistical regression
  // gate (Mann–Whitney U in tools/diff_bench_json.py) needs the full sample,
  // not summary scalars.
  os << ",\"samples\":{";
  appendJsonSamples(os, "fracDecided", s,
                    [](const TrialOutcome& t) { return t.quality.fracDecided; });
  os << ',';
  appendJsonSamples(os, "fracWithinWindow", s,
                    [](const TrialOutcome& t) { return t.quality.fracWithinWindow; });
  os << ',';
  appendJsonSamples(os, "meanRatio", s,
                    [](const TrialOutcome& t) { return t.quality.meanRatio; });
  os << ',';
  appendJsonSamples(os, "totalRounds", s,
                    [](const TrialOutcome& t) { return static_cast<double>(t.totalRounds); });
  os << ',';
  appendJsonSamples(os, "totalMessages", s,
                    [](const TrialOutcome& t) { return static_cast<double>(t.totalMessages); });
  os << ',';
  appendJsonSamples(os, "totalBits", s,
                    [](const TrialOutcome& t) { return static_cast<double>(t.totalBits); });
  os << "}}";
  *out << os.str() << '\n' << std::flush;
}

/// Declarative row: run spec on the runner and emit the JSON line.
inline ExperimentSummary runScenario(ExperimentRunner& runner, const ScenarioSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  ExperimentSummary s = runner.run(spec);
  const double wallMs =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  maybeEmitJson(s, wallMs);
  return s;
}

/// Custom row: runCustom plus the JSON line.
inline ExperimentSummary runScenario(ExperimentRunner& runner, const std::string& name,
                                     std::uint32_t trials, const ExperimentRunner::TrialFn& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  ExperimentSummary s = runner.runCustom(name, trials, fn);
  const double wallMs =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  maybeEmitJson(s, wallMs);
  return s;
}

/// Fraction of an Agreement/Pipeline summary's trials that reached
/// almost-everywhere agreement (>= 90% of honest nodes on the majority bit).
inline double aeTrialFraction(const ExperimentSummary& s) {
  std::size_t ae = 0;
  for (const TrialOutcome& t : s.perTrial) {
    if (t.extra.at("fracAgreeing") >= 0.9) ++ae;
  }
  return s.perTrial.empty() ? 0.0 : static_cast<double>(ae) / static_cast<double>(s.perTrial.size());
}

/// Standard TrialOutcome wrapping of a counting run (custom trial functions
/// set their named extras afterwards).
inline TrialOutcome countingTrialOutcome(const CountingResult& result, const ByzantineSet& byz,
                                         NodeId n, const QualityWindow& window = {0.3, 1.8}) {
  TrialOutcome t;
  t.quality = evaluateQuality(result, byz, n, window);
  t.totalRounds = result.totalRounds;
  t.hitRoundCap = result.hitRoundCap;
  t.totalMessages = result.meter.totalMessages();
  t.totalBits = result.meter.totalBits();
  t.resultFingerprint = fingerprint(result, n);
  return t;
}

/// "mean [min,max]" cell for a per-trial distribution.
inline std::string distCell(const Distribution& d, int precision = 2) {
  return Table::num(d.mean, precision) + " [" + Table::num(d.min, precision) + "," +
         Table::num(d.max, precision) + "]";
}

/// Same, for fractions rendered as percentages.
inline std::string distPercentCell(const Distribution& d, int precision = 0) {
  return Table::percent(d.mean, precision) + " [" + Table::percent(d.min, precision) + "," +
         Table::percent(d.max, precision) + "]";
}

/// Deterministic workload graph for experiment `tag`, size n, degree d.
inline Graph makeHnd(NodeId n, NodeId d, std::uint64_t tag) {
  Rng rng(0x9e3779b9 ^ (tag * 1000003ULL + n * 31ULL + d));
  return hnd(n, d, rng);
}

inline ByzantineSet placeFor(const Graph& g, Placement kind, std::size_t count,
                             std::uint64_t tag, NodeId victim = 0,
                             std::uint32_t moatRadius = 1) {
  PlacementSpec spec;
  spec.kind = kind;
  spec.count = count;
  spec.victim = victim;
  spec.moatRadius = moatRadius;
  Rng rng(0x51ed270 ^ tag);
  return placeByzantine(g, spec, rng);
}

/// Estimate summary of a counting run over the honest nodes.
struct EstimateSummary {
  std::size_t honest = 0;
  std::size_t decided = 0;
  double fracDecided = 0.0;
  double minEst = 0.0;
  double meanEst = 0.0;
  double maxEst = 0.0;
  double meanRatio = 0.0;  ///< mean estimate / ln n
};

inline EstimateSummary summarize(const CountingResult& result, const ByzantineSet& byz,
                                 NodeId n) {
  EstimateSummary s;
  RunningStat stat;
  for (NodeId u = 0; u < n; ++u) {
    if (byz.contains(u)) continue;
    ++s.honest;
    if (!result.decisions[u].decided) continue;
    ++s.decided;
    stat.add(result.decisions[u].estimate);
  }
  if (s.honest > 0) s.fracDecided = static_cast<double>(s.decided) / s.honest;
  if (s.decided > 0) {
    s.minEst = stat.min();
    s.meanEst = stat.mean();
    s.maxEst = stat.max();
    s.meanRatio = stat.mean() / std::log(static_cast<double>(n));
  }
  return s;
}

inline std::string passFail(bool ok) { return ok ? "yes" : "NO"; }

/// Prints the standard experiment header, after checking the output knobs
/// (jsonSink()) so a bad one exits before any row runs.
inline void experimentHeader(const std::string& id, const std::string& claim) {
  (void)jsonSink();
  printBanner(std::cout, id, claim);
}

/// VIOLATED shape checks printed so far in this process.
inline std::uint32_t& shapeViolations() {
  static std::uint32_t count = 0;
  return count;
}

/// A shape check's trial floor: below `needs` trials the check is not
/// statistically meaningful, so it is SKIPPED (neither a pass nor a failure).
struct TrialFloor {
  std::uint32_t needs = 0;
  std::uint32_t ran = 0;
};

inline void shapeCheck(const std::string& what, bool holds, TrialFloor floor = {}) {
  std::cout << "shape check — " << what << ": ";
  if (floor.ran < floor.needs) {
    std::cout << "SKIPPED (needs ≥" << floor.needs << " trials, ran " << floor.ran << ")\n";
    return;
  }
  std::cout << (holds ? "HOLDS" : "VIOLATED") << '\n';
  if (!holds) ++shapeViolations();
}

/// Exit status for a bench main: non-zero iff any shape check was VIOLATED.
inline int shapeCheckExitCode() { return shapeViolations() > 0 ? 1 : 0; }

}  // namespace bzc::bench
