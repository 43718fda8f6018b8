// Tests for the observability layer (DESIGN.md §12). The contract under test:
// traces are strictly observational — every golden fingerprint is
// bit-identical with tracing on or off, the deterministic projection of a
// trace (everything except wall-clock fields) is a pure function of the
// trial at any runner-thread count and any epoch-pipeline depth, and the
// per-round records reconcile exactly with the end-of-run meter totals.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "churn/schedule.hpp"
#include "counting/local/attacks.hpp"
#include "golden_scenarios.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "runtime/experiment.hpp"

namespace bzc {
namespace {

/// Installs a capturing sink for the test body and restores the null sink
/// (which also restores the default log sink — setTraceSink swaps both) on
/// every exit path.
class SinkGuard {
 public:
  explicit SinkGuard(std::uint32_t sampleTrials = 1)
      : sink_(std::make_shared<obs::CapturingTraceSink>()) {
    obs::setTraceSink(sink_, sampleTrials);
  }
  ~SinkGuard() { obs::setTraceSink(nullptr); }
  SinkGuard(const SinkGuard&) = delete;
  SinkGuard& operator=(const SinkGuard&) = delete;

  [[nodiscard]] obs::CapturingTraceSink& sink() { return *sink_; }

 private:
  std::shared_ptr<obs::CapturingTraceSink> sink_;
};

/// The deterministic projection of one event — every field except the
/// wall-clock payload (tsNs, durNs, RoundRecord phase timings), rendered as
/// a comparable line. Mirrors tools/trace_summary.py --diff.
std::string projectionLine(const obs::TraceEvent& e) {
  std::ostringstream os;
  os << obs::eventKindName(e.kind) << ' ' << (e.name != nullptr ? e.name : "-") << ' ' << e.round
     << ' ' << e.value << ' ' << e.lane;
  if (e.kind == obs::EventKind::Round) {
    os << " r=" << e.rd.round << " s=" << e.rd.sends << " t=" << e.rd.touched
       << " m=" << e.rd.messages << " b=" << e.rd.bits
       << " i=" << static_cast<unsigned>(e.rd.idle);
  }
  return os.str();
}

std::vector<std::string> projection(const obs::TrialTrace& t) {
  std::vector<std::string> out;
  out.reserve(t.events.size());
  for (const obs::TraceEvent& e : t.events) out.push_back(projectionLine(e));
  return out;
}

// ---------------------------------------------------------------------------
// Bit-identity: tracing on must reproduce the untraced fingerprints across
// the golden families. The beacon/pipeline
// constants are the same goldens runtime_test.cpp pins, re-asserted here so
// a probe that drifted a golden fails in the observability suite by name.
// ---------------------------------------------------------------------------

TEST(ObsIdentity, BeaconGoldenIdenticalTraced) {
  const std::uint64_t untraced = golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                                           BeaconAdversaryProfile::flooder(), 10);
  EXPECT_EQ(untraced, 0x29553b28fa4d5ddcULL);
  obs::TrialTrace trace;
  std::uint64_t traced = 0;
  {
    const obs::TraceScope scope(&trace);
    traced = golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                       BeaconAdversaryProfile::flooder(), 10);
  }
  EXPECT_EQ(traced, untraced);
  EXPECT_FALSE(trace.events.empty());
}

TEST(ObsIdentity, AgreementGoldenIdenticalTraced) {
  const std::uint64_t untraced = golden::agreementFingerprint(6, 1.0);
  obs::TrialTrace trace;
  std::uint64_t traced = 0;
  {
    const obs::TraceScope scope(&trace);
    traced = golden::agreementFingerprint(6, 1.0);
  }
  EXPECT_EQ(traced, untraced);
  EXPECT_FALSE(trace.events.empty());
}

TEST(ObsIdentity, PipelineGoldenIdenticalTraced) {
  const std::uint64_t untraced = golden::pipelineFingerprint(BeaconAdversaryProfile::flooder(), 10);
  obs::TrialTrace trace;
  std::uint64_t traced = 0;
  {
    const obs::TraceScope scope(&trace);
    traced = golden::pipelineFingerprint(BeaconAdversaryProfile::flooder(), 10);
  }
  EXPECT_EQ(traced, untraced);
  // Both stage spans must be present — the counting engine and the agreement
  // engine ran back to back under one trace.
  bool sawCounting = false;
  bool sawAgreement = false;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind != obs::EventKind::Span || e.name == nullptr) continue;
    if (std::string(e.name) == "pipeline.counting") sawCounting = true;
    if (std::string(e.name) == "pipeline.agreement") sawAgreement = true;
  }
  EXPECT_TRUE(sawCounting);
  EXPECT_TRUE(sawAgreement);
}

TEST(ObsIdentity, LocalGoldenIdenticalTraced) {
  const std::uint64_t untraced = [] {
    auto adv = makeConflictLocalAdversary();
    return golden::localFingerprint(*adv, Placement::Random);
  }();
  EXPECT_EQ(untraced, 0xbd69b4b31ee42fceULL);
  obs::TrialTrace trace;
  std::uint64_t traced = 0;
  {
    const obs::TraceScope scope(&trace);
    auto adv = makeConflictLocalAdversary();
    traced = golden::localFingerprint(*adv, Placement::Random);
  }
  EXPECT_EQ(traced, untraced);
  EXPECT_FALSE(trace.events.empty());
}

// ---------------------------------------------------------------------------
// Runner integration: sampling, thread-count determinism, depth invariance.
// ---------------------------------------------------------------------------

ScenarioSpec obsChurnSpec() {
  ScenarioSpec spec;
  spec.name = "obs-churn";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 4;
  spec.protocol = ProtocolKind::Beacon;
  spec.beaconLimits.maxPhase = 8;
  spec.beaconLimits.maxTotalRounds = 20'000;
  spec.churn = ChurnSchedule::steady(/*epochs=*/6, /*rate=*/0.08, /*recountEvery=*/2);
  spec.trials = 2;
  spec.masterSeed = 0xb5;
  spec.traceTrials = 2;
  return spec;
}

TEST(ObsRunner, ChurnTracedIdenticalAndDepthInvariantProjection) {
  // 2 trials on 2 threads run at budget 1 (pipeline depth 1); on 8 threads
  // they run at budget 4, so the 3 recounts of each trial overlap.
  ExperimentRunner runner(2);
  ExperimentRunner wideRunner(8);
  const ExperimentSummary untraced = runner.run(obsChurnSpec());

  SinkGuard guard;
  const ExperimentSummary depth1 = runner.run(obsChurnSpec());
  ASSERT_EQ(guard.sink().traces().size(), 2U);
  const std::vector<std::vector<std::string>> proj1 = {projection(guard.sink().traces()[0]),
                                                       projection(guard.sink().traces()[1])};
  guard.sink().clear();

  const ExperimentSummary deep = wideRunner.run(obsChurnSpec());
  ASSERT_EQ(guard.sink().traces().size(), 2U);

  // Tracing must not move a single result, with or without pipelining.
  EXPECT_EQ(depth1.combinedFingerprint, untraced.combinedFingerprint);
  EXPECT_EQ(deep.combinedFingerprint, untraced.combinedFingerprint);

  // The deterministic projection is pipeline-depth invariant: epoch recount
  // children splice back in epoch order at the serial fold whichever worker
  // ran them.
  for (std::uint32_t i = 0; i < 2; ++i) {
    EXPECT_EQ(projection(guard.sink().traces()[i]), proj1[i]) << "trial " << i;
  }
}

TEST(ObsRunner, TraceProjectionInvariantAcrossRunnerThreadCounts) {
  std::vector<std::vector<std::string>> baseline;
  std::uint64_t baselineFp = 0;
  for (const unsigned threads : {1U, 2U, 8U}) {
    SinkGuard guard;
    ExperimentRunner runner(threads);
    const ExperimentSummary summary = runner.run(obsChurnSpec());
    ASSERT_EQ(guard.sink().traces().size(), 2U) << "threads=" << threads;
    std::vector<std::vector<std::string>> projections;
    projections.reserve(2);
    for (const obs::TrialTrace& t : guard.sink().traces()) projections.push_back(projection(t));
    if (baseline.empty()) {
      baseline = std::move(projections);
      baselineFp = summary.combinedFingerprint;
      continue;
    }
    EXPECT_EQ(summary.combinedFingerprint, baselineFp) << "threads=" << threads;
    EXPECT_EQ(projections, baseline) << "threads=" << threads;
  }
}

TEST(ObsRunner, SampleWidthLimitsTracedTrials) {
  SinkGuard guard;
  ScenarioSpec spec = obsChurnSpec();
  spec.churn = ChurnSchedule{};  // static run is enough here
  spec.trials = 4;
  spec.traceTrials = 1;
  ExperimentRunner runner(2);
  const ExperimentSummary summary = runner.run(spec);
  EXPECT_EQ(summary.trials, 4U);
  ASSERT_EQ(guard.sink().traces().size(), 1U);
  EXPECT_EQ(guard.sink().traces()[0].trial, 0U);
  EXPECT_EQ(guard.sink().traces()[0].scenario, spec.name);
}

// ---------------------------------------------------------------------------
// Reconciliation: per-round records + skip marks must sum exactly to the
// end-of-run totals the meter reports — no round is double-counted or lost.
// ---------------------------------------------------------------------------

TEST(ObsReconcile, RoundRecordsSumToOutcomeTotals) {
  SinkGuard guard;
  ScenarioSpec spec;
  spec.name = "obs-reconcile";
  spec.graph = {GraphKind::Hnd, 192, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 10;
  spec.protocol = ProtocolKind::Beacon;
  spec.beaconAdversary = BeaconAdversaryProfile::flooder();
  spec.beaconLimits.maxPhase = 8;
  spec.beaconLimits.maxTotalRounds = 20'000;
  spec.trials = 1;
  spec.masterSeed = 0x5eed;
  ExperimentRunner runner(1);
  const ExperimentSummary summary = runner.run(spec);
  ASSERT_EQ(guard.sink().traces().size(), 1U);
  const obs::TrialTrace& trace = guard.sink().traces()[0];

  std::uint64_t simulatedRounds = 0;
  std::uint64_t skippedRounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  for (const obs::TraceEvent& e : trace.events) {
    if (e.kind == obs::EventKind::Round) {
      ++simulatedRounds;
      messages += e.rd.messages;
      bits += e.rd.bits;
    } else if (e.kind == obs::EventKind::Mark && e.name != nullptr &&
               std::string(e.name) == "engine.skipRounds") {
      skippedRounds += static_cast<std::uint64_t>(e.value);
    }
  }
  const TrialOutcome& outcome = summary.perTrial[0];
  EXPECT_EQ(simulatedRounds + skippedRounds, static_cast<std::uint64_t>(outcome.totalRounds));
  EXPECT_EQ(messages, outcome.totalMessages);
  EXPECT_EQ(bits, outcome.totalBits);
}

// ---------------------------------------------------------------------------
// Export plumbing.
// ---------------------------------------------------------------------------

TEST(ObsExport, JsonlCarriesReconciledTotals) {
  obs::TrialTrace t;
  t.scenario = "jsonl \"quoted\"";
  t.trial = 3;
  obs::RoundRecord rd;
  rd.round = 1;
  rd.sends = 3;
  rd.touched = 2;
  rd.messages = 5;
  rd.bits = 40;
  t.round(rd);
  t.counter("c", 2.5, 1);
  t.mark("m");
  t.span("s", obs::traceClockNs(), 1);
  std::ostringstream os;
  obs::JsonlTraceSink::writeTrace(os, t);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"type\":\"trial\""), std::string::npos);
  EXPECT_NE(out.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"round\""), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"end\""), std::string::npos);
  EXPECT_NE(out.find("\"events\":4"), std::string::npos);
  EXPECT_NE(out.find("\"rounds\":1"), std::string::npos);
  EXPECT_NE(out.find("\"messages\":5"), std::string::npos);
  EXPECT_NE(out.find("\"bits\":40"), std::string::npos);
}

TEST(ObsExport, NullSinkProbesAreInert) {
  // With no scope installed every probe must be a no-op: nothing to assert
  // beyond "does not crash and leaves no thread-local residue". The <2%
  // overhead bound itself is measured by bench_f3 (BM_NullSinkProbe,
  // BM_BeaconTracedRun vs BM_BeaconBenignRun), not timed here.
  ASSERT_EQ(obs::currentTrace(), nullptr);
  {
    const obs::ScopedTimer timer("obs.test.noop");
    obs::emitCounter("obs.test.noop", 1.0);
  }
  EXPECT_EQ(obs::currentTrace(), nullptr);
}

}  // namespace
}  // namespace bzc
