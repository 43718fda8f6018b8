// Tests for the metrics layer (DESIGN.md §13). The contract under test:
// LogHistogram buckets are a pure function of (precision, data) with exact
// associative merges — any merge grouping yields identical buckets; the
// TrialMetrics deterministic projection (non-wall histograms + all series)
// is invariant across runner threads and pipeline depth (set by the runner
// width); deriving/exporting metrics never moves a golden
// fingerprint; and the seeded-bootstrap CIs on Distribution are thread-count
// invariant.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "churn/schedule.hpp"
#include "counting/local/attacks.hpp"
#include "golden_scenarios.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "runtime/experiment.hpp"
#include "support/rng.hpp"

namespace bzc {
namespace {

// ---------------------------------------------------------------------------
// LogHistogram geometry: fixed boundaries, exact region, saturation.
// ---------------------------------------------------------------------------

TEST(LogHistogram, ExactBelowPrecisionRange) {
  constexpr unsigned kP = obs::LogHistogram::kDefaultPrecision;  // 6
  for (std::uint64_t v = 0; v < (1ULL << kP); ++v) {
    const std::size_t idx = obs::LogHistogram::bucketIndex(v, kP);
    EXPECT_EQ(idx, v);
    EXPECT_EQ(obs::LogHistogram::bucketLo(idx, kP), v);
    EXPECT_EQ(obs::LogHistogram::bucketHi(idx, kP), v + 1);
  }
}

TEST(LogHistogram, OctaveBoundaries) {
  constexpr unsigned kP = 6;
  // First value past the exact region opens the sub-bucketed octaves.
  EXPECT_EQ(obs::LogHistogram::bucketIndex(63, kP), 63U);
  EXPECT_EQ(obs::LogHistogram::bucketIndex(64, kP), 64U);
  EXPECT_EQ(obs::LogHistogram::bucketIndex(127, kP), 95U);  // last of [64, 128)
  EXPECT_EQ(obs::LogHistogram::bucketIndex(128, kP), 96U);
  // Every value lands inside its bucket's [lo, hi) range.
  Rng rng(0x9e0);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform(~0ULL);
    const std::size_t idx = obs::LogHistogram::bucketIndex(v, kP);
    EXPECT_GE(v, obs::LogHistogram::bucketLo(idx, kP)) << "v=" << v;
    EXPECT_LT(v, obs::LogHistogram::bucketHi(idx, kP)) << "v=" << v;
  }
  // The top bucket saturates instead of overflowing.
  const std::size_t top = obs::LogHistogram::bucketIndex(~0ULL, kP);
  EXPECT_EQ(top, 1919U);
  EXPECT_EQ(obs::LogHistogram::bucketHi(top, kP), ~0ULL);
}

TEST(LogHistogram, MomentsAndQuantiles) {
  obs::LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.min(), 0U);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  for (std::uint64_t v = 1; v <= 10; ++v) h.add(v);
  EXPECT_EQ(h.count(), 10U);
  EXPECT_EQ(h.sum(), 55U);
  EXPECT_EQ(h.min(), 1U);
  EXPECT_EQ(h.max(), 10U);
  EXPECT_DOUBLE_EQ(h.mean(), 5.5);
  // All values sit in the exact region, so quantiles are exact order stats.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  EXPECT_NEAR(h.quantile(0.5), 5.5, 1.0);
}

// ---------------------------------------------------------------------------
// Merge determinism: associativity and grouping-invariance, 256 ways.
// ---------------------------------------------------------------------------

using BucketDump = std::vector<std::pair<std::size_t, std::uint64_t>>;

BucketDump dump(const obs::LogHistogram& h) {
  BucketDump out;
  h.forEachNonzero([&out](std::size_t i, std::uint64_t, std::uint64_t, std::uint64_t c) {
    out.emplace_back(i, c);
  });
  return out;
}

void expectIdentical(const obs::LogHistogram& a, const obs::LogHistogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(dump(a), dump(b));
}

TEST(LogHistogram, MergeGroupingInvariant) {
  // 4096 values spanning ~40 octaves, partitioned into 256 shard histograms.
  constexpr std::size_t kParts = 256;
  Rng rng(0xC0FFEE);
  std::vector<std::uint64_t> values;
  values.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    values.push_back(rng.uniform(1ULL << (1 + rng.uniform(40))));
  }
  obs::LogHistogram all;
  std::vector<obs::LogHistogram> parts(kParts);
  for (std::size_t i = 0; i < values.size(); ++i) {
    all.add(values[i]);
    parts[i % kParts].add(values[i]);
  }

  // Left fold in index order.
  obs::LogHistogram fold;
  for (const obs::LogHistogram& p : parts) fold.merge(p);
  expectIdentical(fold, all);

  // Pairwise tree reduction (the grouping a parallel reduction would use).
  std::vector<obs::LogHistogram> tree = parts;
  while (tree.size() > 1) {
    std::vector<obs::LogHistogram> next;
    for (std::size_t i = 0; i + 1 < tree.size(); i += 2) {
      tree[i].merge(tree[i + 1]);
      next.push_back(std::move(tree[i]));
    }
    if (tree.size() % 2 == 1) next.push_back(std::move(tree.back()));
    tree = std::move(next);
  }
  expectIdentical(tree.front(), all);

  // Shuffled folds: any permutation of the 256 parts yields the same buckets.
  for (const std::uint64_t seed : {1ULL, 7ULL, 0xABCULL}) {
    Rng shuf(seed);
    std::vector<std::size_t> order(kParts);
    for (std::size_t i = 0; i < kParts; ++i) order[i] = i;
    for (std::size_t i = kParts - 1; i > 0; --i) {
      std::swap(order[i], order[shuf.uniform(i + 1)]);
    }
    obs::LogHistogram shuffled;
    for (const std::size_t i : order) shuffled.merge(parts[i]);
    expectIdentical(shuffled, all);
  }

  // Weighted adds are equivalent to repeated adds.
  obs::LogHistogram weighted;
  weighted.addN(77, 5);
  obs::LogHistogram repeated;
  for (int i = 0; i < 5; ++i) repeated.add(77);
  expectIdentical(weighted, repeated);

  // Merging an empty histogram (either side) is a no-op.
  obs::LogHistogram empty;
  fold.merge(empty);
  expectIdentical(fold, all);
  empty.merge(all);
  expectIdentical(empty, all);
}

// ---------------------------------------------------------------------------
// Series + metrics derivation from a hand-built trace.
// ---------------------------------------------------------------------------

obs::TrialTrace manualTrace() {
  obs::TrialTrace t;
  t.scenario = "manual";
  t.trial = 2;
  obs::RoundRecord rd;
  rd.round = 1;
  rd.sends = 4;
  rd.touched = 3;
  rd.messages = 7;
  rd.bits = 56;
  rd.recvNs = 1111;  // wall payload — must not feed the fingerprint
  rd.mergeNs = 22;
  rd.scatterNs = 333;
  t.round(rd);
  rd.round = 2;
  rd.messages = 9;
  rd.bits = 72;
  t.round(rd);
  t.counter("beacon.undecidedHonest", 12.0, 1);
  t.counter("beacon.undecidedHonest", 5.0, 2);
  t.counter("agreement.answered", 3.0, 2);
  t.mark("engine.skipRounds");
  t.span("beacon.decisions", obs::traceClockNs(), 2);
  return t;
}

TEST(Series, BuildSortsByNameAndKeepsPointOrder) {
  const obs::TrialTrace t = manualTrace();
  const std::vector<obs::TimeSeries> series = obs::buildSeries(t);
  ASSERT_EQ(series.size(), 3U);
  EXPECT_EQ(series[0].name, "agreement.answered");
  EXPECT_EQ(series[1].name, "beacon.undecidedHonest");
  EXPECT_EQ(series[2].name, "mark.engine.skipRounds");
  ASSERT_EQ(series[1].points.size(), 2U);
  EXPECT_EQ(series[1].points[0].round, 1U);
  EXPECT_EQ(series[1].points[0].value, 12.0);
  EXPECT_EQ(series[1].points[1].round, 2U);
  EXPECT_EQ(series[1].points[1].value, 5.0);
}

TEST(Metrics, BuildDistillsRoundsSpansAndSeries) {
  const obs::TrialMetrics m = obs::buildTrialMetrics(manualTrace());
  EXPECT_EQ(m.scenario, "manual");
  EXPECT_EQ(m.trial, 2U);
  const auto find = [&m](const std::string& name) -> const obs::NamedHistogram* {
    for (const obs::NamedHistogram& nh : m.hists) {
      if (nh.name == name) return &nh;
    }
    return nullptr;
  };
  const obs::NamedHistogram* msgs = find("engine.messagesPerRound");
  ASSERT_NE(msgs, nullptr);
  EXPECT_FALSE(msgs->wall);
  EXPECT_EQ(msgs->hist.count(), 2U);
  EXPECT_EQ(msgs->hist.sum(), 16U);
  const obs::NamedHistogram* recv = find("engine.recvNs");
  ASSERT_NE(recv, nullptr);
  EXPECT_TRUE(recv->wall);
  const obs::NamedHistogram* span = find("span.beacon.decisions");
  ASSERT_NE(span, nullptr);
  EXPECT_TRUE(span->wall);
  EXPECT_EQ(m.series.size(), 3U);
  // hists arrive sorted by name (the canonical export order).
  for (std::size_t i = 1; i < m.hists.size(); ++i) {
    EXPECT_LT(m.hists[i - 1].name, m.hists[i].name);
  }
}

TEST(Metrics, FingerprintExcludesWallClockPayload) {
  obs::TrialTrace a = manualTrace();
  obs::TrialTrace b = manualTrace();
  // Perturb every wall-clock field on one side: phase timings and span
  // timestamps/durations differ run to run on real hardware.
  for (obs::TraceEvent& e : b.events) {
    e.tsNs += 987654;
    e.durNs += 4321;
    e.rd.recvNs += 1000;
    e.rd.mergeNs += 2000;
    e.rd.scatterNs += 3000;
  }
  const std::uint64_t fa = obs::metricsFingerprint(obs::buildTrialMetrics(a));
  const std::uint64_t fb = obs::metricsFingerprint(obs::buildTrialMetrics(b));
  EXPECT_EQ(fa, fb);

  // A deterministic field moving must move the fingerprint...
  obs::TrialTrace c = manualTrace();
  for (obs::TraceEvent& e : c.events) {
    if (e.kind == obs::EventKind::Round) e.rd.messages += 1;
  }
  EXPECT_NE(obs::metricsFingerprint(obs::buildTrialMetrics(c)), fa);
  // ...and so must a counter value (the series are part of the projection).
  obs::TrialTrace d = manualTrace();
  for (obs::TraceEvent& e : d.events) {
    if (e.kind == obs::EventKind::Counter) e.value += 1.0;
  }
  EXPECT_NE(obs::metricsFingerprint(obs::buildTrialMetrics(d)), fa);
}

// ---------------------------------------------------------------------------
// Golden identity: deriving + exporting metrics is strictly observational.
// ---------------------------------------------------------------------------

std::uint64_t metricsFpOfTrace(const obs::TrialTrace& trace) {
  return obs::metricsFingerprint(obs::buildTrialMetrics(trace));
}

TEST(MetricsIdentity, GoldenFamiliesIdenticalWithMetricsDerived) {
  // Beacon, agreement, pipeline, local: run each golden
  // traced, derive + export the metrics bundle, and require the protocol
  // fingerprint to match the untraced constant exactly.
  {
    const std::uint64_t untraced = golden::beaconFingerprint(
        BeaconChoicePolicy::PreferAcceptable, BeaconAdversaryProfile::flooder(), 10);
    EXPECT_EQ(untraced, 0x29553b28fa4d5ddcULL);
    obs::TrialTrace trace;
    std::uint64_t traced = 0;
    {
      const obs::TraceScope scope(&trace);
      traced = golden::beaconFingerprint(BeaconChoicePolicy::PreferAcceptable,
                                         BeaconAdversaryProfile::flooder(), 10);
    }
    EXPECT_EQ(traced, untraced);
    std::ostringstream os;
    obs::RecordSink(os).consume(trace);
    EXPECT_NE(os.str().find("\"type\":\"hists\""), std::string::npos);
  }
  {
    const std::uint64_t untraced = golden::agreementFingerprint(6, 1.0);
    obs::TrialTrace trace;
    std::uint64_t traced = 0;
    {
      const obs::TraceScope scope(&trace);
      traced = golden::agreementFingerprint(6, 1.0);
    }
    EXPECT_EQ(traced, untraced);
    EXPECT_NE(metricsFpOfTrace(trace), 0U);
  }
  {
    const std::uint64_t untraced =
        golden::pipelineFingerprint(BeaconAdversaryProfile::flooder(), 10);
    obs::TrialTrace trace;
    std::uint64_t traced = 0;
    {
      const obs::TraceScope scope(&trace);
      traced = golden::pipelineFingerprint(BeaconAdversaryProfile::flooder(), 10);
    }
    EXPECT_EQ(traced, untraced);
  }
  {
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
  }
}

// ---------------------------------------------------------------------------
// Runner-level invariance: the metrics projection is a pure function of the
// trial at any thread count (the runner width also sets the epoch pipeline's
// depth); installing the metrics exporter moves no result.
// ---------------------------------------------------------------------------

ScenarioSpec metricsChurnSpec() {
  ScenarioSpec spec;
  spec.name = "metrics-churn";
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

TEST(MetricsInvariance, ProjectionInvariantAcrossThreadsAndDepth) {
  std::vector<std::uint64_t> baseline;
  std::uint64_t baselineFp = 0;
  // Two trials on 1/2/4/8 threads get worker budgets 1/1/2/4, which set the
  // epoch pipeline's depth.
  for (const unsigned threads : {1U, 2U, 4U, 8U}) {
    auto sink = std::make_shared<obs::CapturingTraceSink>();
    obs::setTraceSink(sink, 2);
    ExperimentRunner runner(threads);
    const ExperimentSummary summary = runner.run(metricsChurnSpec());
    obs::setTraceSink(nullptr);
    const std::string cfg = "threads=" + std::to_string(threads);
    ASSERT_EQ(sink->traces().size(), 2U) << cfg;
    std::vector<std::uint64_t> fps;
    fps.reserve(2);
    for (const obs::TrialTrace& t : sink->traces()) fps.push_back(metricsFpOfTrace(t));
    if (baseline.empty()) {
      baseline = std::move(fps);
      baselineFp = summary.combinedFingerprint;
      continue;
    }
    // Epoch pipelining is fingerprint-invariant (DESIGN.md §11), so one
    // protocol baseline covers the matrix — and the metrics projection must
    // be equally immovable.
    EXPECT_EQ(summary.combinedFingerprint, baselineFp) << cfg;
    EXPECT_EQ(fps, baseline) << cfg;
  }
}

TEST(MetricsInvariance, ExporterInstalledMovesNoResult) {
  ExperimentRunner runner(2);
  const ExperimentSummary off = runner.run(metricsChurnSpec());
  std::ostringstream os;
  obs::setTraceSink(std::make_shared<obs::RecordSink>(os), 2);
  const ExperimentSummary on = runner.run(metricsChurnSpec());
  obs::setTraceSink(nullptr);
  EXPECT_EQ(on.combinedFingerprint, off.combinedFingerprint);
  // Two sampled trials → two record blocks, each with one hists line.
  const std::string out = os.str();
  std::size_t hists = 0;
  for (std::size_t at = out.find("\"type\":\"hists\""); at != std::string::npos;
       at = out.find("\"type\":\"hists\"", at + 1)) {
    ++hists;
  }
  EXPECT_EQ(hists, 2U);
}

// ---------------------------------------------------------------------------
// Bootstrap CIs: seeded in the serial aggregation pass, so thread-count
// invariant bitwise; degenerate (= mean) for a single trial.
// ---------------------------------------------------------------------------

TEST(BootstrapCi, ThreadCountInvariantBitwise) {
  ScenarioSpec spec = metricsChurnSpec();
  spec.churn = ChurnSchedule{};  // static run; trial count is what matters
  spec.trials = 6;
  spec.traceTrials = 0;
  ExperimentRunner one(1);
  ExperimentRunner eight(8);
  const ExperimentSummary a = one.run(spec);
  const ExperimentSummary b = eight.run(spec);
  EXPECT_EQ(a.combinedFingerprint, b.combinedFingerprint);
  const auto expectSame = [](const Distribution& x, const Distribution& y) {
    EXPECT_EQ(x.mean, y.mean);
    EXPECT_EQ(x.stddev, y.stddev);
    EXPECT_EQ(x.ci95lo, y.ci95lo);
    EXPECT_EQ(x.ci95hi, y.ci95hi);
  };
  expectSame(a.fracDecided, b.fracDecided);
  expectSame(a.totalRounds, b.totalRounds);
  expectSame(a.totalMessages, b.totalMessages);
  // With several distinct trials the interval is a real interval around the
  // mean, not a placeholder.
  EXPECT_LE(a.totalRounds.ci95lo, a.totalRounds.mean);
  EXPECT_GE(a.totalRounds.ci95hi, a.totalRounds.mean);
  EXPECT_LT(a.totalRounds.ci95lo, a.totalRounds.ci95hi);
  EXPECT_GT(a.totalRounds.stddev, 0.0);
}

TEST(BootstrapCi, SingleTrialDegeneratesToMean) {
  ScenarioSpec spec = metricsChurnSpec();
  spec.churn = ChurnSchedule{};
  spec.trials = 1;
  spec.traceTrials = 0;
  ExperimentRunner runner(2);
  const ExperimentSummary s = runner.run(spec);
  EXPECT_EQ(s.totalRounds.stddev, 0.0);
  EXPECT_EQ(s.totalRounds.ci95lo, s.totalRounds.mean);
  EXPECT_EQ(s.totalRounds.ci95hi, s.totalRounds.mean);
}

TEST(BootstrapCi, DistributionOverloadIsDeterministic) {
  const std::vector<double> sample = {1.0, 4.0, 2.0, 8.0, 5.0};
  const Distribution a = Distribution::of(sample, Rng(42));
  const Distribution b = Distribution::of(sample, Rng(42));
  EXPECT_EQ(a.ci95lo, b.ci95lo);
  EXPECT_EQ(a.ci95hi, b.ci95hi);
  EXPECT_LT(a.ci95lo, a.ci95hi);
  // A different bootstrap seed moves the interval, not the moments.
  const Distribution c = Distribution::of(sample, Rng(43));
  EXPECT_EQ(a.mean, c.mean);
  EXPECT_EQ(a.stddev, c.stddev);
  EXPECT_TRUE(c.ci95lo != a.ci95lo || c.ci95hi != a.ci95hi);
}

}  // namespace
}  // namespace bzc
