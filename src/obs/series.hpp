// Round-resolution time series derived from trace buffers (DESIGN.md §13).
//
// A TimeSeries is the per-round trajectory of one domain counter — beacon
// undecided counts per phase, blacklist insertions per iteration, churn
// estimate/staleness per epoch — i.e. the convergence dynamics behind the
// paper's Theorem 1/2 claims. Series are *derived* from a completed
// TrialTrace at the serial sink point, never recorded protocol-side, so they
// inherit the trace layer's determinism wholesale: the series built from a
// trial's trace are a pure function of the trial at any runner thread count
// or pipeline depth (tests/metrics_test.cpp pins this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bzc::obs {

class TrialTrace;

/// One sample of a domain counter. `round` is the engine round at emission
/// (protocol iteration/phase boundaries), `lane` the emitting lane (0 = trial
/// thread, epoch number for pipelined churn recounts) — kept so per-epoch
/// series don't collapse when rounds restart at each recount.
struct SeriesPoint {
  std::uint64_t round = 0;
  std::uint32_t lane = 0;
  double value = 0.0;

  friend bool operator==(const SeriesPoint& a, const SeriesPoint& b) {
    return a.round == b.round && a.lane == b.lane && a.value == b.value;
  }
};

/// All samples of one named counter, in trace-buffer (= execution) order.
struct TimeSeries {
  std::string name;
  std::vector<SeriesPoint> points;

  friend bool operator==(const TimeSeries& a, const TimeSeries& b) {
    return a.name == b.name && a.points == b.points;
  }
};

/// Extracts every Counter event (series named after the counter) and every
/// Mark event (series "mark.<name>") from a completed trace, one TimeSeries
/// per distinct name, sorted by name; points keep buffer order within a
/// series. Deterministic-projection payload only — no wall-clock fields.
[[nodiscard]] std::vector<TimeSeries> buildSeries(const TrialTrace& trace);

}  // namespace bzc::obs
