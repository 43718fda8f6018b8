// Observability core: round-level tracing and phase-timing telemetry.
//
// The paper's claims are about *dynamics* — blacklist growth per iteration,
// undecided counts per phase, bit spend per round — but every recorded
// outcome used to be an end-of-run aggregate. This module closes the gap
// with a trace layer that is strictly observational: probes read committed
// run state and the wall clock, never an RNG stream, so every golden
// fingerprint is bit-identical with tracing on or off (tests/obs_test.cpp
// pins this across the golden families). See DESIGN.md §12.
//
// Shape:
//  - TrialTrace: an event buffer owned by one trial. All emission happens on
//    the thread currently driving that trial (engine flush points, protocol
//    iteration boundaries, epoch folds). Buffers are therefore lock-free
//    and their event order is a pure function of the trial, at any
//    thread count or pipeline depth.
//  - currentTrace(): a thread-local pointer installed scoped (TraceScope)
//    around a sampled trial. Null = tracing off; every probe is then a
//    thread-local load and a branch — the "null sink" hot path.
//  - TraceSink: consumes completed trial buffers *serially, in trial index
//    order* (ExperimentRunner feeds it after the parallel fan-out), so the
//    exported stream is deterministic even though trials ran concurrently.
//    Wall-clock fields (ts/dur/ns) are the one nondeterministic payload and
//    are excluded from the deterministic projection tools/trace_summary.py
//    and the determinism tests compare.
//
// Pipelined churn trials: each epoch recount traces into its own child
// buffer (installed on whichever worker runs the recount) and the serial
// finalization fold splices children back in epoch order, so the
// deterministic projection is also pipeline-depth invariant; the preserved
// timestamps are what make the overlap visible on a chrome://tracing
// timeline (children render as separate lanes).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/provenance.hpp"

namespace bzc::obs {

enum class EventKind : std::uint8_t {
  Round,    ///< one engine round: traffic, touched receivers, phase timings
  Span,     ///< completed phase span (name, start, duration)
  Counter,  ///< named domain counter sampled at a serial point
  Mark,     ///< point annotation (log mirror, skip notes)
};

[[nodiscard]] const char* eventKindName(EventKind kind);

/// What SyncEngine records at the end of every round (DESIGN.md §12).
struct RoundRecord {
  std::uint64_t round = 0;     ///< engine round counter after this round
  std::uint32_t sends = 0;     ///< queued sends flushed (honest + Byzantine)
  std::uint32_t touched = 0;   ///< receivers whose inbox became nonempty
  std::uint64_t messages = 0;  ///< metered honest edge-messages (delta)
  std::uint64_t bits = 0;      ///< metered honest bits (delta)
  std::uint8_t idle = 0;  ///< 1: the round moved no traffic (quiescence signal)
  // Wall-clock phase timings (ns); nondeterministic payload, excluded from
  // the deterministic projection. scatterNs is the whole flush (count, meter
  // and scatter); recvNs covers the recv hooks.
  std::int64_t recvNs = 0;
  std::int64_t scatterNs = 0;
  std::int64_t mergeNs = 0;  ///< always 0; kept only because perfbench reads it
};

struct TraceEvent {
  EventKind kind = EventKind::Mark;
  const char* name = nullptr;  ///< static string; nullptr for Round events
  std::uint64_t round = 0;     ///< engine round at emission (0 when n/a)
  double value = 0.0;          ///< Counter/Mark payload
  std::int64_t tsNs = 0;       ///< wall clock, ns since the shared session epoch
  std::int64_t durNs = 0;      ///< Span only
  std::uint32_t lane = 0;      ///< 0 = trial thread; epoch # for pipelined recounts
  RoundRecord rd;              ///< Round only
};

/// Monotonic ns since the process-wide trace epoch (shared across trials so
/// concurrent spans overlap correctly on one timeline).
[[nodiscard]] std::int64_t traceClockNs() noexcept;

class TrialTrace {
 public:
  std::string scenario;
  std::uint32_t trial = 0;
  std::vector<TraceEvent> events;
  /// The trial's resolved blame graph (DESIGN.md §14), copied in by the
  /// runner at the serial sink point just before consume(); collection is
  /// unconditional, so this is export plumbing only. AttribJsonlSink
  /// (BZC_ATTRIB) serializes it.
  BlameGraph blame;

  void round(const RoundRecord& r) {
    TraceEvent e;
    e.kind = EventKind::Round;
    e.round = r.round;
    e.tsNs = traceClockNs();
    e.rd = r;
    events.push_back(e);
  }
  void counter(const char* name, double value, std::uint64_t round = 0) {
    TraceEvent e;
    e.kind = EventKind::Counter;
    e.name = name;
    e.round = round;
    e.value = value;
    e.tsNs = traceClockNs();
    events.push_back(e);
  }
  void mark(const char* name, double value = 0.0, std::uint64_t round = 0) {
    TraceEvent e;
    e.kind = EventKind::Mark;
    e.name = name;
    e.round = round;
    e.value = value;
    e.tsNs = traceClockNs();
    events.push_back(e);
  }
  /// Completed span: events append at *completion*, so buffer order stays a
  /// pure function of execution order on the owning thread.
  void span(const char* name, std::int64_t startNs, std::uint64_t round = 0) {
    TraceEvent e;
    e.kind = EventKind::Span;
    e.name = name;
    e.round = round;
    e.tsNs = startNs;
    e.durNs = traceClockNs() - startNs;
    events.push_back(e);
  }
  /// Appends a child buffer's events tagged with `lane` (epoch recounts).
  /// Called only from serial folds, in a deterministic order; timestamps are
  /// preserved so concurrent children still overlap on the timeline.
  void splice(TrialTrace&& child, std::uint32_t lane) {
    events.reserve(events.size() + child.events.size());
    for (TraceEvent& e : child.events) {
      e.lane = lane;
      events.push_back(e);
    }
    child.events.clear();
  }
};

// --- the thread-local probe target ------------------------------------------

/// The trace of the trial this thread is currently driving; null = off.
[[nodiscard]] TrialTrace* currentTrace() noexcept;

/// RAII install of a trial's trace on this thread (nests: restores the
/// previous pointer, so a child recount scope inside a traced churn trial
/// works on the same thread for the inline depth-1 path).
class TraceScope {
 public:
  explicit TraceScope(TrialTrace* trace) noexcept;
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TrialTrace* prev_;
};

/// Phase span helper: reads currentTrace() once at construction; a null
/// trace makes both ends a no-op (the clock is never read).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name, std::uint64_t round = 0) noexcept
      : trace_(currentTrace()), name_(name), round_(round) {
    if (trace_ != nullptr) start_ = traceClockNs();
  }
  ~ScopedTimer() {
    if (trace_ != nullptr) trace_->span(name_, start_, round_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TrialTrace* trace_;
  const char* name_;
  std::uint64_t round_;
  std::int64_t start_ = 0;
};

/// One-liner probe for call sites that emit a single counter.
inline void emitCounter(const char* name, double value, std::uint64_t round = 0) {
  if (TrialTrace* t = currentTrace()) t->counter(name, value, round);
}

// --- the sink ---------------------------------------------------------------

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Receives one completed trial buffer. Called serially in trial index
  /// order per scenario; implementations still guard with a mutex so
  /// overlapping runners cannot corrupt the stream.
  virtual void consume(const TrialTrace& trace) = 0;
};

/// Installs the process-wide sink (null disables tracing) and how many
/// leading trials of each scenario to sample. Also bridges BZC_WARN+ log
/// lines into the active trace as Mark events (the "single sink" the log
/// layer shares — support/log.hpp).
void setTraceSink(std::shared_ptr<TraceSink> sink, std::uint32_t sampleTrials = 1);

[[nodiscard]] std::shared_ptr<TraceSink> traceSink();
[[nodiscard]] std::uint32_t traceSampleTrials() noexcept;

/// Per-token walk lifecycle marks (walk.launch / walk.answer / walk.drop —
/// the events ChromeTraceSink pairs into flow arrows). Off by default even
/// when tracing: a traced agreement trial emits O(n) marks per iteration,
/// which would dominate every nightly trace. BZC_TRACE_FLOW=1 (or a
/// programmatic set) opts in; purely an emission gate, so the protocol
/// goldens are unaffected either way.
void setTraceFlowMarks(bool enabled) noexcept;
[[nodiscard]] bool traceFlowMarks() noexcept;

/// Lazily configures the sink from the environment, once per process:
/// BZC_TRACE=path (JSONL event stream), BZC_TRACE_CHROME=path (chrome
/// trace_event timeline), BZC_METRICS=path (per-trial histogram/series JSONL
/// derived at the sink, obs/metrics.hpp — tools/metrics_report.py renders
/// it), BZC_ATTRIB=path (per-trial blame-graph JSONL, obs/provenance.hpp —
/// tools/blame_report.py renders it), BZC_TRACE_TRIALS=k (sample width,
/// default 1). Called by
/// ExperimentRunner on first use so every bench/example/test honors the
/// knobs without plumbing. A sink installed programmatically before the
/// first run wins over the environment.
void ensureEnvTraceConfig();

}  // namespace bzc::obs
