#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>

#include "obs/sinks.hpp"
#include "support/knob.hpp"

namespace bzc::obs {

namespace {

/// Process-wide epoch: every trace timestamp is relative to the first clock
/// read, so buffers from concurrent trials share one timeline.
std::chrono::steady_clock::time_point traceEpoch() noexcept {
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return epoch;
}

thread_local TrialTrace* t_currentTrace = nullptr;

std::mutex g_sinkMutex;
std::shared_ptr<TraceSink> g_sink;            // guarded by g_sinkMutex
std::uint32_t g_sampleTrials = 1;             // guarded by g_sinkMutex

/// The run record replaced these exporters and the logger; a stale script
/// fails loudly instead of silently writing nothing.
void rejectRetiredKnobs() {
  for (const char* retired : {"BZC_METRICS", "BZC_ATTRIB", "BZC_TRACE_CHROME"}) {
    if (std::getenv(retired) == nullptr) continue;
    std::cerr << retired << " is no longer read: BZC_TRACE=path writes one run record per "
              << "sampled trial with its events and blame graph, and "
              << "tools/run_record.py chrome renders its timeline\n";
    std::exit(2);
  }
  if (std::getenv("BZC_LOG") != nullptr) {
    std::cerr << "BZC_LOG is no longer read: the library has no logger, and BZC_TRACE=path "
              << "records what a run did\n";
    std::exit(2);
  }
}

// Checked during static initialisation, so every binary that links the
// tracer exits with status 2 before main, whether or not it runs a trial.
[[maybe_unused]] const bool g_retiredKnobsChecked = (rejectRetiredKnobs(), true);

}  // namespace

const char* eventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::Round: return "round";
    case EventKind::Span: return "span";
    case EventKind::Counter: return "counter";
    case EventKind::Mark: return "mark";
  }
  return "?";
}

std::int64_t traceClockNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              traceEpoch())
      .count();
}

TrialTrace* currentTrace() noexcept { return t_currentTrace; }

TraceScope::TraceScope(TrialTrace* trace) noexcept : prev_(t_currentTrace) {
  t_currentTrace = trace;
}

TraceScope::~TraceScope() { t_currentTrace = prev_; }

void setTraceSink(std::shared_ptr<TraceSink> sink, std::uint32_t sampleTrials) {
  const std::lock_guard<std::mutex> lock(g_sinkMutex);
  g_sink = std::move(sink);
  g_sampleTrials = sampleTrials == 0 ? 1 : sampleTrials;
}

std::shared_ptr<TraceSink> traceSink() {
  const std::lock_guard<std::mutex> lock(g_sinkMutex);
  return g_sink;
}

std::uint32_t traceSampleTrials() noexcept {
  const std::lock_guard<std::mutex> lock(g_sinkMutex);
  return g_sampleTrials;
}

namespace {
std::atomic<bool> g_flowMarks{false};
}  // namespace

void setTraceFlowMarks(bool enabled) noexcept {
  g_flowMarks.store(enabled, std::memory_order_relaxed);
}

bool traceFlowMarks() noexcept { return g_flowMarks.load(std::memory_order_relaxed); }

void ensureEnvTraceConfig() {
  static std::once_flag once;
  std::call_once(once, [] {
    const auto sample =
        static_cast<std::uint32_t>(envKnob("BZC_TRACE_TRIALS", 1, 1, UINT32_MAX));
    const bool flow = envKnob("BZC_TRACE_FLOW", 0, 0, 1) == 1;
    {
      const std::lock_guard<std::mutex> lock(g_sinkMutex);
      if (g_sink != nullptr) return;  // programmatic install wins
    }
    // Empty string = unset (CI loops export "" for untraced iterations).
    const char* path = std::getenv("BZC_TRACE");
    if (path == nullptr || *path == '\0') return;
    // Opened here, not in the runner's first fan-out, so a bad path exits
    // like a bad knob instead of throwing across a worker thread.
    auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
    if (!file->is_open()) {
      std::cerr << "BZC_TRACE: cannot open " << path << "\n";
      std::exit(2);
    }
    if (flow) setTraceFlowMarks(true);
    setTraceSink(std::make_shared<RecordSink>(std::move(file)), sample);
  });
}

}  // namespace bzc::obs
