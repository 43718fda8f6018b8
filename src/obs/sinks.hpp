// Trace exporters: the run record (BZC_TRACE) and an in-memory capture for
// tests. See DESIGN.md §12 for the record layout.
#pragma once

#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace bzc::obs {

/// The run record: one versioned block of JSON lines per consumed trial, in
/// consumption order —
///   {"type":"trial","v":2,"scenario":S,"trial":N}       header
///   {"type":"round"|"span"|"counter"|"mark",...}         events, buffer order
///   {"type":"blame","scenario":S,"trial":N,"edges":[...],"totals":{...},
///    "victimDist":[...]}                                  (victimDist optional)
///   {"type":"end","scenario":S,"trial":N,"events":E,"rounds":R,"messages":M,"bits":B}
/// `end` carries totals summed from the events, so a truncated or corrupted
/// block fails validation. tools/run_record.py validates, diffs, reports, and
/// renders this format.
class RecordSink : public TraceSink {
 public:
  /// Owns and writes to an opened stream (the BZC_TRACE file).
  explicit RecordSink(std::unique_ptr<std::ostream> owned);
  /// Writes to a caller-owned stream (tests).
  explicit RecordSink(std::ostream& os);
  ~RecordSink() override;

  void consume(const TrialTrace& trace) override;

 private:
  std::mutex mutex_;
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_;
};

/// Test sink: stores deep copies of every consumed buffer.
class CapturingTraceSink : public TraceSink {
 public:
  void consume(const TrialTrace& trace) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    traces_.push_back(trace);
  }
  [[nodiscard]] const std::vector<TrialTrace>& traces() const noexcept { return traces_; }
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    traces_.clear();
  }

 private:
  std::mutex mutex_;
  std::vector<TrialTrace> traces_;
};

}  // namespace bzc::obs
