// Deterministic metrics layer on top of the trace buffers (DESIGN.md §13).
//
// Two pieces:
//
//  - LogHistogram: an HDR-style log-linear streaming histogram over uint64
//    values with *fixed* bucket boundaries (a pure function of the precision,
//    never of the data). Values below 2^P are exact; above, each power-of-two
//    octave splits into 2^(P-1) equal sub-buckets, bounding relative error by
//    2^-(P-1) (≤ 3.2% at the default P = 6) with at most 1920 buckets across
//    the full 64-bit range. Buckets hold integer counts, so merging is plain
//    integer addition: exact, associative and commutative — merging per-epoch
//    / per-trial histograms in any grouping yields identical
//    buckets (tests/metrics_test.cpp shuffles 256-way merges to pin this).
//
//  - TrialMetrics: the per-trial metrics bundle — named histograms distilled
//    from SyncEngine round records and phase spans, plus the round-resolution
//    TimeSeries of every domain counter (obs/series.hpp). It is *derived*
//    from a completed TrialTrace at the serial sink point, never accumulated
//    protocol-side, so it is strictly observational (golden fingerprints are
//    bit-identical metrics on/off) and its deterministic projection — every
//    histogram not flagged `wall`, plus all series — is a pure function of
//    the trial at any runner thread count or pipeline depth.
//    Wall-clock histograms (recv/merge/scatter ns, span durations) are kept
//    for reporting but excluded from metricsFingerprint(), exactly like the
//    trace projection excludes ts/dur fields.
//
// Export: the run record (BZC_TRACE, obs/sinks.hpp) writes each sampled
// trial's histograms and metricsFingerprint() as its `hists` line;
// tools/run_record.py renders the convergence curves and phase-time tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/series.hpp"
#include "obs/trace.hpp"

namespace bzc::obs {

class LogHistogram {
 public:
  /// Sub-bucket precision in bits. Exact below 2^P; 2^(P-1) sub-buckets per
  /// octave above.
  static constexpr unsigned kDefaultPrecision = 6;

  explicit LogHistogram(unsigned precision = kDefaultPrecision);

  void add(std::uint64_t value) { addN(value, 1); }
  void addN(std::uint64_t value, std::uint64_t weight);

  /// Exact merge: per-bucket integer addition. Requires equal precision.
  void merge(const LogHistogram& other);

  [[nodiscard]] unsigned precision() const noexcept { return precision_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }

  /// Quantile by cumulative bucket walk with in-bucket linear interpolation,
  /// clamped to [min, max]. Exact for values below 2^P; otherwise within the
  /// bucket's relative-error bound.
  [[nodiscard]] double quantile(double q) const;

  /// Visits non-empty buckets in index order: fn(index, lo, hi, count) with
  /// value range [lo, hi) — the canonical iteration order fingerprints and
  /// exports use.
  template <typename Fn>
  void forEachNonzero(Fn&& fn) const {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] == 0) continue;
      fn(i, bucketLo(i, precision_), bucketHi(i, precision_), buckets_[i]);
    }
  }

  // Fixed bucket geometry (static: boundaries depend only on the precision).
  [[nodiscard]] static std::size_t bucketIndex(std::uint64_t value, unsigned precision) noexcept;
  [[nodiscard]] static std::uint64_t bucketLo(std::size_t index, unsigned precision) noexcept;
  /// Exclusive upper bound; the top bucket saturates at UINT64_MAX.
  [[nodiscard]] static std::uint64_t bucketHi(std::size_t index, unsigned precision) noexcept;

 private:
  unsigned precision_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::uint64_t max_ = 0;
  std::vector<std::uint64_t> buckets_;  ///< dense, lazily grown to the top touched index
};

/// One named histogram of the trial bundle. `wall` marks wall-clock payload
/// (phase ns, span durations): reported, but excluded from the deterministic
/// projection and metricsFingerprint().
struct NamedHistogram {
  std::string name;
  bool wall = false;
  LogHistogram hist;
};

struct TrialMetrics {
  std::string scenario;
  std::uint32_t trial = 0;
  std::vector<NamedHistogram> hists;  ///< sorted by name
  std::vector<TimeSeries> series;     ///< sorted by name (obs/series.hpp)
};

/// Distills a completed trace: engine round records become the deterministic
/// engine.{sends,touched,messages,bits}PerRound histograms plus wall-flagged
/// engine.{recv,merge,scatter}Ns; spans become wall-flagged "span.<name>"
/// duration histograms; counters and marks become TimeSeries via buildSeries.
[[nodiscard]] TrialMetrics buildTrialMetrics(const TrialTrace& trace,
                                             unsigned precision = LogHistogram::kDefaultPrecision);

/// FNV-1a over the deterministic projection: scenario, trial, every non-wall
/// histogram (name, precision, count, sum, min, max, non-empty buckets) and
/// every series (name, points). Only deterministic trace content feeds the
/// histograms/series hashed here, so the fingerprint is invariant across
/// runner threads and pipeline depths (pinned by tests).
[[nodiscard]] std::uint64_t metricsFingerprint(const TrialMetrics& metrics);

}  // namespace bzc::obs
