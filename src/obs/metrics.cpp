#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "support/require.hpp"

namespace bzc::obs {

namespace {

// Local FNV-1a: obs is a leaf module and must not pull in
// runtime/fingerprint.hpp (which drags protocol headers along).
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnvBytes(const void* data, std::size_t len, std::uint64_t h) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

template <typename T>
std::uint64_t fnvPod(const T& value, std::uint64_t h) noexcept {
  return fnvBytes(&value, sizeof value, h);
}

std::uint64_t fnvStr(const std::string& s, std::uint64_t h) noexcept {
  h = fnvPod(s.size(), h);
  return fnvBytes(s.data(), s.size(), h);
}

std::uint64_t clampNs(std::int64_t ns) noexcept {
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

}  // namespace

// --- LogHistogram -----------------------------------------------------------

LogHistogram::LogHistogram(unsigned precision) : precision_(precision) {
  BZC_REQUIRE(precision >= 2 && precision <= 32, "LogHistogram precision out of range");
}

std::size_t LogHistogram::bucketIndex(std::uint64_t value, unsigned precision) noexcept {
  const std::uint64_t half = 1ULL << (precision - 1);
  if (value < half) return static_cast<std::size_t>(value);
  const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(value));
  const unsigned shift = e - (precision - 1);
  const std::uint64_t sub = (value - (1ULL << e)) >> shift;
  return static_cast<std::size_t>((e - precision + 2) * half + sub);
}

std::uint64_t LogHistogram::bucketLo(std::size_t index, unsigned precision) noexcept {
  const std::uint64_t half = 1ULL << (precision - 1);
  if (index < half) return index;
  const unsigned e = static_cast<unsigned>(index / half) + precision - 2;
  if (e >= 64) return ~0ULL;  // one past the top bucket
  const std::uint64_t sub = index % half;
  return (1ULL << e) + (sub << (e - (precision - 1)));
}

std::uint64_t LogHistogram::bucketHi(std::size_t index, unsigned precision) noexcept {
  return bucketLo(index + 1, precision);
}

void LogHistogram::addN(std::uint64_t value, std::uint64_t weight) {
  if (weight == 0) return;
  const std::size_t idx = bucketIndex(value, precision_);
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
  buckets_[idx] += weight;
  count_ += weight;
  sum_ += value * weight;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void LogHistogram::merge(const LogHistogram& other) {
  BZC_REQUIRE(precision_ == other.precision_, "LogHistogram precision mismatch in merge");
  if (other.count_ == 0) return;
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min_);
  if (q >= 1.0) return static_cast<double>(max_);
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t c = buckets_[i];
    if (c == 0) continue;
    if (rank < static_cast<double>(cum + c)) {
      const double frac = (rank - static_cast<double>(cum)) / static_cast<double>(c);
      const double lo = static_cast<double>(bucketLo(i, precision_));
      const double hiIncl = static_cast<double>(bucketHi(i, precision_) - 1);
      const double v = lo + frac * (hiIncl - lo);
      return std::clamp(v, static_cast<double>(min_), static_cast<double>(max_));
    }
    cum += c;
  }
  return static_cast<double>(max_);
}

// --- TrialMetrics -----------------------------------------------------------

TrialMetrics buildTrialMetrics(const TrialTrace& trace) {
  TrialMetrics m;
  m.scenario = trace.scenario;
  m.trial = trace.trial;

  // Keyed build: emitted order is sorted by name, a pure function of content.
  std::map<std::string, NamedHistogram> hists;
  const auto histAt = [&](std::string name, bool wall) -> LogHistogram& {
    auto it = hists.find(name);
    if (it == hists.end()) {
      NamedHistogram h{name, wall, LogHistogram()};
      it = hists.emplace(std::move(name), std::move(h)).first;
    }
    return it->second.hist;
  };

  for (const TraceEvent& e : trace.events) {
    switch (e.kind) {
      case EventKind::Round: {
        const RoundRecord& r = e.rd;
        // Deterministic per-round traffic.
        histAt("engine.sendsPerRound", false).add(r.sends);
        histAt("engine.touchedPerRound", false).add(r.touched);
        histAt("engine.messagesPerRound", false).add(r.messages);
        histAt("engine.bitsPerRound", false).add(r.bits);
        // Wall-clock phase timings: reporting payload only.
        histAt("engine.recvNs", true).add(clampNs(r.recvNs));
        histAt("engine.scatterNs", true).add(clampNs(r.scatterNs));
        break;
      }
      case EventKind::Span:
        histAt(std::string("span.") + e.name, true).add(clampNs(e.durNs));
        break;
      case EventKind::Counter:
      case EventKind::Mark:
        break;  // event lines in the run record; no histogram
    }
  }
  m.hists.reserve(hists.size());
  for (auto& [name, h] : hists) m.hists.push_back(std::move(h));
  return m;
}

std::uint64_t metricsFingerprint(const TrialMetrics& metrics) {
  std::uint64_t h = kFnvOffset;
  h = fnvStr(metrics.scenario, h);
  h = fnvPod(metrics.trial, h);
  for (const NamedHistogram& nh : metrics.hists) {
    if (nh.wall) continue;  // wall clocks are the nondeterministic payload
    h = fnvStr(nh.name, h);
    h = fnvPod(nh.hist.precision(), h);
    h = fnvPod(nh.hist.count(), h);
    h = fnvPod(nh.hist.sum(), h);
    h = fnvPod(nh.hist.min(), h);
    h = fnvPod(nh.hist.max(), h);
    nh.hist.forEachNonzero([&](std::size_t index, std::uint64_t, std::uint64_t,
                               std::uint64_t count) {
      h = fnvPod(index, h);
      h = fnvPod(count, h);
    });
  }
  return h;
}

}  // namespace bzc::obs
