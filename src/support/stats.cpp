#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/require.hpp"

namespace bzc {

void RunningStat::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nTotal = na + nb;
  mean_ += delta * nb / nTotal;
  m2_ += other.m2_ + delta * delta * na * nb / nTotal;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStat::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double quantile(std::vector<double> sample, double q) {
  BZC_REQUIRE(!sample.empty(), "quantile of empty sample");
  BZC_REQUIRE(q >= 0.0 && q <= 1.0, "quantile out of range");
  std::sort(sample.begin(), sample.end());
  if (sample.size() == 1) return sample.front();
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sample.size()) return sample.back();
  return sample[lo] * (1.0 - frac) + sample[lo + 1] * frac;
}

LinearFit fitLinear(const std::vector<double>& x, const std::vector<double>& y) {
  BZC_REQUIRE(x.size() == y.size(), "mismatched fit inputs");
  BZC_REQUIRE(x.size() >= 2, "fit needs at least two points");
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  LinearFit fit;
  if (std::abs(denom) < 1e-12) {
    fit.slope = 0.0;
    fit.intercept = sy / n;
    fit.r2 = 0.0;
    return fit;
  }
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ssTot = syy - sy * sy / n;
  double ssRes = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - (fit.slope * x[i] + fit.intercept);
    ssRes += r * r;
  }
  fit.r2 = ssTot > 1e-12 ? 1.0 - ssRes / ssTot : 1.0;
  return fit;
}

}  // namespace bzc
