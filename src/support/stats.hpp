// Summary statistics, quantiles and least-squares fits used by the
// experiment harnesses to report and verify scaling claims.
#pragma once

#include <cstddef>
#include <vector>

namespace bzc {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStat {
 public:
  void add(double x) noexcept;
  void merge(const RunningStat& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile of a sample (linear interpolation between order statistics).
/// q in [0, 1]; the input vector is copied and sorted.
[[nodiscard]] double quantile(std::vector<double> sample, double q);

/// Result of an ordinary least squares fit y ≈ slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;  ///< coefficient of determination
};

/// Fits y against x; requires |x| == |y| and at least two points.
[[nodiscard]] LinearFit fitLinear(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace bzc
