#include "smc/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ppde::smc {

namespace {

/// Continued fraction for the regularised incomplete beta (modified
/// Lentz's method; converges for x < (a+1)/(a+b+2)).
double betacf(double a, double b, double x) {
  constexpr int kMaxIterations = 300;
  constexpr double kEps = 3e-14;
  constexpr double kFpMin = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const double m2 = 2.0 * m;
    double numerator = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + numerator * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + numerator / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + numerator * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + numerator / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEps) break;
  }
  return h;
}

/// Quantile of the Beta(a, b) distribution by bisection on
/// incomplete_beta (monotone in x; ~1e-15 final bracket width).
double beta_quantile(double q, double a, double b) {
  double lo = 0.0, hi = 1.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (incomplete_beta(a, b, mid) < q)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  if (!(a > 0.0) || !(b > 0.0))
    throw std::invalid_argument("incomplete_beta: need a, b > 0");
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log1p(-x);
  if (x < (a + 1.0) / (a + b + 2.0))
    return std::exp(ln_front) * betacf(a, b, x) / a;
  return 1.0 - std::exp(ln_front) * betacf(b, a, 1.0 - x) / b;
}

BinomialInterval clopper_pearson(std::uint64_t successes,
                                 std::uint64_t trials, double confidence) {
  if (!(0.0 < confidence && confidence < 1.0))
    throw std::invalid_argument("clopper_pearson: confidence in (0, 1)");
  if (successes > trials)
    throw std::invalid_argument("clopper_pearson: successes > trials");
  BinomialInterval interval;
  if (trials == 0) return interval;  // vacuous [0, 1]
  const double half_alpha = 0.5 * (1.0 - confidence);
  const double k = static_cast<double>(successes);
  const double n = static_cast<double>(trials);
  // Endpoints are beta quantiles: Lower ~ Beta(k, n-k+1) at alpha/2,
  // Upper ~ Beta(k+1, n-k) at 1 - alpha/2; the edges are exact one-sided
  // binomial inversions (Lower(0) = 0, Upper(n) = 1).
  interval.lower =
      successes == 0 ? 0.0 : beta_quantile(half_alpha, k, n - k + 1.0);
  interval.upper = successes == trials
                       ? 1.0
                       : beta_quantile(1.0 - half_alpha, k + 1.0, n - k);
  return interval;
}

P2Quantile::P2Quantile(double probability) : probability_(probability) {
  if (!(0.0 < probability && probability < 1.0))
    throw std::invalid_argument("P2Quantile: probability in (0, 1)");
}

double P2Quantile::parabolic(int i, double d) const {
  return heights_[i] +
         d / (positions_[i + 1] - positions_[i - 1]) *
             ((positions_[i] - positions_[i - 1] + d) *
                  (heights_[i + 1] - heights_[i]) /
                  (positions_[i + 1] - positions_[i]) +
              (positions_[i + 1] - positions_[i] - d) *
                  (heights_[i] - heights_[i - 1]) /
                  (positions_[i] - positions_[i - 1]));
}

double P2Quantile::linear(int i, double d) const {
  const int j = i + static_cast<int>(d);
  return heights_[i] + d * (heights_[j] - heights_[i]) /
                           (positions_[j] - positions_[i]);
}

void P2Quantile::add(double value) {
  if (count_ < 5) {
    heights_[count_++] = value;
    if (count_ == 5) {
      std::sort(heights_.begin(), heights_.end());
      for (int i = 0; i < 5; ++i) positions_[i] = i + 1;
      desired_ = {1.0, 1.0 + 2.0 * probability_, 1.0 + 4.0 * probability_,
                  3.0 + 2.0 * probability_, 5.0};
      increments_ = {0.0, probability_ / 2.0, probability_,
                     (1.0 + probability_) / 2.0, 1.0};
    }
    return;
  }

  ++count_;
  int cell;
  if (value < heights_[0]) {
    heights_[0] = value;
    cell = 0;
  } else if (value >= heights_[4]) {
    heights_[4] = value;
    cell = 3;
  } else {
    cell = 0;
    while (cell < 3 && value >= heights_[cell + 1]) ++cell;
  }
  for (int i = cell + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  for (int i = 1; i <= 3; ++i) {
    const double offset = desired_[i] - positions_[i];
    if ((offset >= 1.0 && positions_[i + 1] - positions_[i] > 1.0) ||
        (offset <= -1.0 && positions_[i - 1] - positions_[i] < -1.0)) {
      const double d = offset >= 0.0 ? 1.0 : -1.0;
      const double candidate = parabolic(i, d);
      heights_[i] =
          (heights_[i - 1] < candidate && candidate < heights_[i + 1])
              ? candidate
              : linear(i, d);
      positions_[i] += d;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  if (count_ < 5) {
    std::array<double, 5> sorted = heights_;
    std::sort(sorted.begin(), sorted.begin() + count_);
    const double rank = probability_ * static_cast<double>(count_);
    auto index = static_cast<std::uint64_t>(std::ceil(rank));
    index = index == 0 ? 0 : index - 1;
    return sorted[std::min<std::uint64_t>(index, count_ - 1)];
  }
  return heights_[2];
}

}  // namespace ppde::smc
