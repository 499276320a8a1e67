// Streaming statistics for the statistical model checker (S23).
//
// Two independent pieces:
//
//   * Clopper–Pearson intervals — the *exact* binomial confidence interval
//     on a success probability. Unlike the normal approximation it never
//     undercovers, which matters because certificates quote it as a hard
//     error bound; the endpoints are beta-distribution quantiles, computed
//     here with a regularised-incomplete-beta continued fraction plus
//     bisection (no external math library).
//
//   * The P² (piecewise-parabolic) quantile estimator of Jain & Chlamtac
//     (CACM 1985) — a five-marker streaming estimate of one quantile in
//     O(1) memory. Certification fleets run up to millions of trials;
//     convergence-time tails (p50/p90/p99 of parallel time) are tracked by
//     feeding every observation through three of these instead of storing
//     per-trial vectors. Below five observations the estimator falls back
//     to the exact order statistic of what it has seen.
//
// Both are deterministic functions of their input stream, which is what
// lets a certificate's digest be reproduced at any thread count (the
// certify driver feeds them in trial order).
#pragma once

#include <array>
#include <cstdint>

namespace ppde::smc {

/// Exact two-sided Clopper–Pearson interval for `successes` out of
/// `trials` at confidence level `confidence` (e.g. 0.99). trials == 0
/// yields the vacuous interval [0, 1]; the edge cases successes == 0 and
/// successes == trials yield exact one-sided bounds (lower 0 resp. upper
/// 1).
struct BinomialInterval {
  double lower = 0.0;
  double upper = 1.0;
};
BinomialInterval clopper_pearson(std::uint64_t successes,
                                 std::uint64_t trials, double confidence);

/// Regularised incomplete beta function I_x(a, b) for a, b > 0 and
/// x in [0, 1] (exposed for the unit tests; continued-fraction evaluation
/// per Numerical Recipes' betacf, accurate to ~1e-12).
double incomplete_beta(double a, double b, double x);

/// Streaming P² estimator of one quantile.
///
/// P² updates are *order-dependent* (each marker adjustment depends on the
/// whole prefix), which is why the serve daemon replays the canonical fold
/// in trial order instead of unioning per-shard sketches (smc/partial.hpp).
class P2Quantile {
 public:
  /// `probability` in (0, 1): the quantile to track (0.5 = median).
  explicit P2Quantile(double probability);

  void add(double value);

  /// Current estimate. Exact while count() < 5; NaN while count() == 0.
  double value() const;

  std::uint64_t count() const { return count_; }
  double probability() const { return probability_; }

 private:
  double parabolic(int i, double direction) const;
  double linear(int i, double direction) const;

  double probability_;
  std::uint64_t count_ = 0;
  std::array<double, 5> heights_{};    // marker heights q_i
  std::array<double, 5> positions_{};  // marker positions n_i (1-based)
  std::array<double, 5> desired_{};    // desired positions n'_i
  std::array<double, 5> increments_{}; // dn'_i per observation
};

/// The tail set every certificate reports: p50 / p90 / p99 of one stream.
class QuantileTails {
 public:
  QuantileTails() : p50_(0.5), p90_(0.9), p99_(0.99) {}

  void add(double value) {
    p50_.add(value);
    p90_.add(value);
    p99_.add(value);
  }

  std::uint64_t count() const { return p50_.count(); }
  double p50() const { return p50_.value(); }
  double p90() const { return p90_.value(); }
  double p99() const { return p99_.value(); }

 private:
  P2Quantile p50_;
  P2Quantile p90_;
  P2Quantile p99_;
};

}  // namespace ppde::smc
