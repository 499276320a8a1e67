// Wald's sequential probability ratio test for Bernoulli streams (S23).
//
// The statistical model checker certifies statements of the form "this
// protocol stabilises to the correct output with probability >= 1 - delta"
// by observing a stream of independent trial outcomes. A fixed-sample test
// wastes trials when the true probability is far from the decision
// boundary; Wald's SPRT stops as early as the evidence permits while
// keeping both error probabilities bounded:
//
//   H1: p >= p1      (the property holds — e.g. p1 = 1 - delta)
//   H0: p <= p0      (the property fails; p0 < p1, the gap is the
//                     indifference region inside which either verdict is
//                     statistically acceptable)
//
// After each observation the log-likelihood ratio
//   llr += success ? ln(p1/p0) : ln((1-p1)/(1-p0))
// is compared against Wald's thresholds
//   accept H1 when llr >= ln((1-beta)/alpha)
//   accept H0 when llr <= ln(beta/(1-alpha))
// which guarantee P(accept H1 | p <= p0) <= alpha and
// P(accept H0 | p >= p1) <= beta (Wald 1945, up to the standard overshoot
// slack). The expected sample sizes are available in closed form and are
// what the unit tests pin the implementation against.
#pragma once

#include <cstdint>

namespace ppde::smc {

struct SprtOptions {
  double p0 = 0.94;    ///< H0 boundary: property fails when p <= p0.
  double p1 = 0.99;    ///< H1 boundary: property holds when p >= p1.
  double alpha = 0.01; ///< Type-I error: P(accept H1 | p <= p0).
  double beta = 0.01;  ///< Type-II error: P(accept H0 | p >= p1).

  /// Throws std::invalid_argument unless 0 < p0 < p1 < 1 and the error
  /// rates are in (0, 1/2).
  void validate() const;
};

class Sprt {
 public:
  enum class Decision {
    kContinue,  ///< evidence insufficient, keep sampling
    kAcceptH1,  ///< p >= p1 accepted with type-I error alpha
    kAcceptH0,  ///< p <= p0 accepted with type-II error beta
  };

  explicit Sprt(const SprtOptions& options);

  /// Feed one Bernoulli observation. Further updates after a decision are
  /// ignored (the stopped test's verdict is final by definition).
  void update(bool success);

  Decision decision() const { return decision_; }
  bool decided() const { return decision_ != Decision::kContinue; }

  std::uint64_t trials() const { return trials_; }
  std::uint64_t successes() const { return successes_; }
  /// Current log-likelihood ratio of H1 against H0.
  double llr() const { return llr_; }

  /// Wald's decision thresholds ln((1-beta)/alpha) and ln(beta/(1-alpha)).
  double upper_bound() const { return upper_; }
  double lower_bound() const { return lower_; }

  /// Wald's approximation of the expected number of observations until a
  /// decision when the true success probability is `p` (clamped away from
  /// the llr-drift singularity near the indifference region's interior
  /// root). Used by tests to bound observed stopping times.
  double expected_samples(double p) const;

 private:
  SprtOptions options_;
  double llr_increment_success_ = 0.0;
  double llr_increment_failure_ = 0.0;
  double upper_ = 0.0;
  double lower_ = 0.0;
  double llr_ = 0.0;
  std::uint64_t trials_ = 0;
  std::uint64_t successes_ = 0;
  Decision decision_ = Decision::kContinue;
};

const char* to_string(Sprt::Decision decision);

}  // namespace ppde::smc
