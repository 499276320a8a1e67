#include "smc/sprt.hpp"

#include <cmath>
#include <stdexcept>

namespace ppde::smc {

void SprtOptions::validate() const {
  if (!(0.0 < p0 && p0 < p1 && p1 < 1.0))
    throw std::invalid_argument("SprtOptions: need 0 < p0 < p1 < 1");
  if (!(0.0 < alpha && alpha < 0.5) || !(0.0 < beta && beta < 0.5))
    throw std::invalid_argument("SprtOptions: need alpha, beta in (0, 1/2)");
}

Sprt::Sprt(const SprtOptions& options) : options_(options) {
  options.validate();
  llr_increment_success_ = std::log(options.p1 / options.p0);
  llr_increment_failure_ =
      std::log((1.0 - options.p1) / (1.0 - options.p0));
  upper_ = std::log((1.0 - options.beta) / options.alpha);
  lower_ = std::log(options.beta / (1.0 - options.alpha));
}

void Sprt::update(bool success) {
  if (decided()) return;
  ++trials_;
  if (success) {
    ++successes_;
    llr_ += llr_increment_success_;
  } else {
    llr_ += llr_increment_failure_;
  }
  if (llr_ >= upper_)
    decision_ = Decision::kAcceptH1;
  else if (llr_ <= lower_)
    decision_ = Decision::kAcceptH0;
}

double Sprt::expected_samples(double p) const {
  // E_p[N] ~= (L(p) * lower + (1 - L(p)) * upper) / E_p[Z], where L(p) is
  // the probability of accepting H0 and Z the per-observation llr
  // increment. We only need the two hypothesis points for the tests, where
  // L(p1) ~= beta and L(p0) ~= 1 - alpha; interpolate L linearly between
  // them elsewhere (the approximation is only used as a sanity bound).
  const double drift =
      p * llr_increment_success_ + (1.0 - p) * llr_increment_failure_;
  if (std::abs(drift) < 1e-12) {
    // Near the drift-free point Wald's formula degenerates; fall back to
    // the second-moment bound E[N] ~= upper * |lower| / E[Z^2].
    const double second =
        p * llr_increment_success_ * llr_increment_success_ +
        (1.0 - p) * llr_increment_failure_ * llr_increment_failure_;
    return upper_ * -lower_ / second;
  }
  double accept_h0;  // L(p)
  if (p >= options_.p1)
    accept_h0 = options_.beta;
  else if (p <= options_.p0)
    accept_h0 = 1.0 - options_.alpha;
  else
    accept_h0 = 1.0 - options_.alpha -
                (1.0 - options_.alpha - options_.beta) * (p - options_.p0) /
                    (options_.p1 - options_.p0);
  return (accept_h0 * lower_ + (1.0 - accept_h0) * upper_) / drift;
}

const char* to_string(Sprt::Decision decision) {
  switch (decision) {
    case Sprt::Decision::kContinue: return "continue";
    case Sprt::Decision::kAcceptH1: return "accept-H1";
    case Sprt::Decision::kAcceptH0: return "accept-H0";
  }
  return "?";
}

}  // namespace ppde::smc
