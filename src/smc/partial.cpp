#include "smc/partial.hpp"

namespace ppde::smc {

StreamingMerger::StreamingMerger(const CertifyOptions& options)
    : options_(options), sprt_(options.sprt()) {}

void StreamingMerger::fold(const TrialOutcome& outcome) {
  sprt_.update(outcome.success);
  if (outcome.stabilised) {
    ++stabilised_;
    if (outcome.success) tails_.add(outcome.convergence_parallel_time);
  }
  meetings_ += outcome.metrics.meetings;
  firings_ += outcome.metrics.firings;
  ++next_;
}

std::uint64_t StreamingMerger::horizon(std::uint64_t in_flight) const {
  const std::uint64_t room =
      options_.max_trials > next_ ? options_.max_trials - next_ : 0;
  const std::uint64_t ahead =
      in_flight > room / kLookAhead ? room : in_flight * kLookAhead;
  return next_ + ahead;
}

void StreamingMerger::absorb(std::uint64_t first,
                             std::vector<TrialOutcome> outcomes) {
  if (sprt_.decided()) {
    pending_.clear();  // verdict is final; nothing further can fold
    return;
  }
  if (outcomes.empty() || first + outcomes.size() <= next_) return;
  if (first < next_) {  // re-delivered prefix (reassignment race): trim
    outcomes.erase(
        outcomes.begin(),
        outcomes.begin() + static_cast<std::ptrdiff_t>(next_ - first));
    first = next_;
  }
  const std::size_t length = outcomes.size();
  auto it = pending_.find(first);
  if (it == pending_.end())
    pending_.emplace(first, std::move(outcomes));
  else if (it->second.size() < length)
    it->second = std::move(outcomes);  // keep the longer duplicate

  // Drain every range that touches the frontier, folding in trial order.
  while (!sprt_.decided() && !pending_.empty()) {
    auto front = pending_.begin();
    if (front->first > next_) break;
    const std::vector<TrialOutcome>& range = front->second;
    for (std::uint64_t i = next_ - front->first;
         i < range.size() && !sprt_.decided() && next_ < options_.max_trials;
         ++i)
      fold(range[i]);
    if (sprt_.decided() || next_ >= options_.max_trials) {
      pending_.clear();
      break;
    }
    pending_.erase(front);
  }
}

Certificate StreamingMerger::finish() const {
  Certificate cert;
  cert.delta = options_.delta;
  cert.indifference = options_.indifference;
  cert.alpha = options_.alpha;
  cert.beta = options_.beta;
  cert.ci_confidence = options_.ci_confidence;
  cert.seed = options_.seed;
  cert.max_trials = options_.max_trials;
  cert.interaction_budget = options_.sim.max_interactions;
  if (!options_.scenario.is_default())
    cert.scenario = options_.scenario.to_string();

  cert.trials = sprt_.trials();
  cert.successes = sprt_.successes();
  cert.llr = sprt_.llr();
  switch (sprt_.decision()) {
    case Sprt::Decision::kAcceptH1: cert.verdict = Verdict::kCertified; break;
    case Sprt::Decision::kAcceptH0: cert.verdict = Verdict::kRefuted; break;
    case Sprt::Decision::kContinue:
      cert.verdict = Verdict::kInconclusive;
      break;
  }
  cert.interval =
      clopper_pearson(cert.successes, cert.trials, options_.ci_confidence);
  cert.time_p50 = tails_.p50();
  cert.time_p90 = tails_.p90();
  cert.time_p99 = tails_.p99();
  cert.stabilised = stabilised_;
  cert.total_meetings = meetings_;
  cert.total_firings = firings_;
  return cert;
}

}  // namespace ppde::smc
