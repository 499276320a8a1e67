#include "smc/partial.hpp"

namespace ppde::smc {

Certificate certificate_statement(const CertifyOptions& options) {
  Certificate cert;
  cert.delta = options.delta;
  cert.indifference = options.indifference;
  cert.alpha = options.alpha;
  cert.beta = options.beta;
  cert.ci_confidence = options.ci_confidence;
  cert.seed = options.seed;
  cert.max_trials = options.max_trials;
  cert.interaction_budget = options.sim.max_interactions;
  if (!options.scenario.is_default())
    cert.scenario = options.scenario.to_string();
  return cert;
}

FoldState::FoldState(const CertifyOptions& options)
    : sprt_(options.sprt()) {}

void FoldState::fold(const TrialOutcome& outcome) {
  if (sprt_.decided()) return;
  sprt_.update(outcome.success);
  if (outcome.stabilised) {
    ++stabilised_;
    if (outcome.success) tails_.add(outcome.convergence_parallel_time);
  }
  meetings_ += outcome.metrics.meetings;
  firings_ += outcome.metrics.firings;
}

Certificate FoldState::finish(const CertifyOptions& options) const {
  Certificate cert = certificate_statement(options);
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
      clopper_pearson(cert.successes, cert.trials, options.ci_confidence);
  cert.time_p50 = tails_.p50();
  cert.time_p90 = tails_.p90();
  cert.time_p99 = tails_.p99();
  cert.stabilised = stabilised_;
  cert.total_meetings = meetings_;
  cert.total_firings = firings_;
  return cert;
}

StreamingMerger::StreamingMerger(const CertifyOptions& options)
    : options_(options), fold_(options) {}

void StreamingMerger::absorb(std::uint64_t first,
                             std::vector<TrialOutcome> outcomes) {
  if (fold_.decided()) {
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
  while (!fold_.decided() && !pending_.empty()) {
    auto front = pending_.begin();
    if (front->first > next_) break;
    const std::vector<TrialOutcome>& range = front->second;
    const std::uint64_t skip = next_ - front->first;
    for (std::uint64_t i = skip;
         i < range.size() && !fold_.decided() && next_ < options_.max_trials;
         ++i) {
      fold_.fold(range[i]);
      ++next_;
    }
    if (fold_.decided() || next_ >= options_.max_trials) {
      pending_.clear();
      break;
    }
    pending_.erase(front);
  }
}

}  // namespace ppde::smc
