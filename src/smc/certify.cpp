#include "smc/certify.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "engine/executor.hpp"
#include "engine/pool.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "smc/partial.hpp"

namespace ppde::smc {

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kCertified: return "CERTIFIED";
    case Verdict::kRefuted: return "REFUTED";
    case Verdict::kInconclusive: return "INCONCLUSIVE";
  }
  return "?";
}

SprtOptions CertifyOptions::sprt() const {
  SprtOptions options;
  options.p1 = 1.0 - delta;
  options.p0 = 1.0 - delta - indifference;
  options.alpha = alpha;
  options.beta = beta;
  options.validate();
  return options;
}

Certificate certify_trials(const TrialFn& body,
                           const CertifyOptions& options) {
  if (options.batch == 0)
    throw std::invalid_argument("certify_trials: batch must be positive");
  obs::ObsSpan span("certify_trials", "smc");
  const auto start_time = std::chrono::steady_clock::now();

  // The entire statistical state lives in the same FoldState the serve
  // daemon's StreamingMerger replays (smc/partial.hpp), so the two paths
  // cannot drift apart: one fold implementation, one digest.
  FoldState fold(options);

  const unsigned workers = engine::fleet_workers(options.batch, options.threads);
  engine::WorkerPool pool(workers);

  // The one outcome buffer the whole certification reuses: per-trial data
  // never outlives its batch, so memory stays O(batch) no matter how many
  // trials the SPRT ends up needing.
  std::vector<TrialOutcome> outcomes(options.batch);

  // Certification observability (S24): one span per SPRT round, live
  // gauges for the heartbeat. Everything here observes the fold — the
  // verdict, the fold order and hence the digest are untouched (test_obs
  // and the obs-smoke CI job assert digest equality with tracing on/off).
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& rounds_counter = registry.counter("smc.rounds");
  obs::Gauge& trials_gauge = registry.gauge("smc.trials");
  obs::Gauge& successes_gauge = registry.gauge("smc.successes");
  obs::Gauge& llr_gauge = registry.gauge("smc.llr");
  obs::Gauge& llr_lower_gauge = registry.gauge("smc.llr_lower");
  obs::Gauge& llr_upper_gauge = registry.gauge("smc.llr_upper");
  obs::Gauge& max_trials_gauge = registry.gauge("smc.max_trials");
  llr_lower_gauge.set(fold.sprt().lower_bound());
  llr_upper_gauge.set(fold.sprt().upper_bound());
  max_trials_gauge.set(static_cast<double>(options.max_trials));

  std::uint64_t next_trial = 0;
  while (!fold.decided() && next_trial < options.max_trials) {
    const std::uint64_t batch =
        std::min(options.batch, options.max_trials - next_trial);
    const std::uint64_t base = next_trial;
    obs::ObsSpan round_span("sprt_round", "smc");
    round_span.set_value(static_cast<double>(batch));
    pool.parallel_for_workers(batch, [&](unsigned worker, std::uint64_t i) {
      const std::uint64_t trial = base + i;
      obs::ObsSpan trial_span("trial", "smc");
      trial_span.set_value(static_cast<double>(trial));
      outcomes[i] =
          body(worker, trial, engine::derive_trial_seed(options.seed, trial));
    });
    // Fold in trial order; stop at the SPRT's decision point so that every
    // statistic covers exactly the trials the sequential test consumed —
    // the tail of the last batch ran but is not part of the certificate.
    for (std::uint64_t i = 0; i < batch && !fold.decided(); ++i)
      fold.fold(outcomes[i]);
    next_trial = base + batch;
    rounds_counter.add(1);
    trials_gauge.set(static_cast<double>(fold.sprt().trials()));
    successes_gauge.set(static_cast<double>(fold.sprt().successes()));
    llr_gauge.set(fold.sprt().llr());
    obs::trace_counter("smc.llr", fold.sprt().llr());
  }

  Certificate cert = fold.finish(options);
  cert.threads_used = workers;
  cert.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return cert;
}

TrialOutcome outcome_of(const engine::TrialResult& trial,
                        bool expected_output, std::uint64_t population) {
  const pp::SimulationResult& sim = trial.sim;
  TrialOutcome outcome;
  outcome.metrics = trial.metrics;
  outcome.stabilised =
      sim.stabilised &&
      sim.consensus_since != pp::SimulationResult::kNeverStabilised;
  outcome.success = outcome.stabilised && sim.output == expected_output;
  if (outcome.stabilised)
    outcome.convergence_parallel_time =
        static_cast<double>(sim.consensus_since) /
        static_cast<double>(population);
  return outcome;
}

Certificate certify(const pp::Protocol& protocol, const pp::Config& initial,
                    bool expected_output, const CertifyOptions& options) {
  // Engine/scenario selection and per-worker simulator reuse live in
  // engine::TrialExecutor (S27), the body every layer runs.
  engine::TrialExecutor executor(
      protocol, options.engine, options.scenario,
      engine::fleet_workers(options.batch, options.threads));
  Certificate cert = certify_trials(
      [&](unsigned worker, std::uint64_t, std::uint64_t seed) {
        return outcome_of(executor.run(worker, initial, seed, options.sim),
                          expected_output, initial.total());
      },
      options);
  cert.protocol_fingerprint = protocol.fingerprint();
  cert.population = initial.total();
  cert.expected_output = expected_output;
  return cert;
}

std::string describe(const Certificate& cert) {
  char buffer[768];
  const bool have_tails = cert.successes > 0 && !std::isnan(cert.time_p50);
  char tails[128];
  if (have_tails)
    std::snprintf(tails, sizeof tails, "p50 %.3g  p90 %.3g  p99 %.3g",
                  cert.time_p50, cert.time_p90, cert.time_p99);
  else
    std::snprintf(tails, sizeof tails, "(no successful trials)");
  std::snprintf(
      buffer, sizeof buffer,
      "verdict ........... %s\n"
      "statement ......... P(stabilise to %s) >= %.4g at m = %llu\n"
      "errors ............ alpha %.3g  beta %.3g  indifference %.3g\n"
      "trials ............ %llu (%llu successes, %llu stabilised; "
      "budget %llu)\n"
      "llr ............... %.4g\n"
      "correctness CI .... [%.6g, %.6g] at %.4g (Clopper-Pearson)\n"
      "convergence time .. %s (parallel time)\n"
      "fingerprint ....... %016llx  seed %llu\n"
      "wall .............. %.3fs (%u threads)\n",
      to_string(cert.verdict), cert.expected_output ? "ACCEPT" : "REJECT",
      1.0 - cert.delta, static_cast<unsigned long long>(cert.population),
      cert.alpha, cert.beta, cert.indifference,
      static_cast<unsigned long long>(cert.trials),
      static_cast<unsigned long long>(cert.successes),
      static_cast<unsigned long long>(cert.stabilised),
      static_cast<unsigned long long>(cert.max_trials), cert.llr,
      cert.interval.lower, cert.interval.upper, cert.ci_confidence, tails,
      static_cast<unsigned long long>(cert.protocol_fingerprint),
      static_cast<unsigned long long>(cert.seed), cert.wall_seconds,
      cert.threads_used);
  std::string out = buffer;
  if (!cert.scenario.empty())
    out += "scenario .......... " + cert.scenario + "\n";
  return out;
}

}  // namespace ppde::smc
