#include "smc/certify.hpp"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>

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
  obs::ObsSpan span("certify_trials", "smc");
  const auto start_time = std::chrono::steady_clock::now();

  // The one fold the serve daemon also absorbs into (smc/partial.hpp):
  // one fold implementation, one digest.
  StreamingMerger merger(options);

  const unsigned workers =
      engine::fleet_workers(options.max_trials, options.threads);
  engine::WorkerPool pool(workers);

  // Certification observability (S24): one sprt_round span per fold
  // advance, live gauges for the heartbeat. Everything here observes the
  // fold — the verdict, the fold order and hence the digest are untouched
  // (test_obs and the obs-smoke CI job assert digest equality with
  // tracing on/off).
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& rounds_counter = registry.counter("smc.rounds");
  obs::Gauge& trials_gauge = registry.gauge("smc.trials");
  obs::Gauge& successes_gauge = registry.gauge("smc.successes");
  obs::Gauge& llr_gauge = registry.gauge("smc.llr");
  registry.gauge("smc.llr_lower").set(merger.sprt().lower_bound());
  registry.gauge("smc.llr_upper").set(merger.sprt().upper_bound());
  registry.gauge("smc.max_trials")
      .set(static_cast<double>(options.max_trials));

  // The scheduler state, guarded by `mutex`: the next unclaimed trial, the
  // fold, and `stop`, raised once the SPRT decides or a trial throws (the
  // running bodies read it without the lock).
  std::mutex mutex;
  std::condition_variable frontier_moved;
  std::uint64_t next_claim = 0;
  std::atomic<bool> stop{false};

  // Fold one finished trial. Only an outcome at the frontier advances the
  // fold; anything else waits in the merger's reorder buffer.
  const auto absorb = [&](std::uint64_t trial, TrialOutcome&& outcome) {
    if (trial != merger.next_needed()) {
      merger.absorb(trial, {std::move(outcome)});
      return;
    }
    obs::ObsSpan round_span("sprt_round", "smc");
    merger.absorb(trial, {std::move(outcome)});
    round_span.set_value(static_cast<double>(merger.next_needed() - trial));
    rounds_counter.add(1);
    trials_gauge.set(static_cast<double>(merger.sprt().trials()));
    successes_gauge.set(static_cast<double>(merger.sprt().successes()));
    llr_gauge.set(merger.sprt().llr());
    obs::trace_counter("smc.llr", merger.sprt().llr());
    if (merger.decided()) stop.store(true, std::memory_order_relaxed);
  };

  // Every worker runs the same loop: claim the next trial below the
  // look-ahead horizon (or wait for the frontier to move), run it, fold
  // it. No rounds, no barrier: the fold advances as soon as the lowest
  // unfolded trial lands.
  pool.parallel_for_workers(workers, [&](unsigned worker, std::uint64_t) {
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      const auto finished = [&] {
        return stop.load(std::memory_order_relaxed) ||
               next_claim >= options.max_trials;
      };
      frontier_moved.wait(lock, [&] {
        return finished() || next_claim < merger.horizon(workers);
      });
      if (finished()) return;
      const std::uint64_t trial = next_claim++;
      lock.unlock();
      TrialOutcome outcome;
      try {
        obs::ObsSpan trial_span("trial", "smc");
        trial_span.set_value(static_cast<double>(trial));
        outcome = body(worker, trial,
                       engine::derive_trial_seed(options.seed, trial), stop);
      } catch (...) {
        lock.lock();
        stop.store(true, std::memory_order_relaxed);
        frontier_moved.notify_all();
        throw;  // the pool rethrows it once every worker has returned
      }
      lock.lock();
      // An outcome that lands after `stop` is dropped unfolded, and a body
      // cut short by `stop` only ever lands after it.
      if (!stop.load(std::memory_order_relaxed))
        absorb(trial, std::move(outcome));
      frontier_moved.notify_all();
    }
  });

  Certificate cert = merger.finish();
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
      engine::fleet_workers(options.max_trials, options.threads));
  Certificate cert = certify_trials(
      [&](unsigned worker, std::uint64_t, std::uint64_t seed,
          const std::atomic<bool>& stop) {
        return outcome_of(
            executor.run(worker, initial, seed, options.sim, &stop),
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
