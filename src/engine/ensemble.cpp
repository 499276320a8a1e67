#include "engine/ensemble.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "engine/executor.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace ppde::engine {

std::uint64_t derive_trial_seed(std::uint64_t master_seed,
                                std::uint64_t trial) {
  // Hoisted to support::derive_trial_seed (S27) so the sched streams use
  // the same derivation; this alias stays for the engine's callers.
  return support::derive_trial_seed(master_seed, trial);
}

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kPerAgent: return "per-agent";
    case EngineKind::kCountNullSkip: return "count+null-skip";
  }
  return "?";
}

unsigned fleet_workers(std::uint64_t trials, unsigned threads) {
  const unsigned requested =
      threads != 0 ? threads
                   : std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<std::uint64_t>(requested, std::max<std::uint64_t>(trials, 1)));
}

namespace {

Quantiles quantiles_of(std::vector<double> values) {
  Quantiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const auto at = [&](double fraction) {
    const auto index = static_cast<std::size_t>(
        fraction * static_cast<double>(values.size() - 1) + 0.5);
    return values[std::min(index, values.size() - 1)];
  };
  q.p50 = at(0.5);
  q.p90 = at(0.9);
  q.max = values.back();
  return q;
}

}  // namespace

EnsembleStats aggregate(const std::vector<TrialResult>& results) {
  EnsembleStats stats;
  stats.trials = results.size();
  std::vector<double> interactions;
  std::vector<double> parallel_time;
  interactions.reserve(results.size());
  parallel_time.reserve(results.size());
  for (const TrialResult& trial : results) {
    if (trial.sim.stabilised) {
      ++stats.stabilised;
      if (trial.sim.output) ++stats.accepted;
    }
    interactions.push_back(static_cast<double>(trial.sim.interactions));
    parallel_time.push_back(trial.sim.parallel_time);
    stats.totals.merge(trial.metrics);
  }
  stats.interactions = quantiles_of(std::move(interactions));
  stats.parallel_time = quantiles_of(std::move(parallel_time));
  return stats;
}

EnsembleStats run_ensemble(const pp::Protocol& protocol,
                           const pp::Config& initial,
                           const EnsembleOptions& options) {
  obs::ObsSpan span("run_ensemble", "engine");
  span.set_value(static_cast<double>(options.trials));
  // The heartbeat's ETA denominator: how many trials this fleet will run.
  static obs::Gauge& trials_total =
      obs::Registry::global().gauge("engine.trials_total");
  trials_total.set(static_cast<double>(options.trials));
  const auto start_time = std::chrono::steady_clock::now();
  // The shared trial body (S27): engine/scenario selection and per-worker
  // simulator reuse live in TrialExecutor, the same body smc::certify and
  // the serve workers run.
  const unsigned workers = fleet_workers(options.trials, options.threads);
  TrialExecutor executor(protocol, options.engine, options.scenario, workers);
  std::vector<TrialResult> results(options.trials);
  run_fleet<TrialResult>(
      workers, options.master_seed, "engine",
      [&] { return options.trials; },
      [&](unsigned worker, std::uint64_t, std::uint64_t seed,
          const std::atomic<bool>& stop) {
        return executor.run(worker, initial, seed, options.sim, &stop);
      },
      [&](std::uint64_t trial, TrialResult&& result) {
        results[trial] = std::move(result);
        return false;
      });
  EnsembleStats stats = aggregate(results);
  // Report what the fleet actually ran with: the pool never spawns more
  // workers than there are trials.
  stats.threads_used = workers;
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return stats;
}

std::string describe(const EnsembleStats& stats) {
  // Guard the effective rate against a wall time that rounds to (or near)
  // zero: meetings/wall can overflow to inf on a fast fleet; report 0
  // instead of printing "inf".
  double effective = stats.wall_seconds > 0.0
                         ? static_cast<double>(stats.totals.meetings) /
                               stats.wall_seconds
                         : 0.0;
  if (!std::isfinite(effective)) effective = 0.0;
  char buffer[768];
  std::snprintf(
      buffer, sizeof buffer,
      "trials ............ %llu (%u threads)\n"
      "stabilised ........ %.3f  (accept fraction %.3f)\n"
      "interactions ...... p50 %.3g  p90 %.3g  max %.3g\n"
      "parallel time ..... p50 %.3g  p90 %.3g  max %.3g\n"
      "meetings/sec ...... %.3g effective (%llu firings, %llu skip batches)\n"
      "incremental ....... %llu weight updates, %llu populate / %llu "
      "depopulate events, %llu log evaluations\n"
      "wall .............. %.3fs\n",
      static_cast<unsigned long long>(stats.trials), stats.threads_used,
      stats.stabilised_fraction(), stats.accept_fraction(),
      stats.interactions.p50, stats.interactions.p90, stats.interactions.max,
      stats.parallel_time.p50, stats.parallel_time.p90,
      stats.parallel_time.max, effective,
      static_cast<unsigned long long>(stats.totals.firings),
      static_cast<unsigned long long>(stats.totals.null_skip_batches),
      static_cast<unsigned long long>(stats.totals.weight_updates),
      static_cast<unsigned long long>(stats.totals.populate_events),
      static_cast<unsigned long long>(stats.totals.depopulate_events),
      static_cast<unsigned long long>(stats.totals.log_evals),
      stats.wall_seconds);
  return buffer;
}

}  // namespace ppde::engine
