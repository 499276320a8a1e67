// Multi-threaded trial fleets over independent simulation runs (S21).
//
// Every stochastic experiment in the literature this repository reproduces
// reports *expected* quantities over ensembles of fair random runs. This
// runner executes K independent trials on a fixed-size thread pool and
// aggregates an EnsembleStats record whose every field except the wall
// times is a deterministic function of (protocol, initial, options): trial
// i always runs with seed derive_trial_seed(master_seed, i) regardless of
// which worker picks it up, and aggregation happens in trial order after
// the pool drains. Same master seed + any thread count ⇒ identical stats.
//
// Seed derivation: trial i's seed is the SplitMix64 output function
// applied to master_seed + (i+1)·0x9e3779b97f4a7c15 — i.e. the (i+1)-th
// element of the SplitMix64 stream anchored at the master seed, the same
// generator support::Rng already uses for state expansion. Distinct trials
// get decorrelated 64-bit seeds; a whole ensemble is reproduced from one
// number.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/count_sim.hpp"
#include "engine/metrics.hpp"
#include "pp/config.hpp"
#include "pp/protocol.hpp"
#include "pp/simulator.hpp"

namespace ppde::engine {

/// The (trial+1)-th element of the SplitMix64 stream anchored at
/// `master_seed`; independent of thread scheduling by construction.
std::uint64_t derive_trial_seed(std::uint64_t master_seed,
                                std::uint64_t trial);

/// Which simulator executes each trial.
enum class EngineKind {
  kPerAgent,        ///< pp::Simulator — one array slot per agent
  kCountNullSkip,   ///< CountSimulator with geometric null-skip (default)
};

const char* to_string(EngineKind kind);

/// One trial's result: the one per-trial record, from TrialExecutor::run
/// through run_trial_range and the serve wire to the daemon's fold
/// (smc::outcome_of) and aggregation.
struct TrialResult {
  pp::SimulationResult sim;
  RunMetrics metrics;
  std::uint64_t seed = 0;
};

struct Quantiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double max = 0.0;
};

struct EnsembleStats {
  std::uint64_t trials = 0;
  std::uint64_t stabilised = 0;
  std::uint64_t accepted = 0;  ///< among stabilised trials
  /// Over all trials (budget-capped runs report the budget).
  Quantiles interactions;
  Quantiles parallel_time;
  /// Summed per-trial counters. totals.wall_seconds is summed *CPU* time of
  /// the trials and, like wall_seconds below, is not deterministic.
  RunMetrics totals;
  double wall_seconds = 0.0;  ///< end-to-end wall time of the whole fleet
  unsigned threads_used = 0;

  double stabilised_fraction() const {
    return trials ? static_cast<double>(stabilised) / trials : 0.0;
  }
  double accept_fraction() const {
    return stabilised ? static_cast<double>(accepted) / stabilised : 0.0;
  }
};

struct EnsembleOptions {
  std::uint64_t trials = 16;
  /// Worker threads; 0 means std::thread::hardware_concurrency(). The pool
  /// never exceeds the trial count.
  unsigned threads = 0;
  std::uint64_t master_seed = 1;
  EngineKind engine = EngineKind::kCountNullSkip;
  /// Stress scenario (S27). The default (uniform scheduler, no faults)
  /// keeps the count engine's fast path and its exact pre-S27 RNG
  /// streams; any other scenario falls back to the per-agent simulator
  /// regardless of `engine` (graph topologies, biased weighting and fault
  /// plans all need agent identity).
  sched::Scenario scenario;
  /// Per-trial stopping rule; sim.seed is ignored (per-trial seeds are
  /// derived from master_seed).
  pp::SimulationOptions sim;
};

/// Workers a fleet of `trials` trials actually uses: `threads` (0 ⇒
/// hardware concurrency) capped at the trial count, at least 1.
unsigned fleet_workers(std::uint64_t trials, unsigned threads);

/// Run `body(worker, trial, derive_trial_seed(master_seed, trial))` for
/// every trial in [first_trial, first_trial + trials) on a fixed pool of
/// `threads` workers (0 ⇒ hardware concurrency); results are indexed by
/// offset. Each trial gets its *global* derived seed, so any partition of
/// the trial index space into ranges reproduces exactly the per-trial
/// results of one range over the union — regardless of which process runs
/// which range (the serve daemon's shards, S25). `worker` is the
/// executing worker's index in [0, fleet_workers(trials, threads)), so
/// callers can keep one reusable simulator per worker
/// (CountSimulator::reset) instead of reconstructing per trial; each
/// result must remain a pure function of (trial, seed) — reuse scratch
/// through the worker index, never results. `body` must be safe to call
/// concurrently from different threads. If any body throws, the pool
/// drains and a std::runtime_error naming the lowest failing global trial
/// index (with the original what()) is thrown — never a silent partial
/// result.
std::vector<TrialResult> run_trial_range(
    std::uint64_t first_trial, std::uint64_t trials, unsigned threads,
    std::uint64_t master_seed,
    const std::function<TrialResult(unsigned worker, std::uint64_t trial,
                                    std::uint64_t seed)>& body);

/// Deterministic aggregation of per-trial results (in index order).
EnsembleStats aggregate(const std::vector<TrialResult>& results);

/// K independent run_until_stable trials from `initial`, aggregated.
EnsembleStats run_ensemble(const pp::Protocol& protocol,
                           const pp::Config& initial,
                           const EnsembleOptions& options);

/// Render the stats as a short multi-line report (used by the CLI).
std::string describe(const EnsembleStats& stats);

}  // namespace ppde::engine
