// One trial body for every execution layer (S27).
//
// Every layer that runs trials — engine::run_ensemble, smc::certify, the
// serve worker's batches and the analysis sweeps — runs this one body:
// pick per-agent or count simulator, reuse one count simulator per
// worker, run until stable. It is also the single place where
// the S27 scenario fallback rule lives: the count engine keeps its
// flat-weight fast path for the default scenario, while any non-default
// scenario (graph topology, biased weighting, faults — all of which need
// agent identity) falls back to the per-agent pp::Simulator.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "engine/count_sim.hpp"
#include "engine/ensemble.hpp"
#include "sched/scenario.hpp"

namespace ppde::engine {

class TrialExecutor {
 public:
  /// `protocol` must outlive the executor. `workers` is the fleet's worker
  /// count (fleet_workers) — one reusable CountSimulator slot each.
  TrialExecutor(const pp::Protocol& protocol, EngineKind kind,
                const sched::Scenario& scenario, unsigned workers);

  /// Run one trial from `initial` with `seed`. Safe to call concurrently
  /// from different workers; the result is a pure function of
  /// (initial, seed) — the worker index only selects per-worker scratch.
  /// A non-null `stop` cuts the run short once it reads true (the
  /// simulators poll it every 2^16 firings or meetings); such a result is
  /// for a caller that no longer needs it. Every run, cut short or not,
  /// adds its work to the `engine.*` registry counters.
  TrialResult run(unsigned worker, const pp::Config& initial,
                  std::uint64_t seed, const pp::SimulationOptions& options,
                  const std::atomic<bool>* stop = nullptr);

  /// True when trials execute on the per-agent simulator — either because
  /// the per-agent engine was requested or because a non-default scenario
  /// forced the fallback.
  bool per_agent() const { return per_agent_; }

 private:
  const pp::Protocol& protocol_;
  sched::Scenario scenario_;
  bool per_agent_;
  std::vector<std::unique_ptr<CountSimulator>> sims_;
};

}  // namespace ppde::engine
