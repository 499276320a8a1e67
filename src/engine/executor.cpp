#include "engine/executor.hpp"

#include "obs/registry.hpp"

namespace ppde::engine {

namespace {

/// Fleet-level observability (S24): live counters for the progress
/// heartbeat and the serve roll-up. One relaxed atomic add per *trial* (a
/// whole simulation run) — never per meeting.
struct FleetMetrics {
  obs::Counter& trials_done =
      obs::Registry::global().counter("engine.trials_done");
  obs::Counter& meetings = obs::Registry::global().counter("engine.meetings");
  obs::Counter& firings = obs::Registry::global().counter("engine.firings");
  obs::Histogram& trial_micros =
      obs::Registry::global().histogram("engine.trial_micros");

  static FleetMetrics& get() {
    static FleetMetrics instance;
    return instance;
  }

  void publish(const RunMetrics& metrics) {
    trials_done.add(1);
    meetings.add(metrics.meetings);
    firings.add(metrics.firings);
    trial_micros.record(
        static_cast<std::uint64_t>(metrics.wall_seconds * 1e6));
  }
};

}  // namespace

TrialExecutor::TrialExecutor(const pp::Protocol& protocol, EngineKind kind,
                             const sched::Scenario& scenario, unsigned workers)
    : protocol_(protocol),
      scenario_(scenario),
      per_agent_(kind == EngineKind::kPerAgent || !scenario.is_default()),
      sims_(workers) {}

TrialResult TrialExecutor::run(unsigned worker, const pp::Config& initial,
                               std::uint64_t seed,
                               const pp::SimulationOptions& options,
                               const std::atomic<bool>* stop) {
  TrialResult trial;
  trial.seed = seed;
  if (per_agent_) {
    pp::Simulator simulator(protocol_, initial, scenario_, seed);
    trial.sim = simulator.run_until_stable(options, stop);
    trial.metrics = simulator.metrics();
  } else {
    // One reusable simulator per worker: reset() rewinds counts, weights
    // and RNG without reallocating; a reset simulator behaves identically
    // to a fresh one, so results stay pure functions of (initial, seed).
    std::unique_ptr<CountSimulator>& sim = sims_[worker];
    if (!sim)
      sim = std::make_unique<CountSimulator>(protocol_, initial, seed);
    else
      sim->reset(initial, seed);
    trial.sim = sim->run_until_stable(options, stop);
    trial.metrics = sim->metrics();
  }
  FleetMetrics::get().publish(trial.metrics);
  return trial;
}

}  // namespace ppde::engine
