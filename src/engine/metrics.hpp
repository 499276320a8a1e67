// Per-run simulation counters (engine subsystem, DESIGN.md S21).
//
// Both simulators — the per-agent pp::Simulator and the count-based
// engine::CountSimulator — fill one RunMetrics per run, so experiment
// harnesses can report *effective* throughput (meetings advanced per
// wall-second, counting the meetings a null-skip batch jumped over) next
// to raw firing counts. This header is dependency-free on purpose: it is
// included from pp/simulator.hpp even though the engine layer otherwise
// sits above pp.
#pragma once

#include <cstdint>
#include <string>

namespace ppde::engine {

struct RunMetrics {
  /// Scheduler meetings advanced, including every meeting jumped over by a
  /// null-skip batch. Always equals the simulator's interaction count.
  std::uint64_t meetings = 0;
  /// Meetings for which a transition was applied, matching
  /// pp::Simulator::step()'s return value. Every such transition changes
  /// a state: CompiledProtocol::compile drops silent candidates, so
  /// neither simulator ever draws one.
  std::uint64_t firings = 0;
  /// Closed-form geometric null-skip batches taken (CountSimulator only).
  std::uint64_t null_skip_batches = 0;
  /// Meetings advanced inside those batches without an RNG draw each.
  std::uint64_t skipped_meetings = 0;
  /// Times the population's consensus value changed during run_until_stable
  /// (entering, leaving, or flipping a consensus each count once).
  std::uint64_t consensus_flips = 0;
  /// Incremental per-slot active-weight refreshes (CountSimulator only;
  /// excludes initial-configuration loading).
  std::uint64_t weight_updates = 0;
  /// States entering / leaving the populated list (CountSimulator only;
  /// excludes initial-configuration loading). Each event rebuilds a slot's
  /// bookkeeping, so at small populations, where nearly every firing moves
  /// an agent into an empty state, these drive the cost per firing.
  std::uint64_t populate_events = 0;
  std::uint64_t depopulate_events = 0;
  /// log1p(−p) evaluations for the geometric null-run law (CountSimulator
  /// only): the misses of its (W, m) memo, so a firing that leaves the
  /// active weight and the population unchanged costs none.
  std::uint64_t log_evals = 0;
  /// Wall-clock seconds spent inside run_until_stable.
  double wall_seconds = 0.0;

  /// Accumulate `other` into this record (wall times add up).
  void merge(const RunMetrics& other);

  /// Meetings per wall-second; 0 if no time was recorded.
  double effective_meetings_per_second() const;

  std::string to_string() const;
};

}  // namespace ppde::engine
