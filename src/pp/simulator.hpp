// Random-scheduler simulation of population protocols.
//
// The scheduler picks an ordered pair of distinct agents uniformly at random
// each step and applies an enabled transition for their states (chosen
// uniformly if several apply), or does nothing — exactly the stochastic
// scheduler of the paper's introduction, which produces a fair run with
// probability 1.
//
// Stabilisation cannot be *observed* with certainty from a finite prefix, so
// run_until_stable uses the standard heuristic: stop once the population has
// held a consensus opinion for a configurable window of interactions. The
// exact verifier (pp/verifier.hpp) provides ground truth for small systems.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "engine/metrics.hpp"  // dependency-free counters shared with S21
#include "isa/compiled.hpp"
#include "pp/config.hpp"
#include "pp/protocol.hpp"
#include "sched/fault.hpp"
#include "sched/scenario.hpp"
#include "sched/scheduler.hpp"
#include "support/rng.hpp"

namespace ppde::pp {

/// run_until_stable's cancel flag is polled when the run's firing (count
/// engine) or meeting (per-agent engine) counter has these bits clear:
/// one relaxed load every 2^16 steps.
constexpr std::uint64_t kStopPollMask = (std::uint64_t{1} << 16) - 1;

struct SimulationOptions {
  std::uint64_t max_interactions = 100'000'000;
  /// Consensus must persist this many interactions to be declared stable.
  std::uint64_t stable_window = 1'000'000;
  std::uint64_t seed = 1;
};

struct SimulationResult {
  /// Sentinel for consensus_since: the run never stabilised. (0 cannot
  /// serve as the sentinel — a run that is in consensus from its first
  /// interaction legitimately reports consensus_since == 0.)
  static constexpr std::uint64_t kNeverStabilised = ~std::uint64_t{0};

  bool stabilised = false;
  bool output = false;  ///< Valid only if stabilised.
  std::uint64_t interactions = 0;
  /// Interaction index after which the final consensus held, measured from
  /// the start of the run (0 = consensus held from the very beginning);
  /// kNeverStabilised iff !stabilised.
  std::uint64_t consensus_since = kNeverStabilised;
  /// interactions / population size — "parallel time" in the literature.
  double parallel_time = 0.0;
};

class Simulator {
 public:
  /// `protocol` must be finalized and outlive the simulator; `initial` must
  /// contain at least two agents. Meetings step through the compiled
  /// pair index and cells (S26).
  Simulator(const Protocol& protocol, const Config& initial,
            std::uint64_t seed = 1);

  /// Scenario-aware overload (S27): run under the given scheduler strategy
  /// and fault plan. A default scenario behaves exactly like the plain
  /// constructor — same RNG stream, same trajectory, bit for bit. The
  /// non-uniform strategies draw meetings through the strategy object; the
  /// topology and fault streams are split off `seed` with the fixed stream
  /// tags in sched/scenario.hpp, so faults never perturb the meeting draws.
  Simulator(const Protocol& protocol, const Config& initial,
            const sched::Scenario& scenario, std::uint64_t seed = 1);

  /// Perform one scheduler step. Returns true if a transition fired.
  bool step();

  /// Run until consensus holds for options.stable_window interactions or
  /// options.max_interactions elapse. A non-null `stop` is polled with a
  /// relaxed load every 2^16 meetings; once it reads true the run ends
  /// unstabilised where it is.
  SimulationResult run_until_stable(const SimulationOptions& options,
                                    const std::atomic<bool>* stop = nullptr);

  /// Number of agents currently in accepting states.
  std::uint64_t accepting_agents() const { return accepting_agents_; }
  std::uint64_t population() const { return agents_.size(); }
  std::uint64_t interactions() const { return interactions_; }

  /// True iff all agents agree on an output right now.
  std::optional<bool> consensus() const;

  /// Snapshot of the current configuration.
  Config config() const;

  /// Remove one uniformly random agent among those whose state satisfies
  /// `eligible` (default: any agent). Returns the removed agent's state, or
  /// nullopt if no agent qualifies or only two agents remain. Used by the
  /// agent-removal experiments (the paper's closing open question: what
  /// guarantees survive the *disappearance* of agents mid-run?).
  std::optional<State> remove_random_agent(
      const std::function<bool(State)>& eligible = nullptr);

  /// Per-run counters (meetings, firings, consensus flips, wall time spent
  /// in run_until_stable) — same record the count-based engine fills.
  const engine::RunMetrics& metrics() const { return metrics_; }

  /// What the trial's fault plan actually did (nullptr when the scenario
  /// has no faults). Diagnostics only — never folded into certificates.
  const sched::FaultStats* fault_stats() const {
    return fault_ ? &fault_->stats() : nullptr;
  }

 private:
  friend class AgentFaultOps;

  /// Fire every fault event due at the current meeting index, then rebuild
  /// scheduler topology if the population changed.
  void run_due_faults();

  const Protocol& protocol_;
  const isa::CompiledProtocol* compiled_ = nullptr;  ///< protocol's tables
  std::vector<State> agents_;
  std::uint64_t accepting_agents_ = 0;
  std::uint64_t interactions_ = 0;
  engine::RunMetrics metrics_;
  support::Rng rng_;
  // S27 scenario machinery; all null/unused for the default scenario (the
  // legacy uniform path does not even null-check the scheduler).
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::unique_ptr<sched::FaultPlan> fault_;
  support::Rng topo_rng_{0};
  std::function<bool(std::uint64_t)> accepting_fn_;
};

}  // namespace ppde::pp
