#include "pp/simulator.hpp"

#include <chrono>
#include <stdexcept>

#include "isa/exec.hpp"
#include "obs/trace.hpp"

namespace ppde::pp {

Simulator::Simulator(const Protocol& protocol, const Config& initial,
                     std::uint64_t seed)
    : protocol_(protocol), rng_(seed) {
  if (!protocol.finalized())
    throw std::logic_error("Simulator: protocol not finalized");
  if (initial.total() < 2)
    throw std::invalid_argument("Simulator: need at least two agents");
  compiled_ = &protocol.compiled();
  agents_.reserve(initial.total());
  for (State q = 0; q < initial.num_states(); ++q)
    for (std::uint32_t i = 0; i < initial[q]; ++i) agents_.push_back(q);
  for (State q : agents_)
    if (protocol.is_accepting(q)) ++accepting_agents_;
}

Simulator::Simulator(const Protocol& protocol, const Config& initial,
                     const sched::Scenario& scenario, std::uint64_t seed)
    : Simulator(protocol, initial, seed) {
  if (scenario.is_default()) return;
  topo_rng_.reseed(
      support::derive_trial_seed(seed, sched::kTopologyStream));
  scheduler_ = sched::make_scheduler(scenario.scheduler);
  if (scheduler_) {
    accepting_fn_ = [this](std::uint64_t slot) {
      return protocol_.is_accepting(agents_[slot]);
    };
    scheduler_->on_population(agents_.size(), topo_rng_);
  }
  fault_ = sched::make_fault_plan(
      scenario.fault,
      support::derive_trial_seed(seed, sched::kFaultStream), agents_.size());
}

/// FaultOps bound to a Simulator's agent array; keeps accepting_agents_
/// coherent through every mutation and records whether the population
/// count changed (which forces a scheduler topology rebuild).
class AgentFaultOps final : public sched::FaultOps {
 public:
  explicit AgentFaultOps(Simulator& sim) : sim_(sim) {}

  std::uint64_t population() const override { return sim_.agents_.size(); }
  std::uint32_t num_states() const override {
    return static_cast<std::uint32_t>(sim_.protocol_.num_states());
  }

  void set_agent(std::uint64_t slot, std::uint32_t to) override {
    const State from = sim_.agents_[slot];
    if (sim_.protocol_.is_accepting(from)) --sim_.accepting_agents_;
    if (sim_.protocol_.is_accepting(to)) ++sim_.accepting_agents_;
    sim_.agents_[slot] = to;
  }

  void add_agent(std::uint32_t q) override {
    sim_.agents_.push_back(q);
    if (sim_.protocol_.is_accepting(q)) ++sim_.accepting_agents_;
    population_changed_ = true;
  }

  void remove_agent(std::uint64_t slot) override {
    if (sim_.protocol_.is_accepting(sim_.agents_[slot]))
      --sim_.accepting_agents_;
    sim_.agents_[slot] = sim_.agents_.back();
    sim_.agents_.pop_back();
    population_changed_ = true;
  }

  std::uint32_t random_input_state(support::Rng& rng) override {
    const auto& inputs = sim_.protocol_.input_states();
    return inputs[rng.below(inputs.size())];
  }

  bool population_changed() const { return population_changed_; }

 private:
  Simulator& sim_;
  bool population_changed_ = false;
};

void Simulator::run_due_faults() {
  AgentFaultOps ops(*this);
  while (fault_->next_due() <= interactions_) fault_->fire(interactions_, ops);
  if (ops.population_changed() && scheduler_)
    scheduler_->on_population(agents_.size(), topo_rng_);
}

bool Simulator::step() {
  if (fault_ && fault_->next_due() <= interactions_) run_due_faults();
  ++interactions_;
  ++metrics_.meetings;
  const std::uint64_t m = agents_.size();
  std::uint64_t i, j;
  if (scheduler_) {
    sched::PickContext ctx{rng_, m, &accepting_fn_};
    if (!scheduler_->pick(ctx, &i, &j)) return false;  // null meeting
    scheduler_->on_meeting(i, j);
  } else {
    i = rng_.below(m);
    j = rng_.below(m - 1);
    if (j >= i) ++j;  // ordered pair of *distinct* agents, uniform
  }

  const State q = agents_[i];
  const State r = agents_[j];
  // One pair-table probe, then the picked cell's opcode writes only the
  // slots that change, with the fused accepting delta replacing four
  // is_accepting probes. The candidate pick consumes the RNG exactly like
  // a walk over Protocol::transitions_for (no draw for a single
  // candidate).
  const std::uint32_t entry = compiled_->entry_of(q, r);
  if (entry >= isa::CompiledProtocol::kSilentOnly) return false;
  ++metrics_.firings;
  const auto cells = compiled_->cells(entry);
  const isa::Cell& cell =
      cells.size() == 1 ? cells[0] : cells[rng_.below(cells.size())];
  isa::execute_cell(
      cell,
      isa::make_policy([&](std::uint32_t q2) { agents_[i] = q2; },
                       [&](std::uint32_t r2) { agents_[j] = r2; },
                       [&](std::uint32_t q2, std::uint32_t r2) {
                         agents_[i] = q2;
                         agents_[j] = r2;
                       },
                       [&] {
                         agents_[i] = r;
                         agents_[j] = q;
                       },
                       [&](std::int32_t delta) {
                         accepting_agents_ += static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(delta));
                       }));
  return true;
}

std::optional<bool> Simulator::consensus() const {
  if (accepting_agents_ == agents_.size()) return true;
  if (accepting_agents_ == 0) return false;
  return std::nullopt;
}

SimulationResult Simulator::run_until_stable(const SimulationOptions& options) {
  // One span per run (S24); the meeting loop itself carries zero
  // instrumentation — the hot path stays untouched.
  obs::ObsSpan span("run_until_stable", "sim");
  const auto start_time = std::chrono::steady_clock::now();
  SimulationResult result;
  // The window starts at the current interaction count, so calling
  // run_until_stable after manual step()s does not count the warm-up
  // interactions towards the stability window.
  std::uint64_t consensus_start = interactions_;
  std::optional<bool> held = consensus();

  while (interactions_ < options.max_interactions) {
    step();
    const std::optional<bool> now = consensus();
    if (now != held) {
      held = now;
      consensus_start = interactions_;
      ++metrics_.consensus_flips;
    }
    if (held.has_value() &&
        interactions_ - consensus_start >= options.stable_window) {
      result.stabilised = true;
      result.output = *held;
      result.consensus_since = consensus_start;
      break;
    }
  }
  result.interactions = interactions_;
  result.parallel_time =
      static_cast<double>(interactions_) / static_cast<double>(population());
  metrics_.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return result;
}

std::optional<State> Simulator::remove_random_agent(
    const std::function<bool(State)>& eligible) {
  if (agents_.size() <= 2) return std::nullopt;
  std::vector<std::uint64_t> candidates;
  for (std::uint64_t i = 0; i < agents_.size(); ++i)
    if (!eligible || eligible(agents_[i])) candidates.push_back(i);
  if (candidates.empty()) return std::nullopt;
  const std::uint64_t index = candidates[rng_.below(candidates.size())];
  const State removed = agents_[index];
  if (protocol_.is_accepting(removed)) --accepting_agents_;
  agents_[index] = agents_.back();
  agents_.pop_back();
  if (scheduler_) scheduler_->on_population(agents_.size(), topo_rng_);
  return removed;
}

Config Simulator::config() const {
  Config config(protocol_.num_states());
  for (State q : agents_) config.add(q);
  return config;
}

}  // namespace ppde::pp
