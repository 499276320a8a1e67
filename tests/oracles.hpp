// Reference implementations the production cores are differentially
// tested against. None of them runs in the library: each is the plain,
// slow form of a production path, written against Protocol::transitions()
// alone — no compiled pair index, cells, activity matrix or interner — so
// a bit-identity test against it checks the optimisations and the lowering
// at once.
//
//   TransitionMap     the transition relation as an ordered map: per pair,
//                     the candidates the compiled cells must reproduce.
//   MapStepper        the per-agent scheduler step (pp::Simulator), every
//                     scenario included, RNG draw for RNG draw.
//   LinearScanOracle  the seed count engine with geometric null-skip
//                     (engine::CountSimulator): full weight rescan, linear
//                     prefix scans, responder walk over all partners.
//   oracle_fold       the certification fold (smc::StreamingMerger) as
//                     a plain in-order loop over Sprt, QuantileTails and
//                     the evidence counters.
//   oracle_certify    smc::certify with every trial run on the two
//                     oracles above, folded by oracle_fold.
//   tarjan_scc        Tarjan with index, lowlink and on-stack arrays,
//                     over one successor vector per node, the store the
//                     kernel kept before its CSR graph
//                     (support::tarjan_scc, Pearce's one-array pass).
//   oracle_verify     the sequential explorer the verification kernel
//                     replaced (pp::Verifier).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "engine/ensemble.hpp"
#include "engine/metrics.hpp"
#include "pp/config.hpp"
#include "pp/protocol.hpp"
#include "pp/simulator.hpp"
#include "pp/verifier.hpp"
#include "sched/fault.hpp"
#include "sched/scenario.hpp"
#include "sched/scheduler.hpp"
#include "smc/certify.hpp"
#include "smc/sprt.hpp"
#include "smc/stats.hpp"
#include "support/rng.hpp"

namespace ppde::oracle {

/// Per ordered state pair (q, r): the indices of its non-silent
/// transitions in declaration order — the candidates a meeting of (q, r)
/// picks from. Active adjacency follows from the keys.
class TransitionMap {
 public:
  explicit TransitionMap(const pp::Protocol& protocol)
      : partners_(protocol.num_states()),
        initiators_(protocol.num_states()) {
    const std::vector<pp::Transition>& transitions = protocol.transitions();
    for (std::uint32_t i = 0; i < transitions.size(); ++i)
      if (!transitions[i].is_silent())
        candidates_[{transitions[i].q, transitions[i].r}].push_back(i);
    // Keys iterate in (q, r) order, so both adjacency lists come out
    // ascending.
    for (const auto& entry : candidates_) {
      partners_[entry.first.first].push_back(entry.first.second);
      initiators_[entry.first.second].push_back(entry.first.first);
    }
  }

  /// Candidates of (q, r); empty when no transition can change it.
  const std::vector<std::uint32_t>& candidates(pp::State q,
                                               pp::State r) const {
    static const std::vector<std::uint32_t> kNone;
    const auto it = candidates_.find({q, r});
    return it == candidates_.end() ? kNone : it->second;
  }
  /// States r with (q, r) active, ascending.
  const std::vector<pp::State>& partners_of(pp::State q) const {
    return partners_[q];
  }
  /// States q with (q, r) active, ascending.
  const std::vector<pp::State>& initiators_meeting(pp::State r) const {
    return initiators_[r];
  }
  bool self_active(pp::State q) const {
    return candidates_.count({q, q}) != 0;
  }

 private:
  std::map<std::pair<pp::State, pp::State>, std::vector<std::uint32_t>>
      candidates_;
  std::vector<std::vector<pp::State>> partners_;
  std::vector<std::vector<pp::State>> initiators_;
};

/// The candidate a meeting fires: no draw for a single candidate, one
/// uniform draw otherwise.
inline std::uint32_t pick_candidate(const std::vector<std::uint32_t>& list,
                                    support::Rng& rng) {
  return list.size() == 1 ? list[0] : list[rng.below(list.size())];
}

/// The consensus the window heuristic tracks: all accepting, none, or
/// mixed (nullopt). Vacuously true for an empty population.
inline std::optional<bool> consensus_of(std::uint64_t accepting,
                                        std::uint64_t population) {
  if (accepting == population) return true;
  if (accepting == 0) return false;
  return std::nullopt;
}

/// Per-agent reference stepper with pp::Simulator's scheduler law: the
/// uniform ordered pair of distinct agents, or the scenario's strategy and
/// fault plan on the same split RNG streams. Each state write goes
/// through the transition's fields and per-state accepting probes.
class MapStepper {
 public:
  MapStepper(const pp::Protocol& protocol, const pp::Config& initial,
             std::uint64_t seed, const sched::Scenario& scenario = {})
      : protocol_(protocol), map_(protocol), rng_(seed) {
    for (pp::State q = 0; q < initial.num_states(); ++q)
      for (std::uint32_t i = 0; i < initial[q]; ++i) agents_.push_back(q);
    for (const pp::State q : agents_)
      if (protocol.is_accepting(q)) ++accepting_;
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
        scenario.fault, support::derive_trial_seed(seed, sched::kFaultStream),
        agents_.size());
  }

  bool step() {
    if (fault_ && fault_->next_due() <= interactions_) run_due_faults();
    ++interactions_;
    ++metrics_.meetings;
    const std::uint64_t m = agents_.size();
    std::uint64_t i, j;
    if (scheduler_) {
      sched::PickContext ctx{rng_, m, &accepting_fn_};
      if (!scheduler_->pick(ctx, &i, &j)) return false;
      scheduler_->on_meeting(i, j);
    } else {
      i = rng_.below(m);
      j = rng_.below(m - 1);
      if (j >= i) ++j;
    }
    const auto& candidates = map_.candidates(agents_[i], agents_[j]);
    if (candidates.empty()) return false;
    ++metrics_.firings;
    const pp::Transition& t =
        protocol_.transitions()[pick_candidate(candidates, rng_)];
    set_agent(i, t.q2);
    set_agent(j, t.r2);
    return true;
  }

  pp::SimulationResult run_until_stable(const pp::SimulationOptions& options) {
    pp::SimulationResult result;
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
    result.parallel_time = static_cast<double>(interactions_) /
                           static_cast<double>(agents_.size());
    return result;
  }

  pp::Config config() const {
    pp::Config config(protocol_.num_states());
    for (const pp::State q : agents_) config.add(q);
    return config;
  }
  std::uint64_t accepting_agents() const { return accepting_; }
  std::uint64_t interactions() const { return interactions_; }
  std::optional<bool> consensus() const {
    return consensus_of(accepting_, agents_.size());
  }
  const engine::RunMetrics& metrics() const { return metrics_; }

 private:
  /// The fault plan's view of the agent array; every write keeps the
  /// accepting count current.
  class FaultOps final : public sched::FaultOps {
   public:
    explicit FaultOps(MapStepper& stepper) : stepper_(stepper) {}
    std::uint64_t population() const override {
      return stepper_.agents_.size();
    }
    std::uint32_t num_states() const override {
      return static_cast<std::uint32_t>(stepper_.protocol_.num_states());
    }
    void set_agent(std::uint64_t slot, std::uint32_t to) override {
      stepper_.set_agent(slot, to);
    }
    void add_agent(std::uint32_t q) override {
      stepper_.agents_.push_back(q);
      if (stepper_.protocol_.is_accepting(q)) ++stepper_.accepting_;
      resized = true;
    }
    void remove_agent(std::uint64_t slot) override {
      if (stepper_.protocol_.is_accepting(stepper_.agents_[slot]))
        --stepper_.accepting_;
      stepper_.agents_[slot] = stepper_.agents_.back();
      stepper_.agents_.pop_back();
      resized = true;
    }
    std::uint32_t random_input_state(support::Rng& rng) override {
      const auto& inputs = stepper_.protocol_.input_states();
      return inputs[rng.below(inputs.size())];
    }
    bool resized = false;

   private:
    MapStepper& stepper_;
  };

  void set_agent(std::uint64_t slot, pp::State to) {
    if (protocol_.is_accepting(agents_[slot])) --accepting_;
    if (protocol_.is_accepting(to)) ++accepting_;
    agents_[slot] = to;
  }

  void run_due_faults() {
    FaultOps ops(*this);
    while (fault_->next_due() <= interactions_)
      fault_->fire(interactions_, ops);
    if (ops.resized && scheduler_)
      scheduler_->on_population(agents_.size(), topo_rng_);
  }

  const pp::Protocol& protocol_;
  TransitionMap map_;
  std::vector<pp::State> agents_;
  std::uint64_t accepting_ = 0;
  std::uint64_t interactions_ = 0;
  engine::RunMetrics metrics_;
  support::Rng rng_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::unique_ptr<sched::FaultPlan> fault_;
  support::Rng topo_rng_{0};
  std::function<bool(std::uint64_t)> accepting_fn_;
};

/// The seed count engine's null-skip loop, verbatim in law: a full
/// active-weight rescan per firing, linear prefix scans for the initiator
/// slot, the responder walk over the initiator's complete partner list,
/// swap-remove list surgery. For the same seed, engine::CountSimulator
/// must visit the same configurations, fire the same transitions and
/// settle the same consensus times, RNG draw for RNG draw.
class LinearScanOracle {
 public:
  LinearScanOracle(const pp::Protocol& protocol, const pp::Config& initial,
                   std::uint64_t seed)
      : protocol_(protocol),
        map_(protocol),
        counts_(protocol.num_states()),
        rout_(protocol.num_states(), 0),
        position_(protocol.num_states(), kNone),
        rng_(seed) {
    for (pp::State q = 0; q < initial.num_states(); ++q)
      if (initial[q] != 0) counts_.add(q, initial[q]);
    for (pp::State q = 0; q < counts_.num_states(); ++q) {
      if (counts_[q] == 0) continue;
      if (protocol.is_accepting(q)) accepting_ += counts_[q];
      for (const pp::State p : map_.initiators_meeting(q))
        rout_[p] += counts_[q];
      position_[q] = static_cast<std::uint32_t>(populated_.size());
      populated_.push_back(q);
    }
  }

  const pp::Config& config() const { return counts_; }
  std::uint64_t interactions() const { return interactions_; }
  const engine::RunMetrics& metrics() const { return metrics_; }

  bool step() {
    const std::uint64_t active = active_weight();
    if (active == 0) {
      ++interactions_;
      ++metrics_.meetings;
      return false;
    }
    advance_nulls(sample_null_run(active));
    ++interactions_;
    ++metrics_.meetings;
    apply_active_meeting(active);
    return true;
  }

  pp::SimulationResult run_until_stable(const pp::SimulationOptions& options) {
    pp::SimulationResult result;
    std::uint64_t consensus_start = interactions_;
    std::optional<bool> held = consensus();
    const auto stabilise = [&] {
      result.stabilised = true;
      result.output = *held;
      result.consensus_since = consensus_start;
    };
    while (interactions_ < options.max_interactions) {
      const std::uint64_t active = active_weight();
      const std::uint64_t stable_at = consensus_start + options.stable_window;
      if (active == 0) {
        if (held.has_value() && stable_at <= options.max_interactions) {
          advance_nulls(stable_at - interactions_);
          stabilise();
        } else {
          advance_nulls(options.max_interactions - interactions_);
        }
        break;
      }
      const std::uint64_t skip = sample_null_run(active);
      if (held.has_value() && stable_at <= interactions_ + skip) {
        advance_nulls(stable_at - interactions_);
        stabilise();
        break;
      }
      if (interactions_ + skip >= options.max_interactions) {
        advance_nulls(options.max_interactions - interactions_);
        break;
      }
      advance_nulls(skip);
      ++interactions_;
      ++metrics_.meetings;
      apply_active_meeting(active);
      const std::optional<bool> now = consensus();
      if (now != held) {
        held = now;
        consensus_start = interactions_;
        ++metrics_.consensus_flips;
      }
      if (held.has_value() &&
          interactions_ - consensus_start >= options.stable_window) {
        stabilise();
        break;
      }
    }
    result.interactions = interactions_;
    result.parallel_time =
        counts_.total() != 0 ? static_cast<double>(interactions_) /
                                   static_cast<double>(counts_.total())
                             : 0.0;
    return result;
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::optional<bool> consensus() const {
    return consensus_of(accepting_, counts_.total());
  }

  std::uint64_t active_weight() {
    std::uint64_t total = 0;
    weights_.resize(populated_.size());
    for (std::size_t i = 0; i < populated_.size(); ++i) {
      const pp::State q = populated_[i];
      const std::uint64_t weight =
          counts_[q] * (rout_[q] - (map_.self_active(q) ? 1 : 0));
      weights_[i] = weight;
      total += weight;
    }
    return total;
  }

  std::uint64_t sample_null_run(std::uint64_t active) {
    const double m = static_cast<double>(counts_.total());
    const double p = static_cast<double>(active) / (m * (m - 1.0));
    if (p >= 1.0) return 0;
    const double u = (static_cast<double>(rng_() >> 11) + 1.0) * 0x1.0p-53;
    const double k = std::floor(std::log(u) / std::log1p(-p));
    if (!(k >= 0.0)) return 0;
    if (k >= 1.8e19) return std::numeric_limits<std::uint64_t>::max() / 2;
    return static_cast<std::uint64_t>(k);
  }

  void advance_nulls(std::uint64_t count) {
    if (count == 0) return;
    interactions_ += count;
    metrics_.meetings += count;
    metrics_.skipped_meetings += count;
    ++metrics_.null_skip_batches;
  }

  void apply_active_meeting(std::uint64_t active) {
    std::uint64_t target = rng_.below(active);
    std::size_t slot = 0;
    for (;; ++slot) {
      if (target < weights_[slot]) break;
      target -= weights_[slot];
    }
    const pp::State q = populated_[slot];
    const std::uint64_t cq = counts_[q];
    pp::State r = q;
    for (const pp::State partner : map_.partners_of(q)) {
      const std::uint64_t weight =
          cq * (counts_[partner] - (partner == q ? 1 : 0));
      if (target < weight) {
        r = partner;
        break;
      }
      target -= weight;
    }
    ++metrics_.firings;
    const pp::Transition& t =
        protocol_.transitions()[pick_candidate(map_.candidates(q, r), rng_)];
    if (t.q != t.q2) {
      change_count(t.q, -1);
      change_count(t.q2, +1);
    }
    if (t.r != t.r2) {
      change_count(t.r, -1);
      change_count(t.r2, +1);
    }
  }

  void change_count(pp::State state, std::int64_t delta) {
    if (delta > 0)
      counts_.add(state, static_cast<std::uint32_t>(delta));
    else
      counts_.remove(state, static_cast<std::uint32_t>(-delta));
    const auto shift = static_cast<std::uint64_t>(delta);
    if (protocol_.is_accepting(state)) accepting_ += shift;
    for (const pp::State p : map_.initiators_meeting(state)) rout_[p] += shift;
    if (counts_[state] == 0) {
      const std::uint32_t hole = position_[state];
      const pp::State moved = populated_.back();
      populated_[hole] = moved;
      position_[moved] = hole;
      populated_.pop_back();
      position_[state] = kNone;
    } else if (position_[state] == kNone) {
      position_[state] = static_cast<std::uint32_t>(populated_.size());
      populated_.push_back(state);
    }
  }

  const pp::Protocol& protocol_;
  TransitionMap map_;
  pp::Config counts_;
  std::vector<std::uint64_t> rout_;  ///< Σ C(r) over active partners r
  std::vector<std::uint32_t> position_;
  std::vector<pp::State> populated_;
  std::vector<std::uint64_t> weights_;
  std::uint64_t accepting_ = 0;
  std::uint64_t interactions_ = 0;
  engine::RunMetrics metrics_;
  support::Rng rng_;
};

/// The certificate of options.max_trials trials (at most) folded one by
/// one in trial order until the SPRT decides: outcome(trial, seed) with
/// seed = derive_trial_seed(options.seed, trial). The statement, evidence
/// and verdict fields are all filled here, independently, so a payload match
/// against smc::certify checks StreamingMerger's reorder buffer and
/// certify_trials' scheduler at once. The system-under-test fields and
/// the execution record stay zero.
inline smc::Certificate oracle_fold(
    const smc::CertifyOptions& options,
    const std::function<smc::TrialOutcome(std::uint64_t trial,
                                          std::uint64_t seed)>& outcome) {
  smc::Sprt sprt(options.sprt());
  smc::QuantileTails tails;
  smc::Certificate cert;
  for (std::uint64_t trial = 0;
       trial < options.max_trials && !sprt.decided(); ++trial) {
    const smc::TrialOutcome next =
        outcome(trial, engine::derive_trial_seed(options.seed, trial));
    sprt.update(next.success);
    if (next.stabilised) {
      ++cert.stabilised;
      if (next.success) tails.add(next.convergence_parallel_time);
    }
    cert.total_meetings += next.metrics.meetings;
    cert.total_firings += next.metrics.firings;
  }
  cert.verdict = sprt.decision() == smc::Sprt::Decision::kAcceptH1
                     ? smc::Verdict::kCertified
                 : sprt.decision() == smc::Sprt::Decision::kAcceptH0
                     ? smc::Verdict::kRefuted
                     : smc::Verdict::kInconclusive;
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
  cert.trials = sprt.trials();
  cert.successes = sprt.successes();
  cert.llr = sprt.llr();
  cert.interval = smc::clopper_pearson(cert.successes, cert.trials,
                                       options.ci_confidence);
  cert.time_p50 = tails.p50();
  cert.time_p90 = tails.p90();
  cert.time_p99 = tails.p99();
  return cert;
}

/// smc::certify's certificate with every trial run on a fresh oracle —
/// LinearScanOracle for the count engine under the default scenario,
/// MapStepper otherwise — mapped to outcomes exactly as certify maps its
/// trials, and folded by oracle_fold.
inline smc::Certificate oracle_certify(const pp::Protocol& protocol,
                                       const pp::Config& initial,
                                       bool expected_output,
                                       const smc::CertifyOptions& options) {
  const bool count = options.engine == engine::EngineKind::kCountNullSkip &&
                     options.scenario.is_default();
  smc::Certificate cert = oracle_fold(
      options, [&](std::uint64_t, std::uint64_t seed) {
        pp::SimulationResult sim;
        smc::TrialOutcome outcome;
        if (count) {
          LinearScanOracle oracle(protocol, initial, seed);
          sim = oracle.run_until_stable(options.sim);
          outcome.metrics = oracle.metrics();
        } else {
          MapStepper stepper(protocol, initial, seed, options.scenario);
          sim = stepper.run_until_stable(options.sim);
          outcome.metrics = stepper.metrics();
        }
        outcome.stabilised =
            sim.stabilised &&
            sim.consensus_since != pp::SimulationResult::kNeverStabilised;
        outcome.success = outcome.stabilised && sim.output == expected_output;
        if (outcome.stabilised)
          outcome.convergence_parallel_time =
              static_cast<double>(sim.consensus_since) /
              static_cast<double>(initial.total());
        return outcome;
      });
  cert.protocol_fingerprint = protocol.fingerprint();
  cert.population = initial.total();
  cert.expected_output = expected_output;
  return cert;
}

/// SCCs of a graph given as one successor vector per node, in the same
/// numbering as support::tarjan_scc: dense indices in reverse topological
/// order of the condensation.
struct SccResult {
  std::vector<std::uint32_t> scc_of;
  std::uint32_t scc_count = 0;
  /// Per SCC: no edge leaves it.
  std::vector<std::uint8_t> is_bottom;
};

/// Iterative Tarjan over `successors` (nodes 0..successors.size()-1).
inline SccResult tarjan_scc(
    const std::vector<std::vector<std::uint32_t>>& successors) {
  using u32 = std::uint32_t;
  const u32 n = static_cast<u32>(successors.size());
  constexpr u32 kUnvisited = 0xffffffffu;

  SccResult result;
  result.scc_of.assign(n, kUnvisited);
  std::vector<u32> index(n, kUnvisited);
  std::vector<u32> lowlink(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<u32> stack;

  struct Frame {
    u32 node;
    u32 child;
  };
  std::vector<Frame> call_stack;
  u32 next_index = 0;

  for (u32 root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const auto& succs = successors[frame.node];
      if (frame.child < succs.size()) {
        const u32 next = succs[frame.child++];
        if (index[next] == kUnvisited) {
          index[next] = lowlink[next] = next_index++;
          stack.push_back(next);
          on_stack[next] = 1;
          call_stack.push_back({next, 0});
        } else if (on_stack[next]) {
          lowlink[frame.node] = std::min(lowlink[frame.node], index[next]);
        }
      } else {
        const u32 node = frame.node;
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const u32 parent = call_stack.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[node]);
        }
        if (lowlink[node] == index[node]) {
          while (true) {
            const u32 member = stack.back();
            stack.pop_back();
            on_stack[member] = 0;
            result.scc_of[member] = result.scc_count;
            if (member == node) break;
          }
          ++result.scc_count;
        }
      }
    }
  }
  result.is_bottom.assign(result.scc_count, 1);
  for (u32 v = 0; v < n; ++v)
    for (const u32 succ : successors[v])
      if (result.scc_of[succ] != result.scc_of[v])
        result.is_bottom[result.scc_of[v]] = 0;
  return result;
}

struct VerifyResult {
  pp::VerificationResult::Verdict verdict =
      pp::VerificationResult::Verdict::kResourceLimit;
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t num_sccs = 0;
  std::uint64_t num_bottom_sccs = 0;
  std::optional<pp::Config> counterexample;
};

/// The classic sequential explorer the verification kernel replaced:
/// map-based interning in discovery order, successors expanded in (q, r,
/// candidate) order and interned immediately, Tarjan plus an aggregate
/// bottom-SCC sweep. pp::Verifier must reproduce it byte for byte — same
/// node ids, SCC counts and counterexample — at every thread count.
inline VerifyResult oracle_verify(const pp::Protocol& protocol,
                                  const pp::Config& initial,
                                  bool witness_mode,
                                  std::uint64_t max_configs) {
  using u32 = std::uint32_t;
  // A configuration as its populated states, ascending, with counts.
  using Node = std::vector<std::pair<pp::State, u32>>;
  const TransitionMap map(protocol);
  std::map<Node, u32> ids;
  std::vector<Node> nodes;
  std::vector<std::vector<u32>> successors;
  const auto intern = [&](const std::vector<u32>& counts) {
    Node node;
    for (pp::State q = 0; q < counts.size(); ++q)
      if (counts[q] != 0) node.emplace_back(q, counts[q]);
    const auto [it, inserted] =
        ids.try_emplace(node, static_cast<u32>(nodes.size()));
    if (inserted) {
      nodes.push_back(std::move(node));
      successors.emplace_back();
    }
    return it->second;
  };

  VerifyResult result;
  intern(initial.counts());
  std::vector<u32> counts(protocol.num_states());
  for (u32 id = 0; id < nodes.size(); ++id) {
    if (nodes.size() > max_configs) {
      result.nodes = nodes.size();
      return result;  // partial: limit
    }
    const Node node = nodes[id];  // interning below may reallocate nodes
    std::fill(counts.begin(), counts.end(), 0);
    for (const auto& [q, c] : node) counts[q] = c;
    std::vector<u32> succs;
    for (const auto& [q, cq] : node) {
      for (const auto& [r, cr] : node) {
        if (q == r && cq < 2) continue;
        for (const u32 index : map.candidates(q, r)) {
          const pp::Transition& t = protocol.transitions()[index];
          std::vector<u32> next = counts;
          --next[t.q];
          --next[t.r];
          ++next[t.q2];
          ++next[t.r2];
          succs.push_back(intern(next));
        }
      }
    }
    std::sort(succs.begin(), succs.end());
    succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
    result.edges += succs.size();
    successors[id] = std::move(succs);
  }
  result.nodes = nodes.size();

  const SccResult scc = tarjan_scc(successors);
  const std::vector<std::uint8_t>& is_bottom = scc.is_bottom;
  result.num_sccs = scc.scc_count;
  bool aggregate_true = false, aggregate_false = false;
  std::optional<u32> offending;
  std::vector<std::uint8_t> seen(scc.scc_count, 0);
  for (u32 id = 0; id < nodes.size(); ++id) {
    if (!is_bottom[scc.scc_of[id]]) continue;
    if (!seen[scc.scc_of[id]]) {
      seen[scc.scc_of[id]] = 1;
      ++result.num_bottom_sccs;
    }
    bool any_accepting = false, any_rejecting = false;
    for (const auto& [q, c] : nodes[id])
      (protocol.is_accepting(q) ? any_accepting : any_rejecting) = true;
    const bool mixed = !witness_mode && any_accepting && any_rejecting;
    if (mixed || any_accepting) aggregate_true = true;
    if (mixed || !any_accepting) aggregate_false = true;
    if (aggregate_true && aggregate_false && !offending) offending = id;
  }
  using Verdict = pp::VerificationResult::Verdict;
  if (aggregate_true && aggregate_false) {
    result.verdict = Verdict::kDoesNotStabilise;
    pp::Config counterexample(protocol.num_states());
    for (const auto& [q, c] : nodes[*offending]) counterexample.add(q, c);
    result.counterexample = std::move(counterexample);
  } else if (aggregate_true) {
    result.verdict = Verdict::kStabilisesTrue;
  } else {
    result.verdict = Verdict::kStabilisesFalse;
  }
  return result;
}

}  // namespace ppde::oracle
