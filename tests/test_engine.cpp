// Tests for the ensemble simulation engine (DESIGN.md S21):
// distributional equivalence of CountSimulator against the per-agent
// pp::Simulator, exact count conservation, thread-count-independent
// determinism of ensemble statistics, and the consensus_since sentinel.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/flock.hpp"
#include "baselines/majority.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/count_sim.hpp"
#include "engine/ensemble.hpp"
#include "engine/executor.hpp"
#include "engine/pool.hpp"
#include "pp/simulator.hpp"
#include "support/rng.hpp"
#include "oracles.hpp"

namespace ppde::engine {
namespace {

// The fleet as run_ensemble drives it: every trial below `trials`, each
// result stored at its index.
std::vector<TrialResult> run_all(
    std::uint64_t trials, unsigned threads, std::uint64_t master_seed,
    const std::function<TrialResult(std::uint64_t trial, std::uint64_t seed)>&
        body) {
  std::vector<TrialResult> results(trials);
  run_fleet<TrialResult>(
      fleet_workers(trials, threads), master_seed, "engine",
      [&] { return trials; },
      [&](unsigned, std::uint64_t trial, std::uint64_t seed,
          const std::atomic<bool>&) { return body(trial, seed); },
      [&](std::uint64_t trial, TrialResult&& result) {
        results[trial] = std::move(result);
        return false;
      });
  return results;
}

// Two-opinion "initiator wins" protocol: (T,F -> T,T), (F,T -> F,F).
// From a mixed start the absorbing opinion is genuinely random, which makes
// it the right workload for comparing acceptance *distributions*.
pp::Protocol make_opinion_protocol() {
  pp::Protocol protocol;
  const pp::State t = protocol.add_state("T");
  const pp::State f = protocol.add_state("F");
  protocol.mark_input(t);
  protocol.mark_input(f);
  protocol.mark_accepting(t);
  protocol.add_transition(t, f, t, t);
  protocol.add_transition(f, t, f, f);
  protocol.finalize();
  return protocol;
}

pp::Config opinion_initial(const pp::Protocol& protocol, std::uint32_t t,
                           std::uint32_t f) {
  pp::Config config(protocol.num_states());
  config.add(protocol.state("T"), t);
  config.add(protocol.state("F"), f);
  return config;
}

struct SampleStats {
  std::uint64_t accepted = 0;
  std::uint64_t stabilised = 0;
  std::vector<double> interactions;
};

template <typename MakeSim>
SampleStats sample_runs(std::uint64_t trials, std::uint64_t seed_stream,
                        const pp::SimulationOptions& options,
                        MakeSim make_sim) {
  SampleStats stats;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    auto sim = make_sim(derive_trial_seed(seed_stream, trial));
    const pp::SimulationResult result = sim.run_until_stable(options);
    if (result.stabilised) {
      ++stats.stabilised;
      if (result.output) ++stats.accepted;
    }
    stats.interactions.push_back(static_cast<double>(result.interactions));
  }
  return stats;
}

// Two-sample chi-squared statistic over quantile bins of the combined
// sample (equal sample sizes). Heavily tied samples collapse bins; the
// statistic stays valid because both samples share the tie structure.
double chi_squared(const std::vector<double>& a,
                   const std::vector<double>& b) {
  std::vector<double> combined = a;
  combined.insert(combined.end(), b.begin(), b.end());
  std::sort(combined.begin(), combined.end());
  std::vector<double> edges;
  for (int i = 1; i <= 5; ++i) {
    const double edge = combined[combined.size() * i / 6];
    if (edges.empty() || edge > edges.back()) edges.push_back(edge);
  }
  const auto histogram = [&](const std::vector<double>& values) {
    std::vector<double> bins(edges.size() + 1, 0.0);
    for (double v : values)
      bins[std::upper_bound(edges.begin(), edges.end(), v) - edges.begin()] +=
          1.0;
    return bins;
  };
  const std::vector<double> bins_a = histogram(a);
  const std::vector<double> bins_b = histogram(b);
  double statistic = 0.0;
  for (std::size_t i = 0; i < bins_a.size(); ++i) {
    const double total = bins_a[i] + bins_b[i];
    if (total == 0.0) continue;
    const double diff = bins_a[i] - bins_b[i];
    statistic += diff * diff / total;
  }
  return statistic;
}

// A 40-state "carousel" (every meeting advances the responder one state):
// all 1600 ordered pairs are active and the populated list fluctuates
// around 40 slots — past kMatrixSlots/2 — so the engine's swap-remove
// surgery and matrix relabelling run at scale, not just on a handful of
// populated states.
pp::Protocol make_carousel_protocol(std::uint32_t n) {
  pp::Protocol protocol;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    protocol.add_state(name);
  }
  protocol.mark_accepting(0);
  for (pp::State q = 0; q < n; ++q)
    for (pp::State r = 0; r < n; ++r)
      protocol.add_transition(q, r, q, (r + 1) % n);
  protocol.finalize();
  return protocol;
}

TEST(CountSimulator, ConservesCountsExactly) {
  const pp::Protocol majority = baselines::make_majority();
  CountSimulator sim(majority, baselines::majority_initial(majority, 50, 50),
                     17);
  for (int step = 0; step < 20'000 && !sim.frozen(); ++step) {
    sim.step();
    if (step % 1'000 != 0) continue;
    EXPECT_EQ(sim.population(), 100u);
    std::uint64_t total = 0;
    for (std::uint32_t c : sim.config().counts()) total += c;
    EXPECT_EQ(total, 100u);
    EXPECT_EQ(sim.accepting_agents(), sim.config().accepting_count(majority));
  }
  EXPECT_EQ(sim.metrics().meetings, sim.interactions());
  EXPECT_LE(sim.metrics().firings, sim.metrics().meetings);
}

TEST(CountSimulator, MatchesPerAgentDistribution) {
  const pp::Protocol opinion = make_opinion_protocol();
  const pp::Config initial = opinion_initial(opinion, 3, 3);
  pp::SimulationOptions options;
  options.stable_window = 200;
  options.max_interactions = 1'000'000;
  const std::uint64_t trials = 600;

  const SampleStats per_agent =
      sample_runs(trials, 1, options, [&](std::uint64_t seed) {
        return pp::Simulator(opinion, initial, seed);
      });
  const SampleStats count_skip =
      sample_runs(trials, 2, options, [&](std::uint64_t seed) {
        return CountSimulator(opinion, initial, seed);
      });

  // Every run of this protocol absorbs.
  EXPECT_EQ(per_agent.stabilised, trials);
  EXPECT_EQ(count_skip.stabilised, trials);

  // Acceptance fractions agree within 4 binomial standard errors of the
  // symmetric p = 1/2 (se = sqrt(2 * 0.25 / 600) ≈ 0.029).
  const double accept_a =
      static_cast<double>(per_agent.accepted) / static_cast<double>(trials);
  const double accept_b =
      static_cast<double>(count_skip.accepted) / static_cast<double>(trials);
  EXPECT_NEAR(accept_a, accept_b, 0.115);

  // Interactions-to-stabilisation distributions agree: chi-squared over
  // quantile bins, df <= 5, generous critical value (p < 0.001 is ~20.5).
  EXPECT_LT(chi_squared(per_agent.interactions, count_skip.interactions),
            25.0);
}

TEST(CountSimulator, MatchesPerAgentOnOneSidedConvergence) {
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  const pp::Config initial = baselines::flock_initial(flock, 8);
  pp::SimulationOptions options;
  options.stable_window = 500;
  options.max_interactions = 1'000'000;
  const std::uint64_t trials = 400;

  const SampleStats per_agent =
      sample_runs(trials, 3, options, [&](std::uint64_t seed) {
        return pp::Simulator(flock, initial, seed);
      });
  const SampleStats count_skip =
      sample_runs(trials, 4, options, [&](std::uint64_t seed) {
        return CountSimulator(flock, initial, seed);
      });
  EXPECT_EQ(per_agent.stabilised, trials);
  EXPECT_EQ(per_agent.accepted, trials);  // 8 >= 3
  EXPECT_EQ(count_skip.accepted, trials);
  EXPECT_LT(chi_squared(per_agent.interactions, count_skip.interactions),
            25.0);
}

TEST(CountSimulator, FrozenConsensusStabilises) {
  // No transitions at all: the initial consensus is permanent and must be
  // reported after exactly stable_window meetings, from both engines.
  pp::Protocol protocol;
  const pp::State g = protocol.add_state("g");
  protocol.mark_input(g);
  protocol.mark_accepting(g);
  protocol.finalize();
  const pp::Config initial = pp::Config::single(1, g, 5);
  pp::SimulationOptions options;
  options.stable_window = 1'000;
  options.max_interactions = 50'000;

  CountSimulator count(protocol, initial, 9);
  EXPECT_TRUE(count.frozen());
  const pp::SimulationResult from_count = count.run_until_stable(options);
  pp::Simulator per_agent(protocol, initial, 9);
  const pp::SimulationResult from_agents =
      per_agent.run_until_stable(options);

  for (const pp::SimulationResult& result : {from_count, from_agents}) {
    EXPECT_TRUE(result.stabilised);
    EXPECT_TRUE(result.output);
    EXPECT_EQ(result.consensus_since, 0u);  // held from the very start
    EXPECT_EQ(result.interactions, 1'000u);
  }
}

TEST(CountSimulator, FrozenWithoutConsensusExhaustsBudget) {
  pp::Protocol protocol;
  const pp::State g = protocol.add_state("g");
  const pp::State h = protocol.add_state("h");
  protocol.mark_accepting(g);
  protocol.finalize();
  pp::Config initial(2);
  initial.add(g, 1);
  initial.add(h, 1);
  pp::SimulationOptions options;
  options.stable_window = 100;
  options.max_interactions = 5'000;

  CountSimulator sim(protocol, initial, 11);
  const pp::SimulationResult result = sim.run_until_stable(options);
  EXPECT_FALSE(result.stabilised);
  EXPECT_EQ(result.interactions, 5'000u);
  EXPECT_EQ(result.consensus_since, pp::SimulationResult::kNeverStabilised);
}

TEST(Simulator, ConsensusSinceSentinelIsUnambiguous) {
  const pp::Protocol majority = baselines::make_majority();
  pp::SimulationOptions options;
  options.stable_window = 100;
  options.max_interactions = 0;  // no budget: cannot stabilise
  pp::Simulator sim(majority, baselines::majority_initial(majority, 3, 3), 1);
  const pp::SimulationResult result = sim.run_until_stable(options);
  EXPECT_FALSE(result.stabilised);
  EXPECT_EQ(result.consensus_since, pp::SimulationResult::kNeverStabilised);
  EXPECT_EQ(pp::SimulationResult{}.consensus_since,
            pp::SimulationResult::kNeverStabilised);
}

TEST(CountSimulator, RemoveRandomAgentRespectsEligibility) {
  const pp::Protocol majority = baselines::make_majority();
  CountSimulator sim(majority, baselines::majority_initial(majority, 5, 5),
                     23);
  const pp::State big_a = majority.state("A");
  const auto removed = sim.remove_random_agent(
      [&](pp::State q) { return q == big_a; });
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, big_a);
  EXPECT_EQ(sim.population(), 9u);
  EXPECT_EQ(sim.config()[big_a], 4u);
  // Nobody is in state "b"; requesting one must fail without side effects.
  const pp::State small_b = majority.state("b");
  EXPECT_FALSE(sim.remove_random_agent(
                      [&](pp::State q) { return q == small_b; })
                   .has_value());
  EXPECT_EQ(sim.population(), 9u);
}

TEST(Ensemble, SeedDerivationIsStableAndCollisionFree) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t trial = 0; trial < 1'000; ++trial)
    seeds.insert(derive_trial_seed(42, trial));
  EXPECT_EQ(seeds.size(), 1'000u);
  // Pinned: the scheme (SplitMix64 stream) is part of the repository's
  // reproducibility contract — changing it silently would invalidate every
  // recorded ensemble experiment.
  EXPECT_EQ(derive_trial_seed(42, 0), derive_trial_seed(42, 0));
  EXPECT_NE(derive_trial_seed(42, 0), derive_trial_seed(43, 0));
}

TEST(Ensemble, StatsAreIndependentOfThreadCount) {
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  const pp::Config initial = baselines::flock_initial(flock, 10);
  EnsembleOptions options;
  options.trials = 24;
  options.master_seed = 7;
  options.sim.stable_window = 1'000;
  options.sim.max_interactions = 1'000'000;

  std::vector<EnsembleStats> runs;
  for (const unsigned threads : {1u, 4u, 3u, 8u}) {
    options.threads = threads;
    runs.push_back(run_ensemble(flock, initial, options));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].trials, runs[0].trials);
    EXPECT_EQ(runs[i].stabilised, runs[0].stabilised);
    EXPECT_EQ(runs[i].accepted, runs[0].accepted);
    EXPECT_EQ(runs[i].interactions.p50, runs[0].interactions.p50);
    EXPECT_EQ(runs[i].interactions.p90, runs[0].interactions.p90);
    EXPECT_EQ(runs[i].interactions.max, runs[0].interactions.max);
    EXPECT_EQ(runs[i].parallel_time.p50, runs[0].parallel_time.p50);
    EXPECT_EQ(runs[i].parallel_time.max, runs[0].parallel_time.max);
    EXPECT_EQ(runs[i].totals.meetings, runs[0].totals.meetings);
    EXPECT_EQ(runs[i].totals.firings, runs[0].totals.firings);
    EXPECT_EQ(runs[i].totals.null_skip_batches,
              runs[0].totals.null_skip_batches);
    EXPECT_EQ(runs[i].totals.skipped_meetings,
              runs[0].totals.skipped_meetings);
    EXPECT_EQ(runs[i].totals.consensus_flips,
              runs[0].totals.consensus_flips);
    // The incremental-maintenance counters ride the same trajectories, so
    // they must be just as thread-count-deterministic as the physics.
    EXPECT_EQ(runs[i].totals.weight_updates, runs[0].totals.weight_updates);
    EXPECT_EQ(runs[i].totals.populate_events,
              runs[0].totals.populate_events);
    EXPECT_EQ(runs[i].totals.depopulate_events,
              runs[0].totals.depopulate_events);
  }
  EXPECT_GT(runs[0].totals.weight_updates, 0u);
}

TEST(Ensemble, EnginesAgreeOnVerdicts) {
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  const pp::Config initial = baselines::flock_initial(flock, 10);
  EnsembleOptions options;
  options.trials = 8;
  options.threads = 2;
  options.master_seed = 3;
  options.sim.stable_window = 1'000;
  options.sim.max_interactions = 1'000'000;
  for (const EngineKind engine :
       {EngineKind::kPerAgent, EngineKind::kCountNullSkip}) {
    options.engine = engine;
    const EnsembleStats stats = run_ensemble(flock, initial, options);
    EXPECT_EQ(stats.stabilised, options.trials) << to_string(engine);
    EXPECT_EQ(stats.accepted, options.trials) << to_string(engine);
    EXPECT_GT(stats.totals.meetings, 0u) << to_string(engine);
  }
}

TEST(Ensemble, FleetRethrowsBodyExceptions) {
  EXPECT_THROW(run_all(8, 4, 1,
                       [](std::uint64_t trial, std::uint64_t) -> TrialResult {
                         if (trial == 5) throw std::runtime_error("boom");
                         return {};
                       }),
               std::runtime_error);
}

// The differential case table of the linear-scan oracle tests. Seven
// cases cover the regimes: tiny two-state, the 4-state majority, the
// converted Czerner n = 1 (≈880 states) at two populations — |F| + 400
// (~24 populated, heavy populate/depopulate churn) and |F| + 2, the
// certification regime where every agent sits in its own state — and the
// carousel with a large populated list: 40 states inside the 64-slot
// matrix, 80 states beyond it from load, and 80 states starting at 60
// populated, which outgrows the matrix mid-run (at step 2,318 for seed 1).
struct OracleCases {
  struct Case {
    const pp::Protocol* protocol;
    pp::Config initial;
    int steps;
  };

  OracleCases()
      : opinion(make_opinion_protocol()),
        majority(baselines::make_majority()),
        conv(compile::machine_to_protocol(
            compile::lower_program(czerner::build_construction(1).program)
                .machine)),
        carousel40(make_carousel_protocol(40)),
        carousel80(make_carousel_protocol(80)) {
    const auto carousel_initial = [](const pp::Protocol& carousel,
                                     std::uint32_t states,
                                     std::uint32_t agents) {
      pp::Config initial(carousel.num_states());
      for (pp::State q = 0; q < states; ++q) initial.add(q, agents);
      return initial;
    };
    cases = {
        {&opinion, opinion_initial(opinion, 5, 4), 4'000},
        {&majority, baselines::majority_initial(majority, 23, 20), 4'000},
        {&conv.protocol, conv.initial_config(conv.num_pointers + 400), 12'000},
        {&conv.protocol, conv.initial_config(conv.num_pointers + 2), 12'000},
        {&carousel40, carousel_initial(carousel40, 40, 3), 12'000},
        {&carousel80, carousel_initial(carousel80, 80, 3), 12'000},
        {&carousel80, carousel_initial(carousel80, 60, 4), 12'000},
    };
  }
  // The cases point into the protocols above.
  OracleCases(const OracleCases&) = delete;
  OracleCases& operator=(const OracleCases&) = delete;

  pp::Protocol opinion;
  pp::Protocol majority;
  compile::ProtocolConversion conv;
  pp::Protocol carousel40;
  pp::Protocol carousel80;
  std::vector<Case> cases;
};

std::size_t populated_states(const pp::Config& config) {
  return static_cast<std::size_t>(
      std::count_if(config.counts().begin(), config.counts().end(),
                    [](std::uint32_t c) { return c != 0; }));
}

TEST(CountSimulator, BitIdenticalToLinearScanOracle) {
  // The tentpole contract: same seed, same trajectory, bit for bit — the
  // incremental weights and activity matrix may only change how fast the
  // next firing is found, never which firing it is.
  const OracleCases table;
  for (const OracleCases::Case& test_case : table.cases) {
    for (const std::uint64_t seed : {1ull, 29ull}) {
      CountSimulator sim(*test_case.protocol, test_case.initial, seed);
      oracle::LinearScanOracle oracle(*test_case.protocol, test_case.initial,
                                      seed);
      for (int step = 0; step < test_case.steps; ++step) {
        sim.step();
        oracle.step();
        ASSERT_EQ(sim.interactions(), oracle.interactions())
            << "step " << step;
        ASSERT_EQ(sim.metrics().firings, oracle.metrics().firings)
            << "step " << step;
        if (step % 64 == 0 || step + 1 == test_case.steps) {
          ASSERT_EQ(sim.config(), oracle.config()) << "step " << step;
        }
      }
      ASSERT_EQ(sim.metrics().meetings, oracle.metrics().meetings);
    }
  }
}

TEST(CountSimulator, PopulateEventsCountTheChurn) {
  // Every state entering or leaving the populated list during a run is
  // one event, so on every oracle case the two counters balance to the
  // change in the number of populated states since load.
  const OracleCases table;
  for (const OracleCases::Case& test_case : table.cases) {
    CountSimulator sim(*test_case.protocol, test_case.initial, 1);
    for (int step = 0; step < test_case.steps; ++step) sim.step();
    const auto& metrics = sim.metrics();
    EXPECT_EQ(static_cast<std::int64_t>(metrics.populate_events) -
                  static_cast<std::int64_t>(metrics.depopulate_events),
              static_cast<std::int64_t>(populated_states(sim.config())) -
                  static_cast<std::int64_t>(
                      populated_states(test_case.initial)));
  }
  // In the certification regime (m = |F| + 2) nearly every firing moves
  // an agent into an empty state: more populate events than firings.
  const auto& conv = table.conv;
  CountSimulator sim(conv.protocol, conv.initial_config(conv.num_pointers + 2),
                     7);
  for (int step = 0; step < 5'000; ++step) sim.step();
  EXPECT_GT(sim.metrics().populate_events, sim.metrics().firings);
  EXPECT_GT(sim.metrics().depopulate_events, 0u);
}

TEST(CountSimulator, RunUntilStableMatchesOracle) {
  // consensus_since, stabilised, output and the final interaction count
  // all come out of the same trajectory, so they must match the oracle's
  // run loop exactly — including the closed-form window completions.
  const pp::Protocol opinion = make_opinion_protocol();
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  struct Case {
    const pp::Protocol* protocol;
    pp::Config initial;
  };
  const Case cases[] = {
      {&opinion, opinion_initial(opinion, 4, 4)},
      {&flock, baselines::flock_initial(flock, 9)},
  };
  pp::SimulationOptions options;
  options.stable_window = 400;
  options.max_interactions = 1'000'000;
  for (const Case& test_case : cases) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      CountSimulator sim(*test_case.protocol, test_case.initial, seed);
      oracle::LinearScanOracle oracle(*test_case.protocol, test_case.initial,
                                      seed);
      const pp::SimulationResult ours = sim.run_until_stable(options);
      const pp::SimulationResult reference = oracle.run_until_stable(options);
      ASSERT_EQ(ours.stabilised, reference.stabilised) << seed;
      ASSERT_EQ(ours.output, reference.output) << seed;
      ASSERT_EQ(ours.interactions, reference.interactions) << seed;
      ASSERT_EQ(ours.consensus_since, reference.consensus_since) << seed;
      ASSERT_EQ(sim.config(), oracle.config()) << seed;
      ASSERT_EQ(sim.metrics().consensus_flips,
                oracle.metrics().consensus_flips)
          << seed;
    }
  }
}

TEST(CountSimulator, TinyPopulationsFreezeInsteadOfDividing) {
  // Regression for the m <= 1 hazard: sample_null_run's geometric law
  // divides by m·(m−1) and the meeting sampler draws below(m−1); empty and
  // single-agent configurations must freeze immediately instead.
  const pp::Protocol opinion = make_opinion_protocol();
  pp::SimulationOptions run;
  run.stable_window = 50;
  run.max_interactions = 1'000;

  pp::Config lone(opinion.num_states());
  lone.add(opinion.state("T"), 1);
  CountSimulator single(opinion, lone, 3);
  EXPECT_TRUE(single.frozen());
  EXPECT_FALSE(single.step());
  EXPECT_EQ(single.interactions(), 1u);
  const pp::SimulationResult result = single.run_until_stable(run);
  EXPECT_TRUE(result.stabilised);
  EXPECT_TRUE(result.output);  // the lone agent accepts
  // The manual step above burnt one interaction; the window starts there.
  EXPECT_EQ(result.consensus_since, 1u);
  EXPECT_EQ(single.config()[opinion.state("T")], 1u);

  pp::Config empty(opinion.num_states());
  CountSimulator none(opinion, empty, 3);
  EXPECT_TRUE(none.frozen());
  EXPECT_FALSE(none.step());
  const pp::SimulationResult vacuous = none.run_until_stable(run);
  EXPECT_TRUE(vacuous.stabilised);  // vacuous consensus, documented
}

TEST(CountSimulator, BudgetBoundaryOnFrozenConsensus) {
  // Zero active weight with a held consensus: the closed-form fast-forward
  // must stabilise exactly when the window fits the budget and exhaust the
  // budget (without stabilising) when it misses by one.
  pp::Protocol protocol;
  const pp::State g = protocol.add_state("g");
  protocol.mark_input(g);
  protocol.mark_accepting(g);
  protocol.finalize();
  const pp::Config initial = pp::Config::single(1, g, 4);
  pp::SimulationOptions exact;
  exact.stable_window = 1'000;
  exact.max_interactions = 1'000;  // stable_at == budget: just fits
  pp::SimulationOptions short_by_one;
  short_by_one.stable_window = 1'000;
  short_by_one.max_interactions = 999;

  CountSimulator fits(protocol, initial, 5);
  const pp::SimulationResult on_time = fits.run_until_stable(exact);
  EXPECT_TRUE(on_time.stabilised);
  EXPECT_EQ(on_time.interactions, 1'000u);
  EXPECT_EQ(on_time.consensus_since, 0u);

  CountSimulator misses(protocol, initial, 5);
  const pp::SimulationResult late = misses.run_until_stable(short_by_one);
  EXPECT_FALSE(late.stabilised);
  EXPECT_EQ(late.interactions, 999u);
  EXPECT_EQ(late.consensus_since, pp::SimulationResult::kNeverStabilised);
}

TEST(CountSimulator, ResetMatchesFreshConstruction) {
  // TrialExecutor reuses one simulator per worker; reset(Config, seed)
  // must therefore be indistinguishable from constructing fresh — same
  // trajectory, same metrics — even after a prior run left the simulator
  // in an arbitrary state.
  const pp::Protocol majority = baselines::make_majority();
  const pp::Config initial = baselines::majority_initial(majority, 13, 11);
  CountSimulator fresh(majority, initial, 77);
  CountSimulator reused(majority, baselines::majority_initial(majority, 40, 2),
                        5);
  for (int step = 0; step < 500; ++step) reused.step();  // arbitrary state
  reused.reset(initial, 77);
  EXPECT_EQ(reused.interactions(), 0u);
  EXPECT_EQ(reused.metrics().firings, 0u);
  for (int step = 0; step < 2'000; ++step) {
    fresh.step();
    reused.step();
  }
  EXPECT_EQ(fresh.config(), reused.config());
  EXPECT_EQ(fresh.interactions(), reused.interactions());
  EXPECT_EQ(fresh.metrics().firings, reused.metrics().firings);
  EXPECT_EQ(fresh.metrics().meetings, reused.metrics().meetings);
  EXPECT_EQ(fresh.metrics().weight_updates, reused.metrics().weight_updates);
}

TEST(TrialExecutor, RaisedStopFlagEndsTheRunAtThePollPoint) {
  // The carousel never holds a consensus and every meeting fires, so only
  // the budget or the stop flag ends a run. A raised flag is seen at the
  // first poll: 2^16 firings on the count engine, 2^16 meetings on the
  // per-agent one. An unraised flag changes nothing.
  const pp::Protocol carousel = make_carousel_protocol(40);
  pp::Config initial(carousel.num_states());
  for (pp::State q = 0; q < 40; ++q) initial.add(q, 3);
  pp::SimulationOptions options;
  options.stable_window = 1'000'000'000'000;
  options.max_interactions = 1'000'000'000'000;
  for (const EngineKind kind :
       {EngineKind::kCountNullSkip, EngineKind::kPerAgent}) {
    SCOPED_TRACE(to_string(kind));
    TrialExecutor executor(carousel, kind, sched::Scenario{}, 1);
    const std::atomic<bool> raised{true};
    const TrialResult cut = executor.run(0, initial, 7, options, &raised);
    EXPECT_FALSE(cut.sim.stabilised);
    EXPECT_EQ(kind == EngineKind::kPerAgent ? cut.metrics.meetings
                                            : cut.metrics.firings,
              pp::kStopPollMask + 1);

    pp::SimulationOptions budgeted = options;
    budgeted.max_interactions = 200'000;
    const std::atomic<bool> lowered{false};
    const TrialResult full = executor.run(0, initial, 7, budgeted, &lowered);
    EXPECT_EQ(full.sim.interactions, budgeted.max_interactions);
    const TrialResult unset = executor.run(0, initial, 7, budgeted);
    EXPECT_EQ(unset.metrics.firings, full.metrics.firings);
  }
}

TEST(CountSimulator, MetricsObserveTheIncrementalPath) {
  // The incremental machinery is observable: each fired transition
  // updates at least the slots it touched.
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  CountSimulator sim(conv.protocol,
                     conv.initial_config(conv.num_pointers + 50), 13);
  for (int step = 0; step < 5'000; ++step) sim.step();
  EXPECT_GT(sim.metrics().firings, 0u);
  EXPECT_GT(sim.metrics().weight_updates, sim.metrics().firings);
}

TEST(CountSimulator, CzernerPipelineSmoke) {
  // The engine's target workload: the converted n=1 construction, where
  // almost every meeting is null. Checks invariants and that null-skip
  // actually skips.
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const std::uint64_t m = conv.num_pointers + 6;
  CountSimulator sim(conv.protocol, conv.initial_config(m), 31);
  for (int firing = 0; firing < 20'000 && !sim.frozen(); ++firing)
    sim.step();
  EXPECT_EQ(sim.population(), m);
  std::uint64_t total = 0;
  for (std::uint32_t c : sim.config().counts()) total += c;
  EXPECT_EQ(total, m);
  EXPECT_EQ(sim.accepting_agents(),
            sim.config().accepting_count(conv.protocol));
  EXPECT_EQ(sim.metrics().meetings, sim.interactions());
  EXPECT_GT(sim.metrics().skipped_meetings, 0u);
  EXPECT_GT(sim.metrics().null_skip_batches, 0u);
}

// Pinned oracle for RunMetrics accumulation semantics (S24): the obs
// registry mirrors these counters for live observation, so the record's
// own merge/render behaviour must stay exactly what aggregate() and
// certify_trials() fold on.

TEST(RunMetrics, MergeSumsEveryFieldIncludingWallTime) {
  RunMetrics a;
  a.meetings = 10;
  a.firings = 7;
  a.null_skip_batches = 3;
  a.skipped_meetings = 5;
  a.consensus_flips = 2;
  a.weight_updates = 11;
  a.populate_events = 13;
  a.depopulate_events = 17;
  a.wall_seconds = 0.25;
  RunMetrics b;
  b.meetings = 100;
  b.firings = 70;
  b.null_skip_batches = 30;
  b.skipped_meetings = 50;
  b.consensus_flips = 20;
  b.weight_updates = 110;
  b.populate_events = 130;
  b.depopulate_events = 170;
  b.wall_seconds = 0.5;

  a.merge(b);
  EXPECT_EQ(a.meetings, 110u);
  EXPECT_EQ(a.firings, 77u);
  EXPECT_EQ(a.null_skip_batches, 33u);
  EXPECT_EQ(a.skipped_meetings, 55u);
  EXPECT_EQ(a.consensus_flips, 22u);
  EXPECT_EQ(a.weight_updates, 121u);
  EXPECT_EQ(a.populate_events, 143u);
  EXPECT_EQ(a.depopulate_events, 187u);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 0.75);

  // Merging a default-constructed record is the identity.
  RunMetrics before = a;
  a.merge(RunMetrics{});
  EXPECT_EQ(a.meetings, before.meetings);
  EXPECT_DOUBLE_EQ(a.wall_seconds, before.wall_seconds);
}

TEST(RunMetrics, MergeIsAssociativeOnCounters) {
  RunMetrics x, y, z;
  x.meetings = 1;
  y.meetings = 2;
  z.meetings = 4;
  x.firings = 8;
  y.firings = 16;
  z.firings = 32;

  RunMetrics left = x;
  left.merge(y);
  left.merge(z);
  RunMetrics yz = y;
  yz.merge(z);
  RunMetrics right = x;
  right.merge(yz);
  EXPECT_EQ(left.meetings, right.meetings);
  EXPECT_EQ(left.firings, right.firings);
  EXPECT_EQ(left.meetings, 7u);
  EXPECT_EQ(left.firings, 56u);
}

TEST(RunMetrics, ToStringRendersEveryField) {
  RunMetrics m;
  m.meetings = 1;
  m.firings = 2;
  m.null_skip_batches = 3;
  m.skipped_meetings = 4;
  m.consensus_flips = 5;
  m.weight_updates = 6;
  m.populate_events = 7;
  m.depopulate_events = 8;
  m.wall_seconds = 1.5;
  EXPECT_EQ(m.to_string(),
            "meetings=1 firings=2 null_skip_batches=3 skipped=4 flips=5 "
            "weight_updates=6 populate=7 depopulate=8 wall=1.500s");
}

TEST(RunMetrics, EffectiveRateGuardsDegenerateWallTimes) {
  RunMetrics m;
  m.meetings = 1000;
  m.wall_seconds = 0.0;
  EXPECT_EQ(m.effective_meetings_per_second(), 0.0);
  m.wall_seconds = 2.0;
  EXPECT_DOUBLE_EQ(m.effective_meetings_per_second(), 500.0);
  m.wall_seconds = -1.0;
  EXPECT_EQ(m.effective_meetings_per_second(), 0.0);
}

// ---------------------------------------------------------------------------
// Worker-pool lifecycle edges (S25 satellite): construction/destruction
// without work, heavy reuse, exception propagation from several workers at
// once, and resubmission after a failed round. Run under TSan in CI.

TEST(WorkerPool, ConstructDestroyWithoutWork) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    WorkerPool pool(threads);
    EXPECT_GE(pool.workers(), 1u);
  }
}

TEST(WorkerPool, ManySequentialRoundsReuseTheSameThreads) {
  WorkerPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 100; ++round)
    pool.parallel_for_workers(64, [&](unsigned, std::uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(total.load(), 6400u);
}

TEST(WorkerPool, FirstExceptionWinsWhenManyWorkersThrow) {
  WorkerPool pool(4);
  // Every index throws; the pool must drain (no hang, no worker stuck on
  // a dead round) and rethrow exactly one of them.
  try {
    pool.parallel_for_workers(256, [](unsigned, std::uint64_t i) {
      throw std::runtime_error("item " + std::to_string(i));
    });
    FAIL() << "parallel_for_workers swallowed the exceptions";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()).rfind("item ", 0), 0u);
  }
}

TEST(WorkerPool, ResubmitAfterAFailedRoundWorks) {
  WorkerPool pool(3);
  EXPECT_THROW(pool.parallel_for_workers(8,
                                         [](unsigned, std::uint64_t) {
                                           throw std::logic_error("boom");
                                         }),
               std::logic_error);
  // The failed round must not poison the pool: a clean round right after
  // runs every index exactly once.
  std::vector<std::atomic<int>> hits(32);
  pool.parallel_for_workers(32, [&](unsigned worker, std::uint64_t i) {
    EXPECT_LT(worker, pool.workers());
    hits[i].fetch_add(1);
  });
  for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(Ensemble, FleetErrorNamesTheLowestFailingTrial) {
  try {
    run_all(16, 4, 1, [](std::uint64_t trial, std::uint64_t) -> TrialResult {
      if (trial >= 6) throw std::runtime_error("boom");
      return {};
    });
    FAIL() << "fleet swallowed the exception";
  } catch (const std::runtime_error& error) {
    // Lowest failing index with the original message — never a silent
    // partial EnsembleStats, never an unrelated trial's index.
    const std::string what = error.what();
    EXPECT_NE(what.find("trial 6"), std::string::npos) << what;
    EXPECT_NE(what.find("boom"), std::string::npos) << what;
  }
}

TEST(Ensemble, FleetStopsClaimingAfterAFailure) {
  // A failing trial ends the fleet: at one thread nothing past it runs,
  // and at four threads only what was already claimed finishes.
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    std::vector<std::atomic<int>> runs(64);
    EXPECT_THROW(
        run_all(64, threads, 1,
                [&](std::uint64_t trial, std::uint64_t) -> TrialResult {
                  runs[trial].fetch_add(1);
                  if (trial == 3) throw std::runtime_error("boom");
                  std::this_thread::sleep_for(std::chrono::milliseconds(5));
                  return {};
                }),
        std::runtime_error);
    int ran = 0;
    for (std::uint64_t trial = 0; trial < runs.size(); ++trial) {
      EXPECT_LE(runs[trial].load(), 1) << "trial " << trial;
      ran += runs[trial].load();
    }
    for (std::uint64_t trial = 0; trial <= 3; ++trial)
      EXPECT_EQ(runs[trial].load(), 1) << "trial " << trial;
    if (threads == 1)
      EXPECT_EQ(ran, 4);
    else
      EXPECT_LT(ran, 64);
  }
}

TEST(Ensemble, TrialRangeReproducesFleetSlices) {
  const auto body = [](std::uint64_t trial,
                       std::uint64_t seed) -> TrialResult {
    TrialResult result;
    result.seed = seed;
    result.sim.interactions = trial * 1000 + seed % 997;
    result.metrics.meetings = seed % 31;
    return result;
  };
  // Fleet trial i is exactly the body at (i, derive_trial_seed(master, i))
  // at any thread count, so a loop over any range of trials reproduces
  // that slice of the fleet — the property the serve daemon's shard
  // dispatch stands on (a worker's batch is such a loop).
  for (const unsigned threads : {1u, 2u, 3u}) {
    const std::vector<TrialResult> fleet = run_all(20, threads, 42, body);
    ASSERT_EQ(fleet.size(), 20u);
    for (std::uint64_t trial = 0; trial < fleet.size(); ++trial) {
      const TrialResult alone = body(trial, derive_trial_seed(42, trial));
      EXPECT_EQ(fleet[trial].seed, alone.seed);
      EXPECT_EQ(fleet[trial].sim.interactions, alone.sim.interactions);
      EXPECT_EQ(fleet[trial].metrics.meetings, alone.metrics.meetings);
    }
  }
}

}  // namespace
}  // namespace ppde::engine
