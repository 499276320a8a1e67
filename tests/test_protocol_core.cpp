// Tests for the population protocol core: Protocol, Config, Simulator, and
// the exact fair-run Verifier (Section 3 semantics).
#include <gtest/gtest.h>

#include "baselines/majority.hpp"
#include "isa/compiled.hpp"
#include "oracles.hpp"
#include "pp/config.hpp"
#include "pp/protocol.hpp"
#include "pp/simulator.hpp"
#include "pp/verifier.hpp"

namespace ppde::pp {
namespace {

Protocol make_two_state_epidemic() {
  // (sick, healthy -> sick, sick): classic one-way epidemic; accepting=sick.
  Protocol protocol;
  const State sick = protocol.add_state("sick");
  const State healthy = protocol.add_state("healthy");
  protocol.mark_input(healthy);
  protocol.mark_accepting(sick);
  protocol.add_transition(sick, healthy, sick, sick);
  protocol.finalize();
  return protocol;
}

TEST(Protocol, StateNamesRoundTrip) {
  Protocol protocol;
  const State a = protocol.add_state("a");
  const State b = protocol.add_state("b");
  EXPECT_EQ(protocol.state("a"), a);
  EXPECT_EQ(protocol.state("b"), b);
  EXPECT_EQ(protocol.name(a), "a");
  EXPECT_THROW(protocol.state("c"), std::out_of_range);
  EXPECT_FALSE(protocol.find_state("c").has_value());
}

TEST(Protocol, DuplicateStateNameThrows) {
  Protocol protocol;
  protocol.add_state("a");
  EXPECT_THROW(protocol.add_state("a"), std::invalid_argument);
}

TEST(Protocol, TransitionIndexFindsApplicable) {
  Protocol protocol = make_two_state_epidemic();
  const State sick = protocol.state("sick");
  const State healthy = protocol.state("healthy");
  const oracle::TransitionMap map(protocol);
  EXPECT_EQ(map.candidates(sick, healthy).size(), 1u);
  EXPECT_TRUE(map.candidates(healthy, sick).empty());
  EXPECT_TRUE(map.candidates(healthy, healthy).empty());
  EXPECT_TRUE(protocol.compiled().pair_active(sick, healthy));
  EXPECT_FALSE(protocol.compiled().pair_active(healthy, sick));
  EXPECT_FALSE(protocol.compiled().pair_active(healthy, healthy));
}

TEST(Protocol, SilentTransitionsAreDroppedFromIndex) {
  Protocol protocol;
  const State a = protocol.add_state("a");
  protocol.add_transition(a, a, a, a);
  protocol.finalize();
  EXPECT_TRUE(oracle::TransitionMap(protocol).candidates(a, a).empty());
  EXPECT_FALSE(protocol.compiled().pair_active(a, a));
}

TEST(Protocol, MutationAfterFinalizeThrows) {
  Protocol protocol = make_two_state_epidemic();
  EXPECT_THROW(protocol.add_state("x"), std::logic_error);
  EXPECT_THROW(protocol.add_transition(0, 0, 0, 0), std::logic_error);
  EXPECT_THROW(protocol.finalize(), std::logic_error);
}

TEST(Protocol, TransitionWithUnknownStateThrows) {
  Protocol protocol;
  protocol.add_state("a");
  EXPECT_THROW(protocol.add_transition(0, 1, 0, 0), std::out_of_range);
}

TEST(Config, AddRemoveTotals) {
  Config config(3);
  config.add(0, 2);
  config.add(2, 1);
  EXPECT_EQ(config.total(), 3u);
  EXPECT_EQ(config[0], 2u);
  config.remove(0);
  EXPECT_EQ(config.total(), 2u);
  EXPECT_THROW(config.remove(1), std::underflow_error);
}

TEST(Config, OutputClassification) {
  Protocol protocol = make_two_state_epidemic();
  Config all_sick = Config::single(2, protocol.state("sick"), 3);
  Config all_healthy = Config::single(2, protocol.state("healthy"), 3);
  Config mixed = all_sick;
  mixed.add(protocol.state("healthy"), 1);
  EXPECT_EQ(all_sick.output(protocol), Config::Output::kTrue);
  EXPECT_EQ(all_healthy.output(protocol), Config::Output::kFalse);
  EXPECT_EQ(mixed.output(protocol), Config::Output::kUndefined);
}

TEST(Config, ApplyTransitionConservesAgents) {
  Protocol protocol = make_two_state_epidemic();
  Config config(2);
  config.add(protocol.state("sick"), 1);
  config.add(protocol.state("healthy"), 4);
  config.apply(protocol.transitions()[0]);
  EXPECT_EQ(config.total(), 5u);
  EXPECT_EQ(config[protocol.state("sick")], 2u);
}

TEST(Config, HashAndEquality) {
  Config a(4), b(4);
  a.add(1, 2);
  b.add(1, 2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.add(2, 1);
  EXPECT_NE(a, b);
}

TEST(Simulator, EpidemicInfectsEveryone) {
  Protocol protocol = make_two_state_epidemic();
  Config initial(2);
  initial.add(protocol.state("sick"), 1);
  initial.add(protocol.state("healthy"), 49);
  Simulator sim(protocol, initial, /*seed=*/7);
  SimulationOptions options;
  options.stable_window = 10'000;
  options.max_interactions = 10'000'000;
  const SimulationResult result = sim.run_until_stable(options);
  ASSERT_TRUE(result.stabilised);
  EXPECT_TRUE(result.output);
  EXPECT_EQ(sim.accepting_agents(), 50u);
}

TEST(Simulator, AgentCountIsConserved) {
  Protocol protocol = make_two_state_epidemic();
  Config initial(2);
  initial.add(protocol.state("sick"), 2);
  initial.add(protocol.state("healthy"), 8);
  Simulator sim(protocol, initial, 3);
  for (int i = 0; i < 1000; ++i) sim.step();
  EXPECT_EQ(sim.config().total(), 10u);
}

TEST(Simulator, NeedsTwoAgents) {
  Protocol protocol = make_two_state_epidemic();
  Config initial = Config::single(2, protocol.state("sick"), 1);
  EXPECT_THROW(Simulator(protocol, initial, 1), std::invalid_argument);
}

TEST(Simulator, DeterministicUnderSeed) {
  Protocol protocol = baselines::make_majority();
  Config initial = baselines::majority_initial(protocol, 6, 5);
  Simulator a(protocol, initial, 42);
  Simulator b(protocol, initial, 42);
  for (int i = 0; i < 500; ++i) {
    a.step();
    b.step();
  }
  EXPECT_EQ(a.config(), b.config());
}

TEST(Verifier, EpidemicStabilisesTrue) {
  Protocol protocol = make_two_state_epidemic();
  Config initial(2);
  initial.add(protocol.state("sick"), 1);
  initial.add(protocol.state("healthy"), 5);
  const VerificationResult result = Verifier(protocol).verify(initial);
  EXPECT_EQ(result.verdict, VerificationResult::Verdict::kStabilisesTrue);
  // The epidemic is a DAG of configurations: 6 reachable configs, one BSCC.
  EXPECT_EQ(result.explored_configs, 6u);
  EXPECT_EQ(result.num_bottom_sccs, 1u);
}

TEST(Verifier, AllHealthyStaysFalse) {
  Protocol protocol = make_two_state_epidemic();
  Config initial = Config::single(2, protocol.state("healthy"), 5);
  const VerificationResult result = Verifier(protocol).verify(initial);
  EXPECT_EQ(result.verdict, VerificationResult::Verdict::kStabilisesFalse);
  EXPECT_EQ(result.explored_configs, 1u);
}

TEST(Verifier, DetectsNonStabilisingProtocol) {
  // a <-> b oscillator: the two-config BSCC has both outputs.
  Protocol protocol;
  const State a = protocol.add_state("a");
  const State b = protocol.add_state("b");
  protocol.mark_accepting(a);
  protocol.add_transition(a, a, b, b);
  protocol.add_transition(b, b, a, a);
  protocol.finalize();
  const VerificationResult result =
      Verifier(protocol).verify(Config::single(2, a, 2));
  EXPECT_EQ(result.verdict, VerificationResult::Verdict::kDoesNotStabilise);
  ASSERT_TRUE(result.counterexample.has_value());
}

TEST(Verifier, MixedOutputBsccDetected) {
  // One agent flips between accepting and rejecting by meeting a catalyst.
  Protocol protocol;
  const State on = protocol.add_state("on");
  const State off = protocol.add_state("off");
  const State cat = protocol.add_state("cat");
  protocol.mark_accepting(on);
  protocol.mark_accepting(cat);
  protocol.add_transition(cat, on, cat, off);
  protocol.add_transition(cat, off, cat, on);
  protocol.finalize();
  Config initial(3);
  initial.add(cat, 1);
  initial.add(on, 1);
  const VerificationResult result = Verifier(protocol).verify(initial);
  EXPECT_EQ(result.verdict, VerificationResult::Verdict::kDoesNotStabilise);
}

TEST(Verifier, ResourceLimitReported) {
  Protocol protocol = baselines::make_majority();
  Config initial = baselines::majority_initial(protocol, 30, 30);
  VerifierOptions options;
  options.max_configs = 10;
  const VerificationResult result = Verifier(protocol).verify(initial, options);
  EXPECT_EQ(result.verdict, VerificationResult::Verdict::kResourceLimit);
}

TEST(Verifier, AgreesWithSimulatorOnMajority) {
  Protocol protocol = baselines::make_majority();
  for (std::uint32_t x = 0; x <= 4; ++x) {
    for (std::uint32_t y = 0; y <= 4; ++y) {
      if (x + y < 2) continue;
      Config initial = baselines::majority_initial(protocol, x, y);
      const VerificationResult exact = Verifier(protocol).verify(initial);
      ASSERT_TRUE(exact.stabilises()) << "x=" << x << " y=" << y;
      EXPECT_EQ(exact.output(), x > y) << "x=" << x << " y=" << y;

      Simulator sim(protocol, initial, 1000 + x * 10 + y);
      SimulationOptions options;
      options.stable_window = 20'000;
      const SimulationResult sim_result = sim.run_until_stable(options);
      ASSERT_TRUE(sim_result.stabilised);
      EXPECT_EQ(sim_result.output, exact.output()) << "x=" << x << " y=" << y;
    }
  }
}

}  // namespace
}  // namespace ppde::pp
