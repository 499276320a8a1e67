// Tests for the machine-to-protocol conversion (Section 7.3 / Appendix
// B.3): structural gadget checks (Figure 4), leader election (Lemma 15),
// the π-projection, Theorem 5's input shift, and exhaustive end-to-end
// verification of the full pipeline
//   Section-6 construction -> machine -> population protocol
// for n = 1 (the protocol decides m_regs >= k(1) = 2).
#include "compile/to_protocol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "compile/lower.hpp"
#include "czerner/construction.hpp"
#include "machine/interp.hpp"
#include "pp/simulator.hpp"
#include "pp/verifier.hpp"
#include "progmodel/builder.hpp"
#include "progmodel/sample_programs.hpp"

namespace ppde::compile {
namespace {

using machine::MachineState;
using pp::VerificationResult;
using pp::Verifier;
using pp::VerifierOptions;

/// Tiny program deciding "at least one register agent": Main: OF := false;
/// while true { if detect x > 0 then OF := true }. Its machine has the
/// minimal pointer set, keeping exhaustive election checks cheap.
progmodel::Program make_at_least_one() {
  progmodel::ProgramBuilder b;
  const progmodel::Reg x = b.reg("x");
  const progmodel::ProcRef main =
      b.proc("Main", false, [&](progmodel::BlockBuilder& s) {
        s.set_of(false);
        s.while_(s.constant(true), [&](progmodel::BlockBuilder& t) {
          t.if_(t.detect(x), [](progmodel::BlockBuilder& u) {
            u.set_of(true);
          });
        });
      });
  return std::move(b).build(main);
}

// -- structure -----------------------------------------------------------------

TEST(Conversion, StateCountMatchesFormula) {
  for (const auto& program :
       {progmodel::make_figure3_program(), progmodel::make_figure1_program(),
        czerner::build_construction(1).program}) {
    const LoweredMachine lowered = lower_program(program);
    const ProtocolConversion conv = machine_to_protocol(lowered.machine);
    EXPECT_EQ(conv.protocol.num_states(),
              conversion_state_count(lowered.machine));
  }
}

TEST(Conversion, NoBroadcastHalvesStates) {
  const LoweredMachine lowered =
      lower_program(progmodel::make_figure3_program());
  ConversionOptions nb;
  nb.with_broadcast = false;
  const ProtocolConversion with = machine_to_protocol(lowered.machine);
  const ProtocolConversion without = machine_to_protocol(lowered.machine, nb);
  EXPECT_EQ(with.protocol.num_states(), 2 * without.protocol.num_states());
}

TEST(Conversion, StatesPerTheorem5AreLinearInMachineSize) {
  // Proposition 16: |Q'| = 2|Q*| <= 2(|Q| + 7 sum|F_X| + L) = O(machine
  // size). Check the concrete bound on the construction.
  for (int n = 1; n <= 4; ++n) {
    const LoweredMachine lowered =
        lower_program(czerner::build_construction(n).program);
    const std::uint64_t states = conversion_state_count(lowered.machine);
    std::uint64_t domain_sum = 0;
    for (const auto& pointer : lowered.machine.pointers)
      domain_sum += pointer.domain.size();
    EXPECT_LE(states, 2 * (lowered.machine.num_registers() + 7 * domain_sum +
                           lowered.machine.num_instructions()))
        << "n=" << n;
  }
}

TEST(Conversion, Figure4MoveGadgetTransitionsExist) {
  // For a move instruction i: IP^i_none meets V_x^v_none -> IP^i_wait +
  // V_x^v_emit, and V_x^v_emit meets a register-v agent parking one unit.
  const LoweredMachine lowered =
      lower_program(progmodel::make_figure3_program());
  const machine::Machine& m = lowered.machine;
  const ProtocolConversion conv = machine_to_protocol(m);

  std::uint32_t move_at = 0;
  while (m.instrs[move_at].kind != machine::Instr::Kind::kMove) ++move_at;
  const machine::PtrId vx = m.v_reg[m.instrs[move_at].x];

  const pp::State ip_none =
      conv.pointer_state(m.ip, move_at, Stage::kNone, false);
  const pp::State vx_none = conv.pointer_state(vx, 0, Stage::kNone, false);
  EXPECT_FALSE(conv.protocol.transitions_for(ip_none, vx_none).empty())
      << "IP must recruit V_x";

  const pp::State vx_emit = conv.pointer_state(vx, 0, Stage::kEmit, false);
  const pp::State reg0 = conv.reg_state(0, false);
  EXPECT_FALSE(conv.protocol.transitions_for(vx_emit, reg0).empty())
      << "V_x in emit must park a register agent";
}

TEST(Conversion, Figure4TestGadgetWritesCF) {
  const LoweredMachine lowered =
      lower_program(progmodel::make_figure3_program());
  const machine::Machine& m = lowered.machine;
  const ProtocolConversion conv = machine_to_protocol(m);
  const machine::PtrId vx = m.v_reg[0];
  const pp::State vx_true = conv.pointer_state(vx, 0, Stage::kTrue, false);
  const pp::State cf_false =
      conv.pointer_state(m.cf, 0, Stage::kNone, false);
  const auto hits = conv.protocol.transitions_for(vx_true, cf_false);
  ASSERT_FALSE(hits.empty());
  const pp::Transition& t = conv.protocol.transitions()[hits[0]];
  EXPECT_EQ(t.r2, conv.pointer_state(m.cf, 1, Stage::kNone, false))
      << "the verdict true must be written into CF";
}

TEST(Conversion, InputStateIsFirstElectedPointer) {
  const LoweredMachine lowered =
      lower_program(progmodel::make_figure3_program());
  const ProtocolConversion conv = machine_to_protocol(lowered.machine);
  ASSERT_EQ(conv.protocol.input_states().size(), 1u);
  EXPECT_EQ(conv.protocol.input_states()[0], conv.input_state());
  // Input agents carry opinion false (rejecting by default).
  EXPECT_FALSE(conv.protocol.is_accepting(conv.input_state()));
}

// -- Lemma 15: leader election ----------------------------------------------------

TEST(Election, ReachesPiOfAnInitialMachineConfiguration) {
  // Simulate from c = m agents in X_1 and check that the population settles
  // into pi-form: exactly one agent per pointer, all at stage none, and the
  // machine then executes (the at-least-one machine accepts iff a register
  // agent exists, i.e. m > |F|).
  const LoweredMachine lowered = lower_program(make_at_least_one());
  const ProtocolConversion conv = machine_to_protocol(lowered.machine);
  const std::uint32_t f = conv.num_pointers;
  for (std::uint32_t m : {f, f + 1, f + 3}) {
    pp::Simulator sim(conv.protocol, conv.initial_config(m), 17 + m);
    pp::SimulationOptions options;
    options.stable_window = 400'000;
    options.max_interactions = 100'000'000;
    const auto result = sim.run_until_stable(options);
    ASSERT_TRUE(result.stabilised) << "m=" << m;
    EXPECT_EQ(result.output, m > f) << "m=" << m;
  }
}

TEST(Election, ExhaustiveOnMinimalMachine) {
  // Exact check including the election phase: every fair run from m agents
  // in X_1 stabilises to [m - |F| >= 1].
  const LoweredMachine lowered = lower_program(make_at_least_one());
  ConversionOptions nb;
  nb.with_broadcast = false;
  const ProtocolConversion conv = machine_to_protocol(lowered.machine, nb);
  VerifierOptions options;
  options.witness_mode = true;
  options.max_configs = 4'000'000;
  const std::uint32_t f = conv.num_pointers;
  for (std::uint32_t m : {f, f + 1, f + 2}) {
    const VerificationResult result =
        Verifier(conv.protocol).verify(conv.initial_config(m), options);
    ASSERT_TRUE(result.stabilises()) << "m=" << m;
    EXPECT_EQ(result.output(), m > f) << "m=" << m;
  }
}

TEST(Election, TooFewAgentsNeverAccepts) {
  // Proposition 16: with fewer than |F| agents no agent ever reaches an
  // IP state, so nothing executes and the output stays false.
  const LoweredMachine lowered = lower_program(make_at_least_one());
  ConversionOptions nb;
  nb.with_broadcast = false;
  const ProtocolConversion conv = machine_to_protocol(lowered.machine, nb);
  VerifierOptions options;
  options.witness_mode = true;
  for (std::uint32_t m = 2; m < conv.num_pointers; ++m) {
    const VerificationResult result =
        Verifier(conv.protocol).verify(conv.initial_config(m), options);
    ASSERT_TRUE(result.stabilises()) << "m=" << m;
    EXPECT_FALSE(result.output()) << "m=" << m;
  }
}

// -- π-projection and end-to-end pipeline -------------------------------------------

class PipelineN1 : public ::testing::Test {
 protected:
  PipelineN1()
      : lowered_(lower_program(czerner::build_construction(1).program)) {
    ConversionOptions nb;
    nb.with_broadcast = false;
    conv_ = machine_to_protocol(lowered_.machine, nb);
  }

  MachineState state_with_r(std::uint64_t m_regs) const {
    std::vector<std::uint64_t> regs(5, 0);
    regs[4] = m_regs;  // everything in R
    return machine::initial_state(lowered_.machine, regs);
  }

  LoweredMachine lowered_;
  ProtocolConversion conv_;
};

TEST_F(PipelineN1, PiConfigurationShape) {
  const pp::Config config = conv_.pi(state_with_r(3), false);
  EXPECT_EQ(config.total(), conv_.num_pointers + 3);
  // Exactly one agent per pointer, at its initial value / stage none.
  for (machine::PtrId p = 0; p < lowered_.machine.num_pointers(); ++p)
    EXPECT_EQ(config[conv_.pointer_state(
                  p, lowered_.machine.pointers[p].initial, Stage::kNone,
                  false)],
              1u)
        << lowered_.machine.pointers[p].name;
}

TEST(Conversion, PiNeedsNoLiveMachine) {
  // The serve daemon and its workers cache a conversion whose machine was
  // a block-local temporary; π and the pointer states must come out the
  // same as from a conversion whose machine is still alive.
  const LoweredMachine alive =
      lower_program(czerner::build_construction(1).program);
  const ProtocolConversion reference = machine_to_protocol(alive.machine);
  const ProtocolConversion orphan = [] {
    const LoweredMachine lowered =
        lower_program(czerner::build_construction(1).program);
    return machine_to_protocol(lowered.machine);
  }();
  for (const std::uint64_t m_regs : {0u, 3u}) {
    std::vector<std::uint64_t> regs(alive.machine.num_registers(), 0);
    regs.back() = m_regs;
    const MachineState state = machine::initial_state(alive.machine, regs);
    for (const bool opinion : {false, true})
      EXPECT_EQ(orphan.pi(state, opinion), reference.pi(state, opinion));
  }
  for (machine::PtrId p = 0; p < alive.machine.num_pointers(); ++p) {
    for (const std::uint32_t value : alive.machine.pointers[p].domain)
      EXPECT_EQ(orphan.pointer_state(p, value, Stage::kDone, true),
                reference.pointer_state(p, value, Stage::kDone, true));
    EXPECT_THROW(orphan.pointer_state(p, 0xffffffffu, Stage::kNone, false),
                 std::out_of_range);
  }
}

TEST_F(PipelineN1, ExhaustiveDecisionFromPi) {
  // The headline end-to-end result at n=1: every fair run of the converted
  // protocol from pi(initial machine state with m_regs register agents)
  // stabilises to [m_regs >= 2] — Theorem 3 + Theorem 5, verified exactly.
  VerifierOptions options;
  options.witness_mode = true;
  options.max_configs = 1'000'000;
  for (std::uint64_t m_regs = 0; m_regs <= 2; ++m_regs) {
    const VerificationResult result = Verifier(conv_.protocol)
                                          .verify(conv_.pi(state_with_r(m_regs),
                                                           false),
                                                  options);
    ASSERT_TRUE(result.stabilises()) << "m_regs=" << m_regs;
    EXPECT_EQ(result.output(), m_regs >= 2) << "m_regs=" << m_regs;
  }
}

TEST_F(PipelineN1, ExhaustiveDecisionIncludingElection) {
  // Including the election phase (reject side; the accept side's
  // reachable space exceeds memory — covered from pi above).
  VerifierOptions options;
  options.witness_mode = true;
  options.max_configs = 2'000'000;
  const VerificationResult result =
      Verifier(conv_.protocol)
          .verify(conv_.initial_config(conv_.num_pointers + 1), options);
  ASSERT_TRUE(result.stabilises());
  EXPECT_FALSE(result.output()) << "|F|+1 agents = 1 register agent < k = 2";
}

TEST(PipelineBroadcast, CzernerN1SimulationWithConsensus) {
  // Full protocol (with the output broadcast): random simulation reaches a
  // true consensus for m = |F| + 2 and stays all-false for m = |F| + 1.
  const LoweredMachine lowered =
      lower_program(czerner::build_construction(1).program);
  const ProtocolConversion conv = machine_to_protocol(lowered.machine);
  pp::SimulationOptions options;
  options.stable_window = 30'000'000;
  options.max_interactions = 500'000'000;
  for (std::uint32_t extra : {1u, 2u}) {
    pp::Simulator sim(conv.protocol,
                      conv.initial_config(conv.num_pointers + extra),
                      991 + extra);
    const auto result = sim.run_until_stable(options);
    ASSERT_TRUE(result.stabilised) << "m=|F|+" << extra;
    EXPECT_EQ(result.output, extra >= 2) << "m=|F|+" << extra;
  }
}

TEST(PipelineBroadcast, WindowProgramSimulatedWhereObservable) {
  // Program-level predicate with an upper threshold: 4 <= m_regs < 7
  // through the whole pipeline. Randomized simulation can observe the
  // accept case (m_regs = 5) and the below-threshold reject (m_regs = 2).
  // The above-threshold reject (m_regs >= 7) needs seven *consecutive*
  // occupancy-certifying meetings whose probability is astronomically small
  // under the uniform scheduler — it is checked exhaustively below instead.
  const LoweredMachine lowered =
      lower_program(progmodel::make_figure1_program());
  const ProtocolConversion conv = machine_to_protocol(lowered.machine);
  pp::SimulationOptions options;
  options.stable_window = 30'000'000;
  options.max_interactions = 600'000'000;
  for (std::uint32_t m_regs : {2u, 5u}) {
    pp::Simulator sim(conv.protocol,
                      conv.initial_config(conv.num_pointers + m_regs),
                      3 + m_regs);
    const auto result = sim.run_until_stable(options);
    ASSERT_TRUE(result.stabilised) << "m_regs=" << m_regs;
    EXPECT_EQ(result.output, m_regs >= 4 && m_regs < 7)
        << "m_regs=" << m_regs;
  }
}

TEST(PipelineBroadcast, WindowProgramUpperRejectExhaustive) {
  // The fair-run property simulation cannot observe: with m_regs = 7 the
  // converted protocol *does* stabilise to false (every bottom SCC rejects).
  const LoweredMachine lowered =
      lower_program(progmodel::make_figure1_program());
  ConversionOptions nb;
  nb.with_broadcast = false;
  const ProtocolConversion conv = machine_to_protocol(lowered.machine, nb);
  std::vector<std::uint64_t> regs = {0, 0, 7};
  const MachineState state = machine::initial_state(lowered.machine, regs);
  VerifierOptions options;
  options.witness_mode = true;
  options.max_configs = 4'000'000;
  const VerificationResult result =
      Verifier(conv.protocol).verify(conv.pi(state, false), options);
  ASSERT_TRUE(result.stabilises());
  EXPECT_FALSE(result.output());
}

}  // namespace
}  // namespace ppde::compile
