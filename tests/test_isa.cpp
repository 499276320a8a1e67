// Tests for the bytecode execution core (DESIGN.md S26): lowering
// round-trips through raw()/adopt(), malformed tables are rejected, and —
// the load-bearing property — every production core fed by the compiled
// tables produces bit-identical trajectories, metrics, verification graphs
// and certificate digests to the reference implementations in
// tests/oracles.hpp, which read only Protocol::transitions().
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "baselines/flock.hpp"
#include "baselines/majority.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/count_sim.hpp"
#include "isa/compiled.hpp"
#include "machine/interp.hpp"
#include "pp/simulator.hpp"
#include "pp/verifier.hpp"
#include "smc/certify.hpp"
#include "smc/json.hpp"
#include "oracles.hpp"

namespace ppde {
namespace {

using isa::CompiledProtocol;

// ---------------------------------------------------------------------------
// Zoo.

pp::Protocol czerner_protocol(int n) {
  const auto lowered = compile::lower_program(czerner::build_construction(n).program);
  return compile::machine_to_protocol(lowered.machine).protocol;
}

/// Ring protocol over `n` states: (i, i) -> (i, i+1 mod n). Every state is
/// populated from a uniform start, so with n > 64 the count engine's
/// matrix fast path cannot hold the populated set and the general path
/// runs; with n large enough the compiler also picks the perfect-hash
/// lookup over the dense table.
pp::Protocol make_ring(std::uint32_t n) {
  pp::Protocol protocol;
  for (std::uint32_t i = 0; i < n; ++i)
    protocol.add_state("s" + std::to_string(i));
  for (std::uint32_t i = 0; i < n; ++i) {
    protocol.mark_input(i);
    if (i % 2 == 0) protocol.mark_accepting(i);
    protocol.add_transition(i, i, i, (i + 1) % n);
  }
  protocol.finalize();
  return protocol;
}

pp::Config uniform_initial(const pp::Protocol& protocol, std::uint32_t per) {
  pp::Config config(protocol.num_states());
  for (pp::State q = 0; q < protocol.num_states(); ++q) config.add(q, per);
  return config;
}

/// The counters both a production core and its oracle keep.
void expect_metrics_equal(const engine::RunMetrics& a,
                          const engine::RunMetrics& b) {
  EXPECT_EQ(a.meetings, b.meetings);
  EXPECT_EQ(a.firings, b.firings);
  EXPECT_EQ(a.null_skip_batches, b.null_skip_batches);
  EXPECT_EQ(a.skipped_meetings, b.skipped_meetings);
  EXPECT_EQ(a.consensus_flips, b.consensus_flips);
}

pp::Config czerner_initial(std::uint32_t extra) {
  const auto conv = compile::machine_to_protocol(
      compile::lower_program(czerner::build_construction(1).program).machine);
  return conv.initial_config(conv.num_pointers + extra);
}

// ---------------------------------------------------------------------------
// Lowering.

/// The compiled pair table must agree with the protocol's own transition
/// list: for every ordered state pair, entry_of resolves to exactly the
/// non-silent transitions of that pair, in declaration order.
void expect_table_matches_transitions(const pp::Protocol& protocol) {
  const CompiledProtocol& compiled = protocol.compiled();
  std::map<std::pair<pp::State, pp::State>, std::vector<std::uint32_t>> want;
  std::map<std::pair<pp::State, pp::State>, bool> silent;
  for (std::uint32_t i = 0; i < protocol.transitions().size(); ++i) {
    const pp::Transition& t = protocol.transitions()[i];
    if (t.q2 == t.q && t.r2 == t.r)
      silent[{t.q, t.r}] = true;
    else
      want[{t.q, t.r}].push_back(i);
  }
  for (pp::State q = 0; q < protocol.num_states(); ++q) {
    for (pp::State r = 0; r < protocol.num_states(); ++r) {
      const std::uint32_t entry = compiled.entry_of(q, r);
      const auto it = want.find({q, r});
      if (it == want.end()) {
        if (silent.count({q, r}))
          EXPECT_EQ(entry, CompiledProtocol::kSilentOnly);
        else
          EXPECT_EQ(entry, CompiledProtocol::kAbsent);
        continue;
      }
      ASSERT_LT(entry, CompiledProtocol::kSilentOnly);
      const auto candidates = compiled.candidates(entry);
      ASSERT_EQ(candidates.size(), it->second.size());
      const auto cells = compiled.cells(entry);
      ASSERT_EQ(cells.size(), it->second.size());
      for (std::size_t k = 0; k < candidates.size(); ++k) {
        EXPECT_EQ(candidates[k], it->second[k]);
        const pp::Transition& t = protocol.transitions()[candidates[k]];
        // The cell's post-states reconstruct the transition regardless of
        // which opcode the classifier picked.
        std::uint32_t q2 = q, r2 = r;
        switch (cells[k].op()) {
          case isa::Op::kNop: break;
          case isa::Op::kWriteQ: q2 = cells[k].q2; break;
          case isa::Op::kWriteR: r2 = cells[k].r2; break;
          case isa::Op::kWriteBoth: q2 = cells[k].q2; r2 = cells[k].r2; break;
          case isa::Op::kSwap: q2 = r; r2 = q; break;
          default: FAIL() << "bad opcode";
        }
        EXPECT_EQ(q2, t.q2);
        EXPECT_EQ(r2, t.r2);
        const std::int32_t want_delta =
            (protocol.is_accepting(t.q2) ? 1 : 0) -
            (protocol.is_accepting(t.q) ? 1 : 0) +
            (protocol.is_accepting(t.r2) ? 1 : 0) -
            (protocol.is_accepting(t.r) ? 1 : 0);
        EXPECT_EQ(cells[k].accepting_delta(), want_delta);
      }
    }
  }
}

TEST(CompiledProtocol, TableMatchesTransitionList) {
  expect_table_matches_transitions(baselines::make_majority());
  expect_table_matches_transitions(baselines::make_flock_of_birds(3));
  expect_table_matches_transitions(czerner_protocol(1));
  expect_table_matches_transitions(make_ring(5));
}

TEST(CompiledProtocol, MarksExactlyTheNonSilentPairs) {
  const pp::Protocol majority = baselines::make_majority();
  const CompiledProtocol& compiled = majority.compiled();
  const pp::State big_a = majority.state("A");
  const pp::State big_b = majority.state("B");
  const pp::State small_a = majority.state("a");
  const pp::State small_b = majority.state("b");
  EXPECT_EQ(compiled.num_active_pairs(), 4u);
  EXPECT_EQ(compiled.partners_of(big_a).size(), 2u);  // B and b
  EXPECT_EQ(compiled.partners_of(big_b).size(), 1u);  // a
  EXPECT_EQ(compiled.partners_of(small_a).size(), 1u);  // b
  EXPECT_EQ(compiled.partners_of(small_b).size(), 0u);
  EXPECT_EQ(compiled.initiators_meeting(small_b).size(), 2u);  // A and a
  for (pp::State q : {big_a, big_b, small_a, small_b})
    EXPECT_FALSE(compiled.self_active(q));
}

TEST(CompiledProtocol, AllSilentPairsAreNull) {
  pp::Protocol protocol;
  const pp::State x = protocol.add_state("x");
  const pp::State y = protocol.add_state("y");
  protocol.mark_accepting(x);
  protocol.add_transition(x, y, x, y);  // silent: cannot change anything
  protocol.finalize();
  EXPECT_EQ(protocol.compiled().num_active_pairs(), 0u);
}

TEST(CompiledProtocol, LargeProtocolsUsePerfectHash) {
  // 600 states: the dense table would cost 600^2 * 4 bytes = 1.44 MB,
  // far past both dense admission criteria, so compile() must fall back
  // to the perfect hash — and the table must still resolve every pair.
  const pp::Protocol ring = make_ring(600);
  EXPECT_TRUE(ring.compiled().raw().dense.empty());
  EXPECT_FALSE(ring.compiled().raw().ph_key.empty());
  expect_table_matches_transitions(ring);

  const pp::Protocol majority = baselines::make_majority();
  EXPECT_FALSE(majority.compiled().raw().dense.empty());
}

TEST(CompiledProtocol, RawTablesRoundTripThroughAdopt) {
  for (const pp::Protocol& protocol :
       {baselines::make_majority(), czerner_protocol(1), make_ring(600)}) {
    const CompiledProtocol& original = protocol.compiled();
    const auto readopted = CompiledProtocol::adopt(original.raw());
    ASSERT_NE(readopted, nullptr);
    for (pp::State q = 0; q < protocol.num_states(); ++q) {
      for (pp::State r = 0; r < protocol.num_states(); ++r) {
        const std::uint32_t entry = original.entry_of(q, r);
        ASSERT_EQ(readopted->entry_of(q, r), entry);
        if (entry >= CompiledProtocol::kSilentOnly) continue;
        const auto a = original.candidates(entry);
        const auto b = readopted->candidates(entry);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
      }
    }
  }
}

TEST(CompiledProtocol, AdoptRejectsMalformedTables) {
  const pp::Protocol majority = baselines::make_majority();
  const CompiledProtocol::RawTables good = majority.compiled().raw();

  {  // Bad opcode.
    CompiledProtocol::RawTables bad = good;
    ASSERT_FALSE(bad.cells.empty());
    bad.cells[0].meta = isa::Cell::pack_meta(isa::Op::kNumOps, 0);
    EXPECT_THROW((void)CompiledProtocol::adopt(std::move(bad)),
                 std::invalid_argument);
  }
  {  // Post-state out of range.
    CompiledProtocol::RawTables bad = good;
    bad.cells[0].q2 = bad.num_states + 7;
    bad.cells[0].meta = isa::Cell::pack_meta(isa::Op::kWriteQ, 0);
    EXPECT_THROW((void)CompiledProtocol::adopt(std::move(bad)),
                 std::invalid_argument);
  }
  {  // Accepting delta outside [-2, 2].
    CompiledProtocol::RawTables bad = good;
    bad.cells[0].meta =
        isa::Cell::pack_meta(bad.cells[0].op(), 3);
    EXPECT_THROW((void)CompiledProtocol::adopt(std::move(bad)),
                 std::invalid_argument);
  }
  {  // Truncated candidate stream breaks the CSR.
    CompiledProtocol::RawTables bad = good;
    ASSERT_FALSE(bad.cand_flat.empty());
    bad.cand_flat.pop_back();
    bad.cells.pop_back();
    EXPECT_THROW((void)CompiledProtocol::adopt(std::move(bad)),
                 std::invalid_argument);
  }
  {  // Dense table of the wrong size.
    CompiledProtocol::RawTables bad = good;
    ASSERT_FALSE(bad.dense.empty());
    bad.dense.pop_back();
    EXPECT_THROW((void)CompiledProtocol::adopt(std::move(bad)),
                 std::invalid_argument);
  }
  {  // Both lookup strategies at once.
    CompiledProtocol::RawTables bad = good;
    bad.ph_disp.assign(1, 0);
    bad.ph_key.assign(2, ~std::uint64_t{0});
    bad.ph_entry.assign(2, CompiledProtocol::kAbsent);
    EXPECT_THROW((void)CompiledProtocol::adopt(std::move(bad)),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Differential: per-agent simulator against the map stepper.

void expect_per_agent_bit_identical(const pp::Protocol& protocol,
                                    const pp::Config& initial,
                                    std::uint64_t steps) {
  oracle::MapStepper reference(protocol, initial, 99);
  pp::Simulator bytecode(protocol, initial, 99);
  for (std::uint64_t i = 0; i < steps; ++i) {
    ASSERT_EQ(reference.step(), bytecode.step()) << "step " << i;
    ASSERT_EQ(reference.accepting_agents(), bytecode.accepting_agents())
        << "step " << i;
    if (i % 512 == 0) {
      ASSERT_EQ(reference.config(), bytecode.config()) << "step " << i;
    }
  }
  EXPECT_EQ(reference.config(), bytecode.config());
  expect_metrics_equal(reference.metrics(), bytecode.metrics());
}

TEST(Differential, PerAgentTrajectoriesBitIdentical) {
  const pp::Protocol majority = baselines::make_majority();
  expect_per_agent_bit_identical(
      majority, baselines::majority_initial(majority, 30, 28), 20'000);

  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  expect_per_agent_bit_identical(flock, baselines::flock_initial(flock, 8),
                                 20'000);

  const pp::Protocol czerner = czerner_protocol(1);
  expect_per_agent_bit_identical(czerner, czerner_initial(4), 20'000);
}

// ---------------------------------------------------------------------------
// Differential: count engine against the linear-scan oracle.

void expect_count_bit_identical(const pp::Protocol& protocol,
                                const pp::Config& initial,
                                std::uint64_t steps) {
  oracle::LinearScanOracle reference(protocol, initial, 7);
  engine::CountSimulator bytecode(protocol, initial, 7);
  for (std::uint64_t i = 0; i < steps && !bytecode.frozen(); ++i) {
    ASSERT_EQ(reference.step(), bytecode.step()) << "step " << i;
    ASSERT_EQ(reference.interactions(), bytecode.interactions())
        << "step " << i;
    if (i % 512 == 0) {
      ASSERT_EQ(reference.config(), bytecode.config()) << "step " << i;
    }
  }
  EXPECT_EQ(reference.config(), bytecode.config());
  expect_metrics_equal(reference.metrics(), bytecode.metrics());
}

TEST(Differential, CountEngineBitIdenticalWithNullSkip) {
  const pp::Protocol majority = baselines::make_majority();
  expect_count_bit_identical(
      majority, baselines::majority_initial(majority, 500, 480), 50'000);
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  expect_count_bit_identical(flock, baselines::flock_initial(flock, 60),
                             50'000);
  const pp::Protocol czerner = czerner_protocol(1);
  expect_count_bit_identical(czerner, czerner_initial(6), 50'000);
}

TEST(Differential, CountEngineBeyondMatrixCapacity) {
  // 100 populated states exceed the 64-slot activity matrix, forcing the
  // engine's general selection paths; 600 states also puts the pair probe
  // on the perfect-hash lookup — for the per-agent core as well.
  const pp::Protocol small_ring = make_ring(100);
  expect_count_bit_identical(small_ring, uniform_initial(small_ring, 3),
                             30'000);
  const pp::Protocol big_ring = make_ring(600);
  ASSERT_FALSE(big_ring.compiled().dense_lookup());
  expect_count_bit_identical(big_ring, uniform_initial(big_ring, 2), 10'000);
  expect_per_agent_bit_identical(big_ring, uniform_initial(big_ring, 2),
                                 20'000);
}

TEST(Differential, SilentOnlyPairsAreNullInBothModes) {
  // (a, b) has only the identity transition: the meeting must never fire,
  // neither in the production cores nor in the oracles, and trajectories
  // must stay aligned.
  pp::Protocol protocol;
  const pp::State a = protocol.add_state("a");
  const pp::State b = protocol.add_state("b");
  protocol.mark_input(a);
  protocol.mark_input(b);
  protocol.mark_accepting(a);
  protocol.add_transition(a, b, a, b);  // silent
  protocol.add_transition(b, a, a, a);
  protocol.finalize();
  EXPECT_EQ(protocol.compiled().entry_of(a, b), CompiledProtocol::kSilentOnly);
  EXPECT_TRUE(protocol.transitions_for(a, b).empty());
  EXPECT_TRUE(oracle::TransitionMap(protocol).candidates(a, b).empty());

  pp::Config initial(protocol.num_states());
  initial.add(a, 5);
  initial.add(b, 5);
  expect_per_agent_bit_identical(protocol, initial, 2'000);
  expect_count_bit_identical(protocol, initial, 2'000);
}

// ---------------------------------------------------------------------------
// Differential: exact verification against the sequential explorer.

TEST(Differential, VerifierGraphIdenticalAcrossDispatch) {
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  compile::ConversionOptions nb;
  nb.with_broadcast = false;
  const auto conv = compile::machine_to_protocol(lowered.machine, nb);
  const czerner::Construction c = czerner::build_construction(1);
  // m_regs = 2 is ~38k configurations: seconds for the map-based oracle.
  for (std::uint64_t m_regs : {1ull, 2ull}) {
    std::vector<std::uint64_t> regs(c.num_registers(), 0);
    regs[c.R()] = m_regs;
    const pp::Config initial =
        conv.pi(machine::initial_state(lowered.machine, regs), false);
    const oracle::VerifyResult expected =
        oracle::oracle_verify(conv.protocol, initial, true, 1'000'000);
    for (const unsigned threads : {1u, 4u}) {
      pp::VerifierOptions options;
      options.witness_mode = true;
      options.threads = threads;
      const pp::VerificationResult actual =
          pp::Verifier(conv.protocol).verify(initial, options);
      EXPECT_EQ(actual.verdict, expected.verdict) << "m=" << m_regs;
      EXPECT_EQ(actual.explored_configs, expected.nodes) << "m=" << m_regs;
      EXPECT_EQ(actual.explored_edges, expected.edges) << "m=" << m_regs;
      EXPECT_EQ(actual.num_sccs, expected.num_sccs) << "m=" << m_regs;
      EXPECT_EQ(actual.num_bottom_sccs, expected.num_bottom_sccs)
          << "m=" << m_regs;
      EXPECT_EQ(actual.counterexample, expected.counterexample)
          << "m=" << m_regs;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: certification against oracle-run trials.

TEST(Differential, CertificateDigestIdenticalAcrossDispatchAndThreads) {
  const pp::Protocol protocol = czerner_protocol(1);
  const pp::Config initial = czerner_initial(2);
  smc::CertifyOptions options;
  options.max_trials = 12;
  options.seed = 3;
  options.sim.stable_window = 2'000'000;
  options.sim.max_interactions = 40'000'000;
  const smc::Certificate reference = oracle::oracle_certify(
      protocol, initial, /*expected_output=*/false, options);
  EXPECT_EQ(reference.trials, 12u);
  for (const unsigned threads : {1u, 3u, 4u}) {
    options.threads = threads;
    const smc::Certificate cert =
        smc::certify(protocol, initial, /*expected_output=*/false, options);
    EXPECT_EQ(smc::certificate_payload(cert),
              smc::certificate_payload(reference))
        << "threads=" << threads;
    EXPECT_EQ(smc::certificate_digest(cert),
              smc::certificate_digest(reference))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ppde
