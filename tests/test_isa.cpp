// Tests for the compiled protocol (DESIGN.md S26): the pair index and cells
// agree with the transition list, lowering round-trips through
// raw()/adopt(), malformed tables are refused, and — the load-bearing
// property — every production core fed by the compiled tables produces
// bit-identical trajectories, metrics, verification graphs and certificate
// digests to the reference implementations in tests/oracles.hpp, which read
// only Protocol::transitions().
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
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

pp::Protocol czerner_protocol(int n, bool with_broadcast = true) {
  const auto lowered = compile::lower_program(czerner::build_construction(n).program);
  compile::ConversionOptions options;
  options.with_broadcast = with_broadcast;
  return compile::machine_to_protocol(lowered.machine, options).protocol;
}

/// Ring protocol over `n` states: (i, i) -> (i, i+1 mod n). Every state is
/// populated from a uniform start, so with n > 64 the count engine's
/// matrix fast path cannot hold the populated set and the general path
/// runs.
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

/// Bit `i` of a compiled bit row.
bool row_bit(std::span<const std::uint64_t> row, pp::State i) {
  return (row[i / 64] >> (i % 64)) & 1;
}

/// The compiled tables must agree with the protocol's own transition list,
/// read through oracle::TransitionMap: for every ordered state pair,
/// pair_active says whether it has a non-silent transition, entry_of counts
/// the active pairs before it in (q, r) order, and its cells are those
/// transitions' post-states in declaration order; the activity rows hold
/// the map's partner lists, the transposed rows its initiator lists, and
/// the self flags follow.
void expect_table_matches_transitions(const pp::Protocol& protocol) {
  const CompiledProtocol& compiled = protocol.compiled();
  const oracle::TransitionMap map(protocol);
  const auto listed = [](const std::vector<pp::State>& list, pp::State s) {
    return std::binary_search(list.begin(), list.end(), s);
  };
  std::uint32_t position = 0;
  for (pp::State q = 0; q < protocol.num_states(); ++q) {
    ASSERT_EQ(compiled.self_active(q), map.self_active(q)) << "q=" << q;
    for (pp::State r = 0; r < protocol.num_states(); ++r) {
      ASSERT_EQ(row_bit(compiled.active_row(q), r),
                listed(map.partners_of(q), r))
          << "q=" << q << " r=" << r;
      ASSERT_EQ(row_bit(compiled.in_row(r), q),
                listed(map.initiators_meeting(r), q))
          << "q=" << q << " r=" << r;
      const std::vector<std::uint32_t>& want = map.candidates(q, r);
      ASSERT_EQ(compiled.pair_active(q, r), !want.empty())
          << "q=" << q << " r=" << r;
      if (want.empty()) continue;
      ASSERT_EQ(compiled.entry_of(q, r), position++)
          << "q=" << q << " r=" << r;
      const auto cells = compiled.cells(compiled.entry_of(q, r));
      ASSERT_EQ(cells.size(), want.size()) << "q=" << q << " r=" << r;
      for (std::size_t k = 0; k < cells.size(); ++k) {
        const pp::Transition& t = protocol.transitions()[want[k]];
        EXPECT_EQ(cells[k], (isa::Cell{t.q2, t.r2}))
            << "q=" << q << " r=" << r << " k=" << k;
      }
    }
  }
  EXPECT_EQ(compiled.num_active_pairs(), position);
}

TEST(CompiledProtocol, TableMatchesTransitionList) {
  expect_table_matches_transitions(baselines::make_flock_of_birds(3));
  expect_table_matches_transitions(make_ring(5));
}

TEST(CompiledProtocol, PairIndexMatchesTransitionMap) {
  // Rings around the 64-state row-word edges, up to ten words per row.
  for (const std::uint32_t n : {63u, 64u, 65u, 128u, 129u, 600u}) {
    SCOPED_TRACE("ring " + std::to_string(n));
    expect_table_matches_transitions(make_ring(n));
  }
  expect_table_matches_transitions(baselines::make_majority());
  expect_table_matches_transitions(baselines::make_flock_of_birds(64));
  expect_table_matches_transitions(czerner_protocol(1, true));
  expect_table_matches_transitions(czerner_protocol(1, false));
}

TEST(CompiledProtocol, MarksExactlyTheNonSilentPairs) {
  const pp::Protocol majority = baselines::make_majority();
  const CompiledProtocol& compiled = majority.compiled();
  const pp::State big_a = majority.state("A");
  const pp::State big_b = majority.state("B");
  const pp::State small_a = majority.state("a");
  const pp::State small_b = majority.state("b");
  const auto bits = [](std::span<const std::uint64_t> row) {
    int count = 0;
    for (const std::uint64_t word : row) count += std::popcount(word);
    return count;
  };
  EXPECT_EQ(compiled.num_active_pairs(), 4u);
  EXPECT_EQ(bits(compiled.active_row(big_a)), 2);    // B and b
  EXPECT_EQ(bits(compiled.active_row(big_b)), 1);    // a
  EXPECT_EQ(bits(compiled.active_row(small_a)), 1);  // b
  EXPECT_EQ(bits(compiled.active_row(small_b)), 0);
  EXPECT_EQ(bits(compiled.in_row(small_b)), 2);  // A and a
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
  EXPECT_FALSE(protocol.compiled().pair_active(x, y));
}

TEST(CompiledProtocol, RawTablesRoundTripThroughAdopt) {
  for (const pp::Protocol& protocol :
       {baselines::make_majority(), czerner_protocol(1), make_ring(600)}) {
    const CompiledProtocol& original = protocol.compiled();
    const auto readopted = CompiledProtocol::adopt(original.raw());
    ASSERT_NE(readopted, nullptr);
    for (pp::State q = 0; q < protocol.num_states(); ++q) {
      for (pp::State r = 0; r < protocol.num_states(); ++r) {
        ASSERT_EQ(readopted->pair_active(q, r), original.pair_active(q, r));
        if (!original.pair_active(q, r)) continue;
        ASSERT_EQ(readopted->entry_of(q, r), original.entry_of(q, r));
        ASSERT_TRUE(std::ranges::equal(
            readopted->cells(readopted->entry_of(q, r)),
            original.cells(original.entry_of(q, r))));
      }
    }
  }
}

/// adopt() must refuse `bad`, naming the broken invariant.
void expect_refused(CompiledProtocol::RawTables bad, const std::string& why) {
  try {
    (void)CompiledProtocol::adopt(std::move(bad));
    ADD_FAILURE() << "adopted tables with " << why;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

/// {(a, b) -> (a, a), (b, a) -> (b, b)}: each state meets the other.
pp::Protocol make_two_way_epidemic() {
  pp::Protocol protocol;
  const pp::State a = protocol.add_state("a");
  const pp::State b = protocol.add_state("b");
  protocol.add_transition(a, b, a, a);
  protocol.add_transition(b, a, b, b);
  protocol.finalize();
  return protocol;
}

TEST(CompiledProtocol, AdoptRejectsMalformedTables) {
  const pp::Protocol majority = baselines::make_majority();
  const CompiledProtocol::RawTables good = majority.compiled().raw();
  {  // Post-state out of range.
    CompiledProtocol::RawTables bad = good;
    ASSERT_FALSE(bad.cells.empty());
    bad.cells[0].q2 = bad.num_states + 7;
    expect_refused(std::move(bad), "post-state out of range");
  }
  {  // Truncated candidate stream breaks the CSR.
    CompiledProtocol::RawTables bad = good;
    bad.cells.pop_back();
    expect_refused(std::move(bad), "malformed cand CSR");
  }
  {  // One flipped bit in a transposed row.
    CompiledProtocol::RawTables bad = good;
    bad.in_bits[0] ^= 1;
    expect_refused(std::move(bad), "transposed rows disagree");
  }
  {  // A partner beyond the last state, in the row's padding bits.
    CompiledProtocol::RawTables bad = good;
    bad.active_bits[0] |= std::uint64_t{1} << bad.num_states;
    expect_refused(std::move(bad), "partner out of range");
  }
  // Each retired adjacency CSR, non-empty.
  const auto refuse = [&](auto fill) {
    CompiledProtocol::RawTables bad = good;
    fill(bad);
    expect_refused(std::move(bad), "retired table not empty");
  };
  refuse([](auto& t) { t.out_begin.assign(t.num_states + 1, 0); });
  refuse([](auto& t) { t.out_flat.assign(1, 0); });
  refuse([](auto& t) { t.in_begin.assign(t.num_states + 1, 0); });
  refuse([](auto& t) { t.in_flat.assign(1, 0); });
}

TEST(CompiledProtocol, AdoptRefusesAnInCsrThatIsNotTheTranspose) {
  // Both transposed rows keep one in-range bit each, but name the wrong
  // initiator: in_row(a) would answer {a} instead of {b}.
  CompiledProtocol::RawTables bad = make_two_way_epidemic().compiled().raw();
  ASSERT_EQ(bad.in_bits, (std::vector<std::uint64_t>{2, 1}));
  bad.in_bits = {1, 2};
  expect_refused(std::move(bad), "transposed rows disagree");
}

TEST(CompiledProtocol, AdoptRefusesActivityRowsOffTheCandidateCsr) {
  // Activity rows with one pair too many, every derived table re-derived
  // to match them: only the candidate CSR, still covering two pairs, can
  // tell.
  CompiledProtocol::RawTables bad = make_two_way_epidemic().compiled().raw();
  bad.active_bits[0] |= 1;  // (a, a) is not active
  bad.in_bits[0] |= 1;
  bad.self_active[0] = 1;
  ASSERT_EQ(bad.rank_base, (std::vector<std::uint32_t>{0, 1}));
  bad.rank_base[1] = 2;
  expect_refused(std::move(bad), "malformed cand CSR");
}

TEST(CompiledProtocol, AdoptRefusesAWrongRankBase) {
  CompiledProtocol::RawTables bad = make_ring(129).compiled().raw();
  ++bad.rank_base[1];
  expect_refused(std::move(bad), "wrong rank base");
}

TEST(CompiledProtocol, AdoptRefusesSelfActiveOffTheDiagonal) {
  CompiledProtocol::RawTables bad = make_two_way_epidemic().compiled().raw();
  bad.self_active[0] = 1;
  expect_refused(std::move(bad), "self_active disagrees");
}

TEST(CompiledProtocol, AdoptRefusesACellThatChangesNothing) {
  CompiledProtocol::RawTables bad = make_two_way_epidemic().compiled().raw();
  bad.cells[0] = {0, 1};  // pair position 0 is (a, b)
  expect_refused(std::move(bad), "leaves its pair unchanged");
}

TEST(CompiledProtocol, AdoptRefusesRetiredTables) {
  const CompiledProtocol::RawTables good =
      make_two_way_epidemic().compiled().raw();
  const auto refuse = [&](auto fill) {
    CompiledProtocol::RawTables bad = good;
    fill(bad);
    expect_refused(std::move(bad), "retired table not empty");
  };
  refuse([](auto& t) { t.dense.assign(4, 0); });
  refuse([](auto& t) { t.ph_disp.assign(1, 0); });
  refuse([](auto& t) { t.ph_key.assign(2, 0); });
  refuse([](auto& t) { t.ph_entry.assign(2, 0); });
  refuse([](auto& t) { t.any_bits.assign(1, 0); });
  refuse([](auto& t) { t.cand_flat.assign(2, 0); });
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
  // engine's general selection paths; at 600 states each activity row
  // spans ten words — for the per-agent core as well.
  const pp::Protocol small_ring = make_ring(100);
  expect_count_bit_identical(small_ring, uniform_initial(small_ring, 3),
                             30'000);
  const pp::Protocol big_ring = make_ring(600);
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
  EXPECT_FALSE(protocol.compiled().pair_active(a, b));
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
