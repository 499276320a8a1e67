// Tests for the parallel state-space verification kernel (DESIGN.md S22)
// and the layers rewired onto it.
//
// The heart is a differential suite against a *pre-refactor oracle*: a
// straight reimplementation of the classic sequential explorer (hash-map
// interner, expand-in-discovery-order, Tarjan + bottom-SCC sweep) that the
// three per-layer explorers used before the kernel existed. The kernel's
// wave discipline must reproduce it byte-for-byte — same node ids, same
// SCC counts, same counterexample configuration — at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/reachability.hpp"
#include "baselines/majority.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/pool.hpp"
#include "obs/registry.hpp"
#include "machine/interp.hpp"
#include "pp/config_domain.hpp"
#include "pp/verifier.hpp"
#include "progmodel/explore.hpp"
#include "progmodel/flat.hpp"
#include "progmodel/sample_programs.hpp"
#include "support/rng.hpp"
#include "support/scc.hpp"
#include "verify/interner.hpp"
#include "verify/kernel.hpp"
#include "oracles.hpp"

namespace ppde {
namespace {

using u32 = std::uint32_t;
using u64 = std::uint64_t;

// ---------------------------------------------------------------------------
// WorkerPool

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    engine::WorkerPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for_workers(hits.size(),
                              [&](unsigned, u64 i) { hits[i].fetch_add(1); });
    for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
  }
}

TEST(WorkerPool, ReusableAcrossCalls) {
  engine::WorkerPool pool(4);
  std::atomic<u64> sum{0};
  for (int round = 0; round < 50; ++round)
    pool.parallel_for_workers(10, [&](unsigned, u64 i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 50u * 45u);
}

TEST(WorkerPool, EmptyRangeIsANoOp) {
  engine::WorkerPool pool(4);
  pool.parallel_for_workers(
      0, [&](unsigned, u64) { FAIL() << "body must not run"; });
}

TEST(WorkerPool, RethrowsTheFirstException) {
  engine::WorkerPool pool(4);
  EXPECT_THROW(pool.parallel_for_workers(100,
                                         [&](unsigned, u64 i) {
                                           if (i % 10 == 3)
                                             throw std::runtime_error("boom");
                                         }),
               std::runtime_error);
  // The pool must survive a throwing batch.
  std::atomic<int> ran{0};
  pool.parallel_for_workers(8, [&](unsigned, u64) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

// ---------------------------------------------------------------------------
// Interner

TEST(Interner, InternFindRoundTrip) {
  verify::Interner interner;
  const std::vector<u64> a = {1, 2, 3};
  const std::vector<u64> b = {1, 2, 4};
  const u64 ha = verify::hash_words(a);
  const u64 hb = verify::hash_words(b);
  EXPECT_EQ(interner.find(a, ha), verify::Interner::kNotFound);
  EXPECT_EQ(interner.intern(a, ha), (std::pair<u32, bool>{0, true}));
  EXPECT_EQ(interner.intern(b, hb), (std::pair<u32, bool>{1, true}));
  EXPECT_EQ(interner.intern(a, ha), (std::pair<u32, bool>{0, false}));
  EXPECT_EQ(interner.find(a, ha), 0u);
  EXPECT_EQ(interner.find(b, hb), 1u);
  EXPECT_EQ(interner.size(), 2u);
  const std::span<const u64> stored = interner.state(1);
  EXPECT_EQ(std::vector<u64>(stored.begin(), stored.end()), b);
}

TEST(Interner, SurvivesGrowthWithManyKeys) {
  verify::Interner interner;
  constexpr u32 kKeys = 50'000;
  for (u32 i = 0; i < kKeys; ++i) {
    const std::vector<u64> key = {i, i * 31 + 7, i % 5};
    EXPECT_EQ(interner.intern(key, verify::hash_words(key)).first, i);
  }
  EXPECT_EQ(interner.size(), kKeys);
  for (u32 i = 0; i < kKeys; i += 997) {
    const std::vector<u64> key = {i, i * 31 + 7, i % 5};
    EXPECT_EQ(interner.find(key, verify::hash_words(key)), i);
  }
  EXPECT_GT(interner.bytes(), kKeys * 3 * sizeof(u64));
}

TEST(Interner, StateSpansSurviveLaterInterns) {
  // The arena grows by new chunks, never by moving old words, so a span
  // taken early still points at the same words after many more interns.
  verify::Interner interner;
  const std::vector<u64> first = {7, 8, 9};
  interner.intern(first, verify::hash_words(first));
  const std::span<const u64> early = interner.state(0);
  for (u32 i = 0; i < 200'000; ++i) {
    const std::vector<u64> key = {i, i + 1, i + 2, i + 3};
    interner.intern(key, verify::hash_words(key));
  }
  EXPECT_EQ(interner.state(0).data(), early.data());
  EXPECT_EQ(std::vector<u64>(early.begin(), early.end()), first);
}

TEST(Interner, DistinguishesLengths) {
  verify::Interner interner;
  const std::vector<u64> shorter = {5};
  const std::vector<u64> longer = {5, 0};
  interner.intern(shorter, verify::hash_words(shorter));
  EXPECT_EQ(interner.find(longer, verify::hash_words(longer)),
            verify::Interner::kNotFound);
}

TEST(Interner, ReleasedIndexKeepsStatesReadableById) {
  verify::Interner interner;
  constexpr u32 kKeys = 5'000;
  for (u32 i = 0; i < kKeys; ++i) {
    const std::vector<u64> key = {i, i * 7};
    interner.intern(key, verify::hash_words(key));
  }
  const u64 indexed = interner.bytes();
  interner.release_index();
  EXPECT_EQ(interner.size(), kKeys);
  // Only the arena words and the node handles are left.
  EXPECT_EQ(interner.bytes(), u64{kKeys} * 3 * sizeof(u64));
  EXPECT_LT(interner.bytes(), indexed);
  for (u32 i = 0; i < kKeys; ++i) {
    const std::span<const u64> state = interner.state(i);
    ASSERT_EQ(std::vector<u64>(state.begin(), state.end()),
              (std::vector<u64>{i, i * 7}));
  }
}

// ---------------------------------------------------------------------------
// The verifier's configuration codec (pp/config_domain.hpp)

/// Bits of the codec's layout for `sparse`: per occupied state its id and a
/// flag bit, and count - 2 after a state that holds two or more agents.
u64 layout_bits(const std::vector<u64>& sparse, std::size_t num_states,
                u64 population) {
  const unsigned state_bits =
      num_states > 1 ? std::bit_width(num_states - 1) : 0;
  const unsigned count_bits =
      population > 2 ? std::bit_width(population - 2) : 0;
  u64 bits = 0;
  for (const u64 entry : sparse)
    bits += state_bits + 1 + (pp::sparse_count(entry) >= 2 ? count_bits : 0);
  return bits;
}

/// Sparse configurations of `population` agents over `num_states` states:
/// all in the first state, all in the last, every agent alone (round robin
/// once the states run out), and seeded random spreads over every state
/// and over three.
std::vector<std::vector<u64>> codec_cases(std::size_t num_states,
                                          u64 population,
                                          support::Rng& rng) {
  std::vector<std::vector<u32>> dense(5, std::vector<u32>(num_states, 0));
  const std::vector<u64> three = {rng.below(num_states),
                                  rng.below(num_states),
                                  rng.below(num_states)};
  for (u64 agent = 0; agent < population; ++agent) {
    ++dense[0][0];
    ++dense[1][num_states - 1];
    ++dense[2][agent % num_states];
    ++dense[3][rng.below(num_states)];
    ++dense[4][three[rng.below(3)]];
  }
  std::vector<std::vector<u64>> cases;
  for (const std::vector<u32>& counts : dense) {
    std::vector<u64> sparse;
    for (pp::State q = 0; q < num_states; ++q)
      if (counts[q] != 0) sparse.push_back(pp::sparse_entry(q, counts[q]));
    cases.push_back(std::move(sparse));
  }
  return cases;
}

TEST(ConfigCodec, RoundTripsEveryShapeCanonically) {
  // |Q| = 1 and m = 2 give fields of width 0; |Q| = 440 (10-bit state
  // fields) and m = 21 (5-bit counts) are the m_regs = 7 frontier's, whose
  // fields straddle word boundaries, as do the 17-bit fields of 2^16.
  support::Rng rng(20261020);
  u64 straddling = 0;
  for (const std::size_t num_states : {1u, 2u, 440u, 65536u}) {
    for (const u64 population : {0u, 1u, 2u, 3u, 21u, 65536u}) {
      SCOPED_TRACE(testing::Message() << "|Q| = " << num_states
                                      << ", m = " << population);
      const pp::ConfigCodec codec(num_states, population);
      std::map<std::vector<u64>, std::vector<u64>> by_words;
      std::vector<u64> words, again, decoded;
      for (const std::vector<u64>& sparse :
           codec_cases(num_states, population, rng)) {
        codec.pack(sparse, words);
        const u64 bits = layout_bits(sparse, num_states, population);
        ASSERT_EQ(words.size(), (bits + 63) / 64);
        if (bits % 64 != 0) {  // the last word's unused bits are zero
          ASSERT_EQ(words.back() >> (bits % 64), 0u);
        }
        if (words.size() > 1) ++straddling;
        codec.unpack(words, decoded);
        ASSERT_EQ(decoded, sparse);
        // Equal configurations give equal words, different ones different
        // words.
        const std::vector<u64> copy = sparse;
        codec.pack(copy, again);
        ASSERT_EQ(again, words);
        const auto [it, inserted] = by_words.try_emplace(words, sparse);
        ASSERT_EQ(it->second, sparse);
      }
    }
  }
  EXPECT_GT(straddling, 0u);
}

// ---------------------------------------------------------------------------
// Kernel on a toy domain

/// Deterministic toy graph on {0..modulus-1}: x -> x+1 and x -> 2x. Nodes
/// divisible by `terminal_every` are terminal events.
struct ToyDomain {
  u64 modulus;
  u64 terminal_every = 0;

  void expand(std::span<const u64> state, verify::Emitter& emit) const {
    const u64 x = state[0];
    if (terminal_every != 0 && x % terminal_every == 0 && x != 0) {
      emit.set_terminal(0);
      return;
    }
    const std::vector<u64> inc = {(x + 1) % modulus};
    const std::vector<u64> dbl = {(2 * x) % modulus};
    emit.emit(inc);
    emit.emit(dbl);
  }
};

/// The kernel's CSR as one successor vector per node.
template <typename Domain>
std::vector<std::vector<u32>> successor_lists(
    const verify::Kernel<Domain>& kernel) {
  std::vector<std::vector<u32>> lists;
  for (u32 id = 0; id < kernel.num_nodes(); ++id) {
    const std::span<const u32> succs = kernel.successors(id);
    lists.emplace_back(succs.begin(), succs.end());
  }
  return lists;
}

TEST(Kernel, ExploresTheFullToyGraphIdenticallyAtEveryThreadCount) {
  std::vector<std::vector<std::vector<u32>>> all_successors;
  for (const unsigned threads : {1u, 3u, 8u}) {
    const ToyDomain domain{1000, 7};
    verify::KernelOptions options;
    options.threads = threads;
    // Many waves of several claim blocks each, the last one partial.
    options.wave_chunk = 100;
    verify::Kernel<ToyDomain> kernel(domain, options);
    const std::vector<std::vector<u64>> roots = {{1}};
    const verify::KernelStats& stats = kernel.run(roots);
    EXPECT_TRUE(stats.complete);
    EXPECT_EQ(stats.limit, verify::LimitKind::kNone);
    EXPECT_EQ(stats.nodes, kernel.num_nodes());
    all_successors.push_back(successor_lists(kernel));
  }
  EXPECT_EQ(all_successors[0], all_successors[1]);
  EXPECT_EQ(all_successors[0], all_successors[2]);
}

/// Toy graph on {0..modulus-1} whose nodes emit repeats and self-loops:
/// x -> x+1, 2x, x+1, x, 3x, 2x (mod modulus), except that a node with
/// 13 | x reports its self-loop through emit_self() instead of emitting
/// x. Nodes with x % 7 == 3 carry terminal tag x % 5 and still emit.
struct RepeatDomain {
  u64 modulus;

  static std::vector<u64> targets(u64 x, u64 modulus) {
    std::vector<u64> out = {(x + 1) % modulus, (2 * x) % modulus,
                            (x + 1) % modulus, x,
                            (3 * x) % modulus, (2 * x) % modulus};
    if (x % 13 == 0) out.erase(out.begin() + 3);
    return out;
  }

  void expand(std::span<const u64> state, verify::Emitter& emit) const {
    const u64 x = state[0];
    if (x % 7 == 3) emit.set_terminal(static_cast<u32>(x % 5));
    for (const u64 y : targets(x, modulus)) {
      const std::vector<u64> words = {y};
      emit.emit(words);
    }
    if (x % 13 == 0) emit.emit_self();
  }
};

/// What the kernel must reproduce: plain sequential BFS that interns each
/// node's successors in emission order, then sorts and dedupes them.
struct BfsReference {
  std::vector<u64> states;
  std::vector<std::vector<u32>> successors;
  std::vector<u32> terminal_tags;
};

BfsReference bfs_reference(u64 modulus, u64 root) {
  BfsReference ref;
  std::map<u64, u32> ids;
  const auto intern = [&](u64 x) {
    const auto [it, inserted] =
        ids.try_emplace(x, static_cast<u32>(ref.states.size()));
    if (inserted) ref.states.push_back(x);
    return it->second;
  };
  intern(root);
  for (u32 id = 0; id < ref.states.size(); ++id) {
    const u64 x = ref.states[id];
    std::vector<u32> succs;
    for (const u64 y : RepeatDomain::targets(x, modulus))
      succs.push_back(intern(y));
    if (x % 13 == 0) succs.push_back(id);
    std::sort(succs.begin(), succs.end());
    succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
    ref.successors.push_back(std::move(succs));
    ref.terminal_tags.push_back(x % 7 == 3 ? static_cast<u32>(x % 5)
                                           : verify::kNoTerminal);
  }
  return ref;
}

TEST(Kernel, RepeatsAndManyWavesMatchSequentialBfs) {
  constexpr u64 kModulus = 5003;
  const BfsReference ref = bfs_reference(kModulus, 1);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const RepeatDomain domain{kModulus};
    verify::KernelOptions options;
    options.threads = threads;
    options.wave_chunk = 100;
    verify::Kernel<RepeatDomain> kernel(domain, options);
    const std::vector<std::vector<u64>> roots = {{1}};
    const verify::KernelStats& stats = kernel.run(roots);
    ASSERT_TRUE(stats.complete) << threads;
    ASSERT_EQ(kernel.num_nodes(), ref.states.size()) << threads;
    u64 edges = 0;
    for (u32 id = 0; id < kernel.num_nodes(); ++id) {
      ASSERT_EQ(kernel.state(id)[0], ref.states[id]) << threads;
      EXPECT_EQ(kernel.terminal_tag(id), ref.terminal_tags[id]) << threads;
      edges += ref.successors[id].size();
    }
    EXPECT_EQ(successor_lists(kernel), ref.successors) << threads;
    EXPECT_EQ(stats.edges, edges) << threads;
  }
}

TEST(Kernel, CountsEveryEmissionIdenticallyAtEveryThreadCount) {
  // Every node of the complete graph is expanded once, and RepeatDomain
  // emits targets(x) — repeats and the emitted self-loop included — so the
  // count is known; it is published once per run.
  constexpr u64 kModulus = 5003;
  const BfsReference ref = bfs_reference(kModulus, 1);
  u64 expected = 0;
  for (const u64 x : ref.states)
    expected += RepeatDomain::targets(x, kModulus).size();
  EXPECT_EQ(expected, 29'633u);
  obs::Counter& published =
      obs::Registry::global().counter("verify.successors_emitted");
  for (const unsigned threads : {1u, 2u, 4u}) {
    const RepeatDomain domain{kModulus};
    verify::KernelOptions options;
    options.threads = threads;
    options.wave_chunk = 100;  // several claim blocks per wave
    verify::Kernel<RepeatDomain> kernel(domain, options);
    const std::vector<std::vector<u64>> roots = {{1}};
    const u64 before = published.value();
    const verify::KernelStats& stats = kernel.run(roots);
    ASSERT_TRUE(stats.complete) << threads;
    EXPECT_EQ(stats.emitted, expected) << threads;
    EXPECT_EQ(published.value() - before, expected) << threads;
  }
}

TEST(Kernel, NodeBudgetReportsPartialStats) {
  const ToyDomain domain{100'000};
  verify::KernelOptions options;
  options.max_nodes = 500;
  verify::Kernel<ToyDomain> kernel(domain, options);
  const std::vector<std::vector<u64>> roots = {{1}};
  const verify::KernelStats& stats = kernel.run(roots);
  EXPECT_FALSE(stats.complete);
  EXPECT_EQ(stats.limit, verify::LimitKind::kNodes);
  EXPECT_GT(stats.nodes, 500u);
  EXPECT_GT(stats.edges, 0u);
}

TEST(Kernel, EdgeBudgetReportsPartialStats) {
  const ToyDomain domain{100'000};
  verify::KernelOptions options;
  options.max_edges = 100;
  verify::Kernel<ToyDomain> kernel(domain, options);
  const std::vector<std::vector<u64>> roots = {{1}};
  const verify::KernelStats& stats = kernel.run(roots);
  EXPECT_FALSE(stats.complete);
  EXPECT_EQ(stats.limit, verify::LimitKind::kEdges);
  EXPECT_GT(stats.edges, 100u);
}

TEST(Kernel, ByteBudgetReportsPartialStats) {
  const ToyDomain domain{100'000};
  verify::KernelOptions options;
  options.max_bytes = 4096;
  verify::Kernel<ToyDomain> kernel(domain, options);
  const std::vector<std::vector<u64>> roots = {{1}};
  const verify::KernelStats& stats = kernel.run(roots);
  EXPECT_FALSE(stats.complete);
  EXPECT_EQ(stats.limit, verify::LimitKind::kBytes);
}

TEST(Kernel, BudgetTripPointIsThreadCountIndependent) {
  // Each budget stops at the same node, with the same stats and the same
  // graph, at every thread count: the stop node is computed from counts
  // alone, before any new state is stored.
  struct Case {
    verify::LimitKind limit;
    verify::KernelOptions options;
  };
  std::vector<Case> cases(3);
  cases[0] = {verify::LimitKind::kNodes, {}};
  cases[0].options.max_nodes = 700;
  cases[1] = {verify::LimitKind::kEdges, {}};
  cases[1].options.max_edges = 900;
  cases[2] = {verify::LimitKind::kBytes, {}};
  cases[2].options.max_bytes = 40'000;
  for (Case& c : cases) {
    std::vector<verify::KernelStats> stats;
    std::vector<std::vector<std::vector<u32>>> graphs;
    for (const unsigned threads : {1u, 4u}) {
      const RepeatDomain domain{100'003};
      c.options.threads = threads;
      c.options.wave_chunk = 100;
      verify::Kernel<RepeatDomain> kernel(domain, c.options);
      const std::vector<std::vector<u64>> roots = {{1}};
      stats.push_back(kernel.run(roots));
      graphs.push_back(successor_lists(kernel));
    }
    const int kind = static_cast<int>(c.limit);
    EXPECT_EQ(stats[0].limit, c.limit) << kind;
    EXPECT_FALSE(stats[0].complete) << kind;
    for (const verify::KernelStats& other : stats) {
      EXPECT_EQ(other.limit, stats[0].limit) << kind;
      EXPECT_EQ(other.nodes, stats[0].nodes) << kind;
      EXPECT_EQ(other.edges, stats[0].edges) << kind;
      EXPECT_EQ(other.bytes, stats[0].bytes) << kind;
      EXPECT_EQ(other.waves, stats[0].waves) << kind;
      EXPECT_EQ(other.emitted, stats[0].emitted) << kind;
    }
    EXPECT_EQ(graphs[0], graphs[1]) << kind;
  }
}

TEST(Kernel, TerminalNodesAreExcludedFromBottomSccs) {
  // 0 -> 0 self-loop... actually build: terminal node's SCC never bottom.
  const ToyDomain domain{12, 5};
  verify::Kernel<ToyDomain> kernel(domain, {});
  const std::vector<std::vector<u64>> roots = {{1}};
  kernel.run(roots);
  const verify::SccAnalysis analysis = kernel.analyse();
  for (u32 id = 0; id < kernel.num_nodes(); ++id) {
    if (kernel.terminal_tag(id) != verify::kNoTerminal) {
      EXPECT_FALSE(analysis.is_bottom[analysis.scc.scc_of[id]]);
    }
  }
}

// ---------------------------------------------------------------------------
// Tarjan over the CSR graph vs the oracle's vector-of-vectors Tarjan

void expect_same_sccs(const std::vector<std::vector<u32>>& lists) {
  support::CsrGraph graph;
  for (const std::vector<u32>& succs : lists) graph.append(succs);
  const support::SccResult actual = support::tarjan_scc(graph);
  const oracle::SccResult expected = oracle::tarjan_scc(lists);
  EXPECT_EQ(actual.scc_count, expected.scc_count);
  EXPECT_EQ(actual.scc_of, expected.scc_of);
  EXPECT_EQ(actual.bottom(graph), expected.is_bottom);
}

TEST(SccCsr, MatchesOracleOnSeededRandomGraphs) {
  support::Rng rng(20231017);
  for (int round = 0; round < 40; ++round) {
    const u32 n = 1 + static_cast<u32>(rng() % 400);
    // Sparse to dense; every third graph gets self-loops, and some nodes
    // stay isolated (no edges in or out).
    const u32 degree = static_cast<u32>(rng() % 5);
    std::vector<std::vector<u32>> lists(n);
    for (u32 v = 0; v < n; ++v) {
      if (rng() % 8 == 0) continue;
      for (u32 k = 0; k < degree; ++k)
        lists[v].push_back(static_cast<u32>(rng() % n));
      if (round % 3 == 0 && rng() % 2 == 0) lists[v].push_back(v);
    }
    expect_same_sccs(lists);
  }
  // 3,000 small graphs of every density from none to complete, self-loops
  // and repeated edges included.
  for (int round = 0; round < 3000; ++round) {
    const u32 n = static_cast<u32>(rng.below(40));
    const u64 per_mille = rng.below(1001);
    std::vector<std::vector<u32>> lists(n);
    for (u32 v = 0; v < n; ++v)
      for (u32 w = 0; w < n; ++w)
        if (rng.below(1000) < per_mille)
          lists[v].push_back(static_cast<u32>(rng.below(n)));
    expect_same_sccs(lists);
  }
}

TEST(SccCsr, MatchesOracleOnALongPathWithABackEdge) {
  constexpr u32 kLength = 200'000;
  std::vector<std::vector<u32>> lists(kLength);
  for (u32 v = 0; v + 1 < kLength; ++v) lists[v] = {v + 1};
  expect_same_sccs(lists);
  lists[kLength - 1] = {kLength / 2};  // the tail half becomes one SCC
  expect_same_sccs(lists);
  // The path reversed: each root after the first reaches only closed
  // components.
  for (u32 v = 0; v < kLength; ++v) lists[v] = {};
  for (u32 v = 1; v < kLength; ++v) lists[v] = {v - 1};
  expect_same_sccs(lists);
}

TEST(SccCsr, MatchesOracleOnEdgeShapes) {
  expect_same_sccs({});                    // the empty graph
  expect_same_sccs({{0}});                 // one self-loop
  expect_same_sccs({{0, 1}, {1}, {0, 2}});  // self-loops everywhere
  // One giant SCC: a ring of 100,000 nodes with seeded chords, entered
  // from a tail that leaves it again.
  constexpr u32 kRing = 100'000;
  support::Rng rng(7);
  std::vector<std::vector<u32>> lists(kRing + 2);
  for (u32 v = 0; v < kRing; ++v) {
    lists[v].push_back((v + 1) % kRing);
    if (v % 3 == 0) lists[v].push_back(static_cast<u32>(rng.below(kRing)));
  }
  lists[kRing] = {kRing / 2, kRing + 1};
  lists[kRing + 1] = {kRing + 1};
  expect_same_sccs(lists);
}

/// The czerner n = 1 converted protocol and pi(C) with `m_regs` agents in
/// its input register: the graph `ppde verify 1 <m_regs>` explores.
struct VerifyWorkload {
  explicit VerifyWorkload(u64 m_regs)
      : construction(czerner::build_construction(1)),
        lowered(compile::lower_program(construction.program)),
        conv(compile::machine_to_protocol(lowered.machine, no_broadcast())),
        initial(conv.pi(machine::initial_state(lowered.machine,
                                               registers(m_regs)),
                        false)),
        codec(conv.protocol.num_states(), initial.total()),
        domain(conv.protocol, codec) {}

  static compile::ConversionOptions no_broadcast() {
    compile::ConversionOptions options;
    options.with_broadcast = false;
    return options;
  }
  std::vector<u64> registers(u64 m_regs) const {
    std::vector<u64> regs(construction.num_registers(), 0);
    regs[construction.R()] = m_regs;
    return regs;
  }
  std::vector<std::vector<u64>> roots() const {
    std::vector<std::vector<u64>> roots(1);
    codec.pack(pp::to_sparse(initial), roots[0]);
    return roots;
  }

  czerner::Construction construction;
  compile::LoweredMachine lowered;
  compile::ProtocolConversion conv;
  pp::Config initial;
  pp::ConfigCodec codec;
  pp::ConfigDomain domain;
};

TEST(SccCsr, MatchesOracleOnTheGraphOfVerify1x5) {
  const VerifyWorkload workload(5);
  verify::KernelOptions options;
  options.threads = 4;
  options.max_nodes = 8'000'000;
  verify::Kernel<pp::ConfigDomain> kernel(workload.domain, options);
  ASSERT_TRUE(kernel.run(workload.roots()).complete);
  EXPECT_EQ(kernel.num_nodes(), 806'312u);
  expect_same_sccs(successor_lists(kernel));
}

TEST(Kernel, ConfigGraphOutlivesTheHashIndex) {
  // run() frees the interner's hash index; the graph must stay readable by
  // id. Every stored configuration decodes to the population and packs
  // back to the same words, and the SCCs are Tarjan's. The toy, program
  // and machine domains are read the same way after run() by the Kernel.*,
  // ProgramExplorer.* and MachineExplorer.* tests.
  const VerifyWorkload workload(2);
  verify::KernelOptions options;
  options.threads = 4;
  verify::Kernel<pp::ConfigDomain> kernel(workload.domain, options);
  ASSERT_TRUE(kernel.run(workload.roots()).complete);
  std::vector<u64> sparse, words;
  for (u32 id = 0; id < kernel.num_nodes(); ++id) {
    workload.codec.unpack(kernel.state(id), sparse);
    u64 agents = 0;
    for (const u64 entry : sparse) agents += pp::sparse_count(entry);
    ASSERT_EQ(agents, workload.initial.total());
    workload.codec.pack(sparse, words);
    ASSERT_TRUE(std::ranges::equal(words, kernel.state(id)));
  }
  const std::vector<std::vector<u32>> lists = successor_lists(kernel);
  const oracle::SccResult expected = oracle::tarjan_scc(lists);
  const verify::SccAnalysis analysis = kernel.analyse();
  EXPECT_EQ(analysis.scc.scc_of, expected.scc_of);
  EXPECT_EQ(analysis.is_bottom, expected.is_bottom);
}

// ---------------------------------------------------------------------------
// pp::Verifier vs the pre-refactor sequential oracle (tests/oracles.hpp)

/// (T,F -> T,T), (F,T -> F,F): from a mixed start both consensuses are
/// reachable, so the exact verdict is kDoesNotStabilise with a
/// counterexample.
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

void expect_matches_oracle(const pp::Protocol& protocol,
                           const pp::Config& initial, bool witness_mode,
                           unsigned threads) {
  const oracle::VerifyResult expected =
      oracle::oracle_verify(protocol, initial, witness_mode, 1'000'000);
  pp::VerifierOptions options;
  options.witness_mode = witness_mode;
  options.threads = threads;
  const pp::VerificationResult actual =
      pp::Verifier(protocol).verify(initial, options);
  EXPECT_EQ(actual.verdict, expected.verdict);
  EXPECT_EQ(actual.explored_configs, expected.nodes);
  EXPECT_EQ(actual.explored_edges, expected.edges);
  EXPECT_EQ(actual.num_sccs, expected.num_sccs);
  EXPECT_EQ(actual.num_bottom_sccs, expected.num_bottom_sccs);
  ASSERT_EQ(actual.counterexample.has_value(),
            expected.counterexample.has_value());
  if (actual.counterexample) {
    EXPECT_EQ(*actual.counterexample, *expected.counterexample);
  }
}

TEST(VerifierOracle, MajorityMatchesByteForByte) {
  const pp::Protocol majority = baselines::make_majority();
  for (const unsigned threads : {1u, 4u}) {
    for (u32 a = 0; a <= 4; ++a) {
      for (u32 b = 0; b <= 4; ++b) {
        if (a + b == 0) continue;
        pp::Config initial(majority.num_states());
        initial.add(majority.state("A"), a);
        initial.add(majority.state("B"), b);
        expect_matches_oracle(majority, initial, false, threads);
      }
    }
  }
}

TEST(VerifierOracle, OpinionProtocolCounterexampleMatches) {
  const pp::Protocol opinion = make_opinion_protocol();
  for (const unsigned threads : {1u, 4u}) {
    for (u32 t = 1; t <= 5; ++t) {
      pp::Config initial(opinion.num_states());
      initial.add(opinion.state("T"), t);
      initial.add(opinion.state("F"), 6 - t);
      expect_matches_oracle(opinion, initial, false, threads);
      expect_matches_oracle(opinion, initial, true, threads);
    }
  }
}

TEST(VerifierOracle, ConvertedProtocolMatchesUnderWitnessSemantics) {
  const auto program = progmodel::make_window_program(1, 3);
  const compile::LoweredMachine lowered = compile::lower_program(program);
  compile::ConversionOptions nb;
  nb.with_broadcast = false;
  const compile::ProtocolConversion conv =
      compile::machine_to_protocol(lowered.machine, nb);
  for (u64 m = 0; m <= 2; ++m) {
    const pp::Config initial =
        conv.pi(machine::initial_state(lowered.machine, {0, 0, m}), false);
    expect_matches_oracle(conv.protocol, initial, true, 4);
  }
}

TEST(VerifierOracle, PopulationBeyond16BitsMatches) {
  // 70,000 agents need 17-bit count fields; the epidemic I + S -> I + I
  // walks all 70,000.
  pp::Protocol epidemic;
  const pp::State i = epidemic.add_state("I");
  const pp::State s = epidemic.add_state("S");
  epidemic.mark_input(i);
  epidemic.mark_input(s);
  epidemic.mark_accepting(i);
  epidemic.add_transition(i, s, i, i);
  epidemic.finalize();
  pp::Config initial(epidemic.num_states());
  initial.add(i, 1);
  initial.add(s, 69'999);
  for (const unsigned threads : {1u, 4u})
    expect_matches_oracle(epidemic, initial, false, threads);
  const pp::VerificationResult result =
      pp::Verifier(epidemic).verify(initial, {});
  EXPECT_EQ(result.verdict, pp::VerificationResult::Verdict::kStabilisesTrue);
  EXPECT_EQ(result.explored_configs, 70'000u);
}

/// 140 states, so an activity row spans three words and the last one is
/// partial (states 128..139). Only states at the word edges take part:
/// 0, 63 | 64, 127 | 128, 139. Every larger one converts every smaller
/// one it meets as initiator, and three are self-active: (0, 0) -> (0, 63),
/// (63, 63) -> (64, 64), (127, 127) -> (128, 127). Accepting: 128 and 139.
pp::Protocol make_word_edge_protocol() {
  pp::Protocol protocol;
  for (u32 q = 0; q < 140; ++q) protocol.add_state("s" + std::to_string(q));
  const std::vector<pp::State> live = {0, 63, 64, 127, 128, 139};
  for (const pp::State q : live) protocol.mark_input(q);
  protocol.mark_accepting(128);
  protocol.mark_accepting(139);
  for (std::size_t i = 0; i < live.size(); ++i)
    for (std::size_t j = i + 1; j < live.size(); ++j)
      protocol.add_transition(live[j], live[i], live[j], live[j]);
  protocol.add_transition(0, 0, 0, 63);
  protocol.add_transition(63, 63, 64, 64);
  protocol.add_transition(127, 127, 128, 127);
  protocol.finalize();
  return protocol;
}

/// The same 140 states with a race: X = 63 meets P = 64, R = 127 or
/// U = 128, and the pair decides the consensus — (X, P) -> (T, T) with
/// T = 139 accepting, (X, R) and (X, U) -> (F, F) with F = 0 rejecting; T
/// and F then convert the leftovers. From {X, P, R, U} both consensuses
/// are reachable, and the counterexample is whichever sink is discovered
/// second, so it pins the order in which X's partners are walked.
pp::Protocol make_word_edge_race() {
  pp::Protocol protocol;
  for (u32 q = 0; q < 140; ++q) protocol.add_state("s" + std::to_string(q));
  const pp::State x = 63, p = 64, r = 127, u = 128, t = 139, f = 0;
  for (const pp::State q : {x, p, r, u}) protocol.mark_input(q);
  protocol.mark_accepting(t);
  protocol.add_transition(x, p, t, t);
  protocol.add_transition(x, r, f, f);
  protocol.add_transition(x, u, f, f);
  for (const pp::State leftover : {p, r, u}) {
    protocol.add_transition(t, leftover, t, t);
    protocol.add_transition(f, leftover, f, f);
  }
  protocol.finalize();
  return protocol;
}

TEST(VerifierOracle, ActivityRowsAcrossWordEdgesMatch) {
  // Occupied states straddle 63/64 and 127/128 and reach into the partial
  // last word; self-active states hold one agent (must not fire) and two.
  const pp::Protocol protocol = make_word_edge_protocol();
  const std::vector<std::vector<std::pair<pp::State, u32>>> starts = {
      {{0, 2}, {127, 1}},           {{0, 1}, {63, 1}, {64, 1}},
      {{63, 2}, {128, 1}, {0, 1}},  {{0, 2}, {63, 1}, {127, 2}},
      {{64, 1}, {128, 1}, {139, 1}}, {{0, 3}, {63, 2}, {127, 1}, {139, 1}},
  };
  for (const unsigned threads : {1u, 4u}) {
    for (const auto& start : starts) {
      pp::Config initial(protocol.num_states());
      for (const auto& [q, count] : start) initial.add(q, count);
      expect_matches_oracle(protocol, initial, false, threads);
    }
  }
}

TEST(VerifierOracle, WordEdgeRaceCounterexamplePinsNodeOrder) {
  const pp::Protocol protocol = make_word_edge_race();
  pp::Config initial(protocol.num_states());
  for (const pp::State q : {63, 64, 127, 128}) initial.add(q, 1);
  for (const unsigned threads : {1u, 4u}) {
    expect_matches_oracle(protocol, initial, false, threads);
    pp::VerifierOptions options;
    options.threads = threads;
    const pp::VerificationResult result =
        pp::Verifier(protocol).verify(initial, options);
    ASSERT_EQ(result.verdict,
              pp::VerificationResult::Verdict::kDoesNotStabilise);
    // (X, P) is walked first, so the all-T sink gets the smaller id and
    // the all-F sink is the counterexample.
    pp::Config all_f(protocol.num_states());
    all_f.add(0, 4);
    EXPECT_EQ(*result.counterexample, all_f);
  }
}

TEST(Verifier, ResourceLimitCarriesPartialCounts) {
  const pp::Protocol majority = baselines::make_majority();
  pp::Config initial(majority.num_states());
  initial.add(majority.state("A"), 12);
  initial.add(majority.state("B"), 11);
  pp::VerifierOptions options;
  options.max_configs = 10;
  const pp::VerificationResult result =
      pp::Verifier(majority).verify(initial, options);
  EXPECT_EQ(result.verdict, pp::VerificationResult::Verdict::kResourceLimit);
  EXPECT_GT(result.explored_configs, 10u);
  EXPECT_GT(result.explored_edges, 0u);
}

TEST(Verifier, ResultsAreIdenticalAcrossThreadCounts) {
  const pp::Protocol majority = baselines::make_majority();
  pp::Config initial(majority.num_states());
  initial.add(majority.state("A"), 6);
  initial.add(majority.state("B"), 5);
  std::vector<pp::VerificationResult> results;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    pp::VerifierOptions options;
    options.threads = threads;
    results.push_back(pp::Verifier(majority).verify(initial, options));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].verdict, results[0].verdict);
    EXPECT_EQ(results[i].explored_configs, results[0].explored_configs);
    EXPECT_EQ(results[i].explored_edges, results[0].explored_edges);
    EXPECT_EQ(results[i].num_sccs, results[0].num_sccs);
    EXPECT_EQ(results[i].num_bottom_sccs, results[0].num_bottom_sccs);
  }
}

// ---------------------------------------------------------------------------
// Program- and machine-level explorers on the kernel

TEST(ProgramExplorer, DecideIsIdenticalAcrossThreadCounts) {
  const auto program = progmodel::make_window_program(2, 5);
  const progmodel::FlatProgram flat = progmodel::FlatProgram::compile(program);
  for (u64 m = 0; m <= 6; ++m) {
    progmodel::ExploreLimits limits;
    const progmodel::DecisionResult sequential =
        progmodel::decide(flat, {0, 0, m}, limits);
    limits.threads = 4;
    const progmodel::DecisionResult parallel =
        progmodel::decide(flat, {0, 0, m}, limits);
    EXPECT_EQ(parallel.verdict, sequential.verdict) << "m=" << m;
    EXPECT_EQ(parallel.explored_nodes, sequential.explored_nodes)
        << "m=" << m;
    // Window semantics: accept iff 2 <= m < 5.
    ASSERT_TRUE(sequential.stabilises()) << "m=" << m;
    EXPECT_EQ(sequential.output(), m >= 2 && m < 5) << "m=" << m;
  }
}

TEST(ProgramExplorer, LimitReportsPartialNodeCount) {
  const auto program = progmodel::make_window_program(2, 5);
  const progmodel::FlatProgram flat = progmodel::FlatProgram::compile(program);
  progmodel::ExploreLimits limits;
  limits.max_nodes = 5;
  const progmodel::DecisionResult result =
      progmodel::decide(flat, {0, 0, 4}, limits);
  EXPECT_EQ(result.verdict, progmodel::DecisionResult::Verdict::kLimit);
  EXPECT_GT(result.explored_nodes, 5u);

  const progmodel::MainAnalysis main = progmodel::analyse_main(
      flat, {0, 0, 4}, limits);
  EXPECT_TRUE(main.limit_hit);
  EXPECT_GT(main.explored_nodes, 5u);
}

TEST(MachineExplorer, DecideIsIdenticalAcrossThreadCounts) {
  const auto program = progmodel::make_window_program(1, 3);
  const compile::LoweredMachine lowered = compile::lower_program(program);
  for (u64 m = 0; m <= 4; ++m) {
    machine::MachineExploreLimits limits;
    const machine::MachineDecision sequential =
        machine::decide_machine(lowered.machine, {0, 0, m}, limits);
    limits.threads = 4;
    const machine::MachineDecision parallel =
        machine::decide_machine(lowered.machine, {0, 0, m}, limits);
    EXPECT_EQ(parallel.verdict, sequential.verdict) << "m=" << m;
    EXPECT_EQ(parallel.explored_nodes, sequential.explored_nodes)
        << "m=" << m;
    ASSERT_TRUE(sequential.stabilises()) << "m=" << m;
    EXPECT_EQ(sequential.output(), m >= 1 && m < 3) << "m=" << m;
  }
}

// ---------------------------------------------------------------------------
// Worklist reachability fixpoint

/// The pre-worklist chaotic iteration, kept as the reference semantics.
std::vector<bool> chaotic_reachable_states(const pp::Protocol& protocol,
                                           const pp::Config& initial) {
  std::vector<bool> occupiable(protocol.num_states(), false);
  for (pp::State q = 0; q < initial.num_states(); ++q)
    if (initial[q] != 0) occupiable[q] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const pp::Transition& t : protocol.transitions()) {
      if (!occupiable[t.q] || !occupiable[t.r]) continue;
      for (const pp::State produced : {t.q2, t.r2}) {
        if (!occupiable[produced]) {
          occupiable[produced] = true;
          changed = true;
        }
      }
    }
  }
  return occupiable;
}

TEST(Reachability, WorklistFixpointMatchesChaoticIteration) {
  const auto program = progmodel::make_window_program(1, 3);
  const compile::LoweredMachine lowered = compile::lower_program(program);
  const compile::ProtocolConversion conv =
      compile::machine_to_protocol(lowered.machine);
  for (u64 m = 0; m <= 3; ++m) {
    const pp::Config initial =
        conv.pi(machine::initial_state(lowered.machine, {0, 0, m}), false);
    EXPECT_EQ(analysis::reachable_states(conv.protocol, initial),
              chaotic_reachable_states(conv.protocol, initial))
        << "m=" << m;
  }
  const pp::Protocol majority = baselines::make_majority();
  for (const char* state : {"A", "B", "a", "b"}) {
    pp::Config initial(majority.num_states());
    initial.add(majority.state(state), 3);
    EXPECT_EQ(analysis::reachable_states(majority, initial),
              chaotic_reachable_states(majority, initial))
        << state;
  }
}

}  // namespace
}  // namespace ppde
