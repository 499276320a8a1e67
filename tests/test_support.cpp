// Unit tests for the support substrates every verifier stands on: the
// PRNG, the hash combinators, the shared Tarjan SCC pass, and the table
// renderer.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "analysis/tables.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/scc.hpp"

namespace ppde::support {
namespace {

// -- Rng ----------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(42);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int bucket = 0; bucket < kBuckets; ++bucket) {
    EXPECT_NEAR(counts[bucket], kDraws / kBuckets, kDraws / kBuckets / 10)
        << "bucket " << bucket;
  }
}

TEST(Rng, CoinIsFair) {
  Rng rng(5);
  int heads = 0;
  for (int i = 0; i < 100'000; ++i)
    if (rng.coin()) ++heads;
  EXPECT_NEAR(heads, 50'000, 1'500);
}

TEST(Rng, ChanceMatchesRatio) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 90'000; ++i)
    if (rng.chance(1, 3)) ++hits;
  EXPECT_NEAR(hits, 30'000, 1'200);
}

TEST(Rng, UnitHelpersAreExactBitPatterns) {
  // to_unit maps raw -> [0,1), to_unit_open maps raw -> (0,1]; both are
  // pinned expressions (53-bit mantissa scaling) — to_unit_open feeds the
  // count engine's geometric sampler, so any change breaks recorded
  // trajectories.
  EXPECT_EQ(to_unit(0), 0.0);
  EXPECT_DOUBLE_EQ(to_unit_open(0), 0x1.0p-53);
  EXPECT_EQ(to_unit_open(~std::uint64_t{0}), 1.0);
  EXPECT_LT(to_unit(~std::uint64_t{0}), 1.0);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t raw = rng();
    const double closed = to_unit(raw);
    const double open = to_unit_open(raw);
    ASSERT_GE(closed, 0.0);
    ASSERT_LT(closed, 1.0);
    ASSERT_GT(open, 0.0);
    ASSERT_LE(open, 1.0);
    // Exactly the documented expressions, bit for bit.
    ASSERT_EQ(closed, static_cast<double>(raw >> 11) * 0x1.0p-53);
    ASSERT_EQ(open, (static_cast<double>(raw >> 11) + 1.0) * 0x1.0p-53);
  }
}

// -- hashing --------------------------------------------------------------------

TEST(Hash, CombineOrderSensitive) {
  const std::uint64_t ab = hash_combine(hash_combine(0, 1), 2);
  const std::uint64_t ba = hash_combine(hash_combine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

TEST(Hash, RangeNoEasyCollisions) {
  std::set<std::uint64_t> seen;
  for (std::uint32_t a = 0; a < 40; ++a)
    for (std::uint32_t b = 0; b < 40; ++b) {
      std::vector<std::uint32_t> v = {a, b};
      seen.insert(hash_range(v));
    }
  EXPECT_EQ(seen.size(), 1600u);
}

// -- SCC -------------------------------------------------------------------------

CsrGraph csr(const std::vector<std::vector<std::uint32_t>>& successors) {
  CsrGraph graph;
  for (const std::vector<std::uint32_t>& succs : successors)
    graph.append(succs);
  return graph;
}

TEST(Scc, SingleNodeNoEdge) {
  const CsrGraph g = csr({{}});
  const SccResult result = tarjan_scc(g);
  EXPECT_EQ(result.scc_count, 1u);
  EXPECT_EQ(result.bottom(g), std::vector<std::uint8_t>{1});
}

TEST(Scc, ChainHasOneBottom) {
  // 0 -> 1 -> 2
  const CsrGraph g = csr({{1}, {2}, {}});
  const SccResult result = tarjan_scc(g);
  EXPECT_EQ(result.scc_count, 3u);
  const auto bottom = result.bottom(g);
  int bottoms = 0;
  for (std::uint8_t b : bottom) bottoms += b;
  EXPECT_EQ(bottoms, 1);
  EXPECT_TRUE(bottom[result.scc_of[2]]);
  EXPECT_FALSE(bottom[result.scc_of[0]]);
}

TEST(Scc, CycleIsOneComponent) {
  // 0 -> 1 -> 2 -> 0
  const SccResult result = tarjan_scc(csr({{1}, {2}, {0}}));
  EXPECT_EQ(result.scc_count, 1u);
  EXPECT_EQ(result.scc_of[0], result.scc_of[1]);
  EXPECT_EQ(result.scc_of[1], result.scc_of[2]);
}

TEST(Scc, TwoCyclesWithBridge) {
  // {0,1} -> {2,3}: only the second cycle is bottom.
  const CsrGraph g = csr({{1}, {0, 2}, {3}, {2}});
  const SccResult result = tarjan_scc(g);
  EXPECT_EQ(result.scc_count, 2u);
  const auto bottom = result.bottom(g);
  EXPECT_FALSE(bottom[result.scc_of[0]]);
  EXPECT_TRUE(bottom[result.scc_of[2]]);
}

TEST(Scc, SelfLoopIsItsOwnComponent) {
  const CsrGraph g = csr({{0}, {0}});
  const SccResult result = tarjan_scc(g);
  EXPECT_EQ(result.scc_count, 2u);
  const auto bottom = result.bottom(g);
  EXPECT_TRUE(bottom[result.scc_of[0]]);
  EXPECT_FALSE(bottom[result.scc_of[1]]);
}

TEST(Scc, DeepChainNoStackOverflow) {
  // The iterative Tarjan must survive graphs far deeper than the C stack.
  constexpr std::uint32_t kDepth = 400'000;
  CsrGraph g;
  for (std::uint32_t i = 0; i + 1 < kDepth; ++i) {
    const std::uint32_t next = i + 1;
    g.append({&next, 1});
  }
  g.append({});
  const SccResult result = tarjan_scc(g);
  EXPECT_EQ(result.scc_count, kDepth);
}

// -- tables ----------------------------------------------------------------------

TEST(Tables, AlignsColumns) {
  analysis::TextTable t({"a", "long header"});
  t.add_row({"wide cell", "x"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a          long header"), std::string::npos);
  EXPECT_NE(out.find("wide cell  x"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Tables, Formatters) {
  EXPECT_EQ(analysis::fmt_u64(12345), "12345");
  EXPECT_EQ(analysis::fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(analysis::fmt_double(2.0, 0), "2");
}

}  // namespace
}  // namespace ppde::support
