// Compiled protocol: flat tables every execution layer reads (S26).
//
// A finalized pp::Protocol is lowered once into a CompiledProtocol — a set
// of flat, immutable tables that every execution layer (per-agent
// simulation, count-based simulation, exhaustive verification) consumes as
// the single source of truth for transition semantics:
//
//   * Active pairs — ordered state pairs (q, r) with at least one
//     non-silent transition — carry dense *pair positions* 0..P-1 in
//     (q asc, r asc) order.
//   * Bit rows are the only adjacency. Each state q owns a word-aligned
//     activity row of ⌈|Q|/64⌉ words (bit r set iff (q, r) is active) and
//     a transposed row of the same width (bit p set iff (p, q) is active),
//     and each activity-row word a u32 rank base: the number of active
//     pairs before the word in (q, r) order. pair_active reads one bit;
//     entry_of, for an active pair, adds the popcount of the row word below
//     r to the word's base. The verifier walks the activity rows; the count
//     engine ANDs both kinds with its populated-state bitset.
//   * Each active pair's candidates are Cells — the post-states (q2, r2) of
//     its non-silent transitions in transition order — behind a candidate
//     CSR by pair position. Every reader applies a cell the same way:
//     rewrite the initiator if q2 != q, then the responder if r2 != r.
//
// Lowering is pure table construction: candidate order equals
// Protocol::finalize()'s transition order, so a simulator picking
// candidates through the compiled tables consumes its RNG identically to
// one walking the protocol's transition list — the bit-identicality
// contract (DESIGN.md S26) that the map-based reference stepper in
// tests/oracles.hpp pins.
//
// The tables can be exported (raw()) and re-adopted (adopt()); adopt()
// validates every invariant — each derived table against the activity
// rows — and throws std::invalid_argument on malformed tables, which is
// also how compile() output is checked.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pp/protocol.hpp"

namespace ppde::isa {

/// One candidate transition of an active pair (q, r), compiled: the
/// post-states it writes. At least one differs from its pre-state.
struct Cell {
  std::uint32_t q2 = 0;  ///< post-state of the initiator
  std::uint32_t r2 = 0;  ///< post-state of the responder

  friend bool operator==(const Cell&, const Cell&) = default;
};

class CompiledProtocol {
 public:
  /// The flat tables; see the member comments for invariants. Exported by
  /// raw() and re-imported by adopt() (which validates everything).
  struct RawTables {
    std::uint32_t num_states = 0;
    std::vector<std::uint8_t> self_active;  ///< size |Q|: the diagonal bit
    /// Pair index: bit r of row q at active_bits[q * row_words + r / 64],
    /// row_words = ⌈|Q|/64⌉, set iff (q, r) is active; no bit at r >= |Q|.
    /// Every other table is checked against these rows.
    std::vector<std::uint64_t> active_bits;
    /// Parallel to active_bits: the set bits of every row before q plus
    /// those of row q in the words before this one.
    std::vector<std::uint32_t> rank_base;
    /// The transpose of active_bits: bit q of row r at
    /// in_bits[r * row_words + q / 64] set iff (q, r) is active.
    std::vector<std::uint64_t> in_bits;
    /// Candidate CSR by pair position; every active pair has >= 1 cell.
    std::vector<std::uint32_t> cand_begin;  ///< size P+1
    std::vector<Cell> cells;
    /// Retired stores (adjacency CSRs, dense pair table, perfect hash,
    /// any-candidate bitset, transition indices): always empty, and adopt()
    /// refuses them otherwise. They stay declared because the benchmark
    /// driver (perfbench/driver.cpp) sums the table bytes member by member.
    std::vector<std::uint32_t> out_begin;
    std::vector<std::uint32_t> out_flat;
    std::vector<std::uint32_t> in_begin;
    std::vector<std::uint32_t> in_flat;
    std::vector<std::uint32_t> dense;
    std::vector<std::uint32_t> ph_disp;
    std::vector<std::uint64_t> ph_key;
    std::vector<std::uint32_t> ph_entry;
    std::vector<std::uint64_t> any_bits;
    std::vector<std::uint32_t> cand_flat;
  };

  /// Lower a finalized (or mid-finalize) protocol. Validates the result.
  static std::shared_ptr<const CompiledProtocol> compile(
      const pp::Protocol& protocol);

  /// Adopt externally produced tables. Throws std::invalid_argument when
  /// any structural invariant is violated (sizes, CSR monotonicity,
  /// out-of-range indices, derived tables that disagree with the activity
  /// rows, cells that change nothing, retired stores in use).
  static std::shared_ptr<const CompiledProtocol> adopt(RawTables tables);

  /// Copy of the flat tables (for round-trip/golden tests and tooling).
  const RawTables& raw() const { return t_; }

  std::size_t num_states() const { return t_.num_states; }
  std::size_t num_active_pairs() const { return t_.cand_begin.size() - 1; }

  /// True iff (q, r) has a non-silent candidate.
  bool pair_active(pp::State q, pp::State r) const {
    return (active_row(q)[r / 64] >> (r % 64)) & 1;
  }

  /// Pair position of the active pair (q, r), in [0, num_active_pairs()).
  /// Meaningless for an inactive pair.
  std::uint32_t entry_of(pp::State q, pp::State r) const {
    return rank(t_, row_words_, q, r);
  }

  /// Words per activity row: ⌈|Q|/64⌉.
  std::size_t row_words() const { return row_words_; }
  /// The activity row of q: bit r % 64 of word r / 64 set iff (q, r) is
  /// active.
  std::span<const std::uint64_t> active_row(pp::State q) const {
    return {t_.active_bits.data() + q * row_words_, row_words_};
  }
  /// The transposed row of r: bit q % 64 of word q / 64 set iff (q, r) is
  /// active.
  std::span<const std::uint64_t> in_row(pp::State r) const {
    return {t_.in_bits.data() + r * row_words_, row_words_};
  }

  /// The compiled cells of active pair position `pos`, in transition order.
  std::span<const Cell> cells(std::uint32_t pos) const {
    return {t_.cells.data() + t_.cand_begin[pos],
            t_.cells.data() + t_.cand_begin[pos + 1]};
  }

  /// True iff (q, q) is active.
  bool self_active(pp::State q) const { return t_.self_active[q] != 0; }

 private:
  explicit CompiledProtocol(RawTables tables);

  /// Pair position of the active pair (q, r) in tables whose rows are
  /// `row_words` words long.
  static std::uint32_t rank(const RawTables& t, std::size_t row_words,
                            pp::State q, pp::State r) {
    const std::size_t w = static_cast<std::size_t>(q) * row_words + r / 64;
    const std::uint64_t below = (std::uint64_t{1} << (r % 64)) - 1;
    return t.rank_base[w] + static_cast<std::uint32_t>(
                                std::popcount(t.active_bits[w] & below));
  }

  RawTables t_;
  std::size_t row_words_;
};

}  // namespace ppde::isa
