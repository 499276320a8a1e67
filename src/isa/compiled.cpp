#include "isa/compiled.hpp"

#include <stdexcept>
#include <string>

namespace ppde::isa {

namespace {

using RawTables = CompiledProtocol::RawTables;

void check(bool condition, const char* what) {
  if (!condition)
    throw std::invalid_argument(std::string("CompiledProtocol: ") + what);
}

/// Monotone CSR offsets covering [0, flat_size] with `rows` rows.
void check_csr(const std::vector<std::uint32_t>& begin, std::size_t rows,
               std::size_t flat_size, const char* what) {
  check(begin.size() == rows + 1, what);
  check(begin.front() == 0 && begin.back() == flat_size, what);
  for (std::size_t i = 0; i + 1 < begin.size(); ++i)
    check(begin[i] <= begin[i + 1], what);
}

std::size_t row_words_of(std::size_t num_states) {
  return (num_states + 63) / 64;
}

/// Everything the activity rows determine.
struct Derived {
  std::vector<std::uint8_t> self_active;
  std::vector<std::uint32_t> rank_base;
  std::vector<std::uint64_t> in_bits;
};

/// Derives the rank bases, the diagonal and the transposed rows from
/// activity rows of the right size with no bit at r >= |Q|.
Derived derive(const RawTables& t) {
  const std::size_t n = t.num_states;
  const std::size_t words = row_words_of(n);
  Derived d;
  d.self_active.assign(n, 0);
  d.rank_base.assign(n * words, 0);
  d.in_bits.assign(n * words, 0);
  std::uint32_t rank = 0;
  for (pp::State q = 0; q < n; ++q) {
    const std::uint64_t* row = t.active_bits.data() + q * words;
    const std::uint64_t column = std::uint64_t{1} << (q % 64);
    for (std::size_t w = 0; w < words; ++w) {
      d.rank_base[q * words + w] = rank;
      rank += static_cast<std::uint32_t>(std::popcount(row[w]));
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        const std::size_t r = w * 64 + std::countr_zero(bits);
        d.in_bits[r * words + q / 64] |= column;
      }
    }
    d.self_active[q] = (row[q / 64] >> (q % 64)) & 1;
  }
  return d;
}

void validate(const RawTables& t) {
  check(t.out_begin.empty() && t.out_flat.empty() && t.in_begin.empty() &&
            t.in_flat.empty() && t.dense.empty() && t.ph_disp.empty() &&
            t.ph_key.empty() && t.ph_entry.empty() && t.any_bits.empty() &&
            t.cand_flat.empty(),
        "retired table not empty");
  const std::size_t n = t.num_states;
  const std::size_t words = row_words_of(n);
  check(t.active_bits.size() == n * words, "malformed activity rows");
  if (n % 64 != 0) {
    const std::uint64_t beyond = ~std::uint64_t{0} << (n % 64);
    for (std::size_t q = 0; q < n; ++q)
      check((t.active_bits[q * words + words - 1] & beyond) == 0,
            "partner out of range");
  }

  const Derived want = derive(t);
  check(t.in_bits == want.in_bits,
        "transposed rows disagree with the activity rows");
  check(t.rank_base == want.rank_base, "wrong rank base");
  check(t.self_active == want.self_active,
        "self_active disagrees with the diagonal bit");

  std::size_t pairs = 0;
  for (const std::uint64_t word : t.active_bits) pairs += std::popcount(word);
  check_csr(t.cand_begin, pairs, t.cells.size(), "malformed cand CSR");
  std::uint32_t p = 0;  // pair position: active pairs in (q, r) order
  for (pp::State q = 0; q < n; ++q)
    for (std::size_t w = 0; w < words; ++w)
      for (std::uint64_t bits = t.active_bits[q * words + w]; bits != 0;
           bits &= bits - 1, ++p) {
        const auto r = static_cast<pp::State>(w * 64 + std::countr_zero(bits));
        check(t.cand_begin[p] < t.cand_begin[p + 1],
              "active pair without candidates");
        for (std::uint32_t c = t.cand_begin[p]; c < t.cand_begin[p + 1]; ++c) {
          const Cell& cell = t.cells[c];
          check(cell.q2 < n && cell.r2 < n, "cell post-state out of range");
          check(cell.q2 != q || cell.r2 != r, "cell leaves its pair unchanged");
        }
      }
}

}  // namespace

std::shared_ptr<const CompiledProtocol> CompiledProtocol::compile(
    const pp::Protocol& protocol) {
  RawTables t;
  const std::size_t n = protocol.num_states();
  const std::size_t words = row_words_of(n);
  t.num_states = static_cast<std::uint32_t>(n);
  const auto& transitions = protocol.transitions();

  // The active pairs, as rows, fix the pair positions: (q asc, r asc).
  t.active_bits.assign(n * words, 0);
  for (const pp::Transition& tr : transitions)
    if (!tr.is_silent())
      t.active_bits[tr.q * words + tr.r / 64] |= std::uint64_t{1}
                                                 << (tr.r % 64);
  std::size_t pairs = 0;
  for (const std::uint64_t word : t.active_bits) pairs += std::popcount(word);
  Derived d = derive(t);
  t.self_active = std::move(d.self_active);
  t.rank_base = std::move(d.rank_base);
  t.in_bits = std::move(d.in_bits);

  // Cells by pair position; the candidates of a pair keep transition
  // order — the order Protocol::finalize() recorded them and every
  // candidate pick consumes the RNG by.
  t.cand_begin.assign(pairs + 1, 0);
  for (const pp::Transition& tr : transitions)
    if (!tr.is_silent()) ++t.cand_begin[rank(t, words, tr.q, tr.r) + 1];
  for (std::size_t p = 0; p < pairs; ++p)
    t.cand_begin[p + 1] += t.cand_begin[p];
  t.cells.resize(t.cand_begin[pairs]);
  std::vector<std::uint32_t> cursor(t.cand_begin.begin(),
                                    t.cand_begin.end() - 1);
  for (const pp::Transition& tr : transitions)
    if (!tr.is_silent())
      t.cells[cursor[rank(t, words, tr.q, tr.r)]++] = {tr.q2, tr.r2};
  return adopt(std::move(t));
}

std::shared_ptr<const CompiledProtocol> CompiledProtocol::adopt(
    RawTables tables) {
  validate(tables);
  return std::shared_ptr<const CompiledProtocol>(
      new CompiledProtocol(std::move(tables)));
}

CompiledProtocol::CompiledProtocol(RawTables tables)
    : t_(std::move(tables)), row_words_(row_words_of(t_.num_states)) {}

}  // namespace ppde::isa
