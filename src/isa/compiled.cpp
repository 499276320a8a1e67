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

/// Everything the out CSR determines.
struct Derived {
  std::vector<std::uint32_t> in_begin;
  std::vector<std::uint32_t> in_flat;
  std::vector<std::uint8_t> self_active;
  std::vector<std::uint64_t> active_bits;
  std::vector<std::uint32_t> rank_base;
};

/// Derives the activity rows, their rank bases, the diagonal and the in
/// CSR (the transpose) from a well-formed out CSR.
Derived derive(const RawTables& t) {
  const std::size_t n = t.num_states;
  const std::size_t words = row_words_of(n);
  Derived d;
  d.active_bits.assign(n * words, 0);
  d.rank_base.assign(n * words, 0);
  d.self_active.assign(n, 0);
  d.in_begin.assign(n + 1, 0);
  for (pp::State q = 0; q < n; ++q) {
    std::uint64_t* row = d.active_bits.data() + q * words;
    for (std::uint32_t p = t.out_begin[q]; p < t.out_begin[q + 1]; ++p) {
      const pp::State r = t.out_flat[p];
      row[r / 64] |= std::uint64_t{1} << (r % 64);
      ++d.in_begin[r + 1];
    }
    std::uint32_t rank = t.out_begin[q];
    for (std::size_t w = 0; w < words; ++w) {
      d.rank_base[q * words + w] = rank;
      rank += static_cast<std::uint32_t>(std::popcount(row[w]));
    }
    d.self_active[q] = (row[q / 64] >> (q % 64)) & 1;
  }
  for (std::size_t r = 0; r < n; ++r) d.in_begin[r + 1] += d.in_begin[r];
  d.in_flat.resize(t.out_flat.size());
  std::vector<std::uint32_t> cursor(d.in_begin.begin(), d.in_begin.end() - 1);
  for (pp::State q = 0; q < n; ++q)  // q ascending: every in row ascends
    for (std::uint32_t p = t.out_begin[q]; p < t.out_begin[q + 1]; ++p)
      d.in_flat[cursor[t.out_flat[p]]++] = q;
  return d;
}

void validate(const RawTables& t) {
  check(t.dense.empty() && t.ph_disp.empty() && t.ph_key.empty() &&
            t.ph_entry.empty() && t.any_bits.empty() && t.cand_flat.empty(),
        "retired table not empty");
  const std::size_t n = t.num_states;
  const std::size_t pairs = t.out_flat.size();
  check_csr(t.out_begin, n, pairs, "malformed out CSR");
  for (pp::State q = 0; q < n; ++q)
    for (std::uint32_t p = t.out_begin[q]; p < t.out_begin[q + 1]; ++p) {
      check(t.out_flat[p] < n, "partner out of range");
      check(p == t.out_begin[q] || t.out_flat[p - 1] < t.out_flat[p],
            "partners not strictly ascending");
    }

  const Derived want = derive(t);
  check(t.in_begin == want.in_begin && t.in_flat == want.in_flat,
        "in CSR is not the transpose of the out CSR");
  check(t.active_bits == want.active_bits,
        "activity rows disagree with the out CSR");
  check(t.rank_base == want.rank_base, "wrong rank base");
  check(t.self_active == want.self_active,
        "self_active disagrees with the diagonal bit");

  check_csr(t.cand_begin, pairs, t.cells.size(), "malformed cand CSR");
  for (pp::State q = 0; q < n; ++q)
    for (std::uint32_t p = t.out_begin[q]; p < t.out_begin[q + 1]; ++p) {
      check(t.cand_begin[p] < t.cand_begin[p + 1],
            "active pair without candidates");
      for (std::uint32_t c = t.cand_begin[p]; c < t.cand_begin[p + 1]; ++c) {
        const Cell& cell = t.cells[c];
        check(cell.q2 < n && cell.r2 < n, "cell post-state out of range");
        check(cell.q2 != q || cell.r2 != t.out_flat[p],
              "cell leaves its pair unchanged");
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
  std::vector<std::uint64_t> rows(n * words, 0);
  for (const pp::Transition& tr : transitions)
    if (!tr.is_silent())
      rows[tr.q * words + tr.r / 64] |= std::uint64_t{1} << (tr.r % 64);
  std::size_t pairs = 0;
  for (const std::uint64_t word : rows) pairs += std::popcount(word);
  t.out_flat.reserve(pairs);
  t.out_begin.assign(n + 1, 0);
  for (pp::State q = 0; q < n; ++q) {
    for (std::size_t w = 0; w < words; ++w)
      for (std::uint64_t bits = rows[q * words + w]; bits != 0;
           bits &= bits - 1)
        t.out_flat.push_back(
            static_cast<pp::State>(w * 64 + std::countr_zero(bits)));
    t.out_begin[q + 1] = static_cast<std::uint32_t>(t.out_flat.size());
  }
  Derived d = derive(t);
  t.in_begin = std::move(d.in_begin);
  t.in_flat = std::move(d.in_flat);
  t.self_active = std::move(d.self_active);
  t.active_bits = std::move(d.active_bits);
  t.rank_base = std::move(d.rank_base);

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
