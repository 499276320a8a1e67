// Count-based simulation of population protocols (DESIGN.md S21).
//
// pp::Simulator stores one array slot per agent and spends one RNG draw per
// meeting — almost all of which are no-ops on the converted Czerner
// protocols, where a handful of pointer agents do all the work while the
// counted register agents idle. CountSimulator steps directly on the
// configuration's count vector in O(|Q|) memory and skips whole runs of
// null meetings in closed form:
//
//   * A meeting of an ordered state pair (q, r) is drawn with the exact
//     hypergeometric weight C(q)·(C(r) − [q=r]) / (m·(m−1)) — the
//     probability that a uniform ordered pair of distinct agents has the
//     initiator in q and the responder in r.
//   * Call (q, r) *active* if some transition for (q, r) changes a state.
//     With W = Σ_active C(q)·(C(r) − [q=r]) and T = m·(m−1), each meeting
//     is active with probability p = W/T independently, so the number of
//     null meetings before the next active one is Geometric(p):
//     k = ⌊ln U / ln(1−p)⌋ for U uniform on (0, 1]. The engine advances k
//     meetings with a single RNG draw, then samples one active pair with
//     weight proportional to C(q)·(C(r) − [q=r]) restricted to active
//     pairs, and fires a uniformly chosen candidate transition — exactly
//     the per-agent scheduler's law marginalised over the null meetings.
//
// The weights are maintained *incrementally*: each populated state q
// carries its partner sum A(q) = Σ_{r : (q,r) active} C(r) − [(q,q)
// active], and the per-slot weight C(q)·A(q) lives in a flat array with a
// running total W, so a firing — which changes at most four counts, each
// touching only the populated states adjacent to it — costs O(#populated)
// instead of a full rescan plus an O(in-degree) adjacency walk per count
// change. A bitset of the populated states, ANDed with the compiled
// tables' activity rows and transposed rows, lists a state's populated
// partners and watchers in ⌈|Q|/64⌉ word operations. While at most 64
// states are populated, a 64 × 64 activity matrix over stable matrix ids
// (an id stays with its state while the state is populated) caches those
// lists as 64-bit masks, and a lone agent moving into an empty state — the
// typical firing at certification populations — hands its id over in one
// fused update. The initiator slot is selected by the seed engine's linear
// prefix scan and the responder by its walk over active partners, and the
// populated list keeps the seed engine's swap-remove order, so the
// sequence of *configurations*, firings and consensus times for a given
// seed is bit-identical to the seed engine (the linear-scan oracle in
// tests/oracles.hpp) — and distributed
// identically to pp::Simulator's; only the interaction indices between
// firings are resampled, from the same geometric law (evaluated in double
// precision — the one approximation in the engine, and it never touches
// the state evolution).
//
// Populations of size < 2 have no ordered pairs: every meeting is vacuously
// null, the simulator reports frozen() immediately, and run_until_stable
// settles the (vacuous or single-agent) consensus in closed form.
#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "engine/metrics.hpp"
#include "isa/compiled.hpp"
#include "pp/config.hpp"
#include "pp/protocol.hpp"
#include "pp/simulator.hpp"
#include "support/rng.hpp"

namespace ppde::engine {

/// Drop-in counterpart of pp::Simulator that never materialises agents.
/// The protocol must be finalized and outlive the simulator; pair activity
/// and candidate cells come from its compiled tables (protocol.compiled()).
class CountSimulator {
 public:
  CountSimulator(const pp::Protocol& protocol, const pp::Config& initial,
                 std::uint64_t seed = 1);

  /// Rewind to `initial` with a fresh `seed`, keeping the protocol and
  /// every allocation. A reset simulator is indistinguishable from a
  /// freshly constructed one — trial fleets reuse one simulator per worker
  /// instead of reallocating O(|Q|) state every trial.
  void reset(const pp::Config& initial, std::uint64_t seed);

  /// Advance to the next active meeting and execute it: first jump past
  /// the (geometrically many) null meetings, so one call can advance
  /// interactions() by far more than 1. Returns true if a transition
  /// fired. If the simulation is frozen() the call advances a single
  /// (null) meeting and returns false — check frozen() in unbounded loops.
  bool step();

  /// Same stopping rule as pp::Simulator::run_until_stable: consensus must
  /// persist for options.stable_window meetings within
  /// options.max_interactions (options.seed is ignored; seeding happens at
  /// construction). Null runs are truncated exactly at the window/budget
  /// boundary, so the reported interaction indices agree with the
  /// per-agent semantics. A non-null `stop` is polled with a relaxed load
  /// every 2^16 firings; once it reads true the run ends unstabilised
  /// where it is.
  pp::SimulationResult run_until_stable(
      const pp::SimulationOptions& options,
      const std::atomic<bool>* stop = nullptr);

  std::uint64_t accepting_agents() const { return accepting_; }
  std::uint64_t population() const { return counts_.total(); }
  std::uint64_t interactions() const { return interactions_; }

  /// True iff all agents agree on an output right now (vacuously true for
  /// an empty population).
  std::optional<bool> consensus() const;

  /// True iff no meeting can ever change the configuration again (the
  /// total active-pair weight is zero — O(1), the weight is maintained
  /// incrementally). A frozen run's consensus — or lack of one — is
  /// permanent. Populations of size < 2 are always frozen.
  bool frozen() const;

  /// Current configuration — O(1), unlike pp::Simulator::config().
  const pp::Config& config() const { return counts_; }

  /// Remove one uniformly random agent among those whose state satisfies
  /// `eligible` (default: any agent); mirrors
  /// pp::Simulator::remove_random_agent.
  std::optional<pp::State> remove_random_agent(
      const std::function<bool(pp::State)>& eligible = nullptr);

  const RunMetrics& metrics() const { return metrics_; }

 private:
  /// Load `initial` into an empty simulator: counts, populated list and
  /// bitset, matrix ids, partner sums and slot weights.
  void load(const pp::Config& initial);
  /// Calls visit(r) for every populated state r whose bit is set in `row`
  /// (a bit row of the compiled tables), in ascending state order.
  template <typename Visit>
  void for_each_populated(std::span<const std::uint64_t> row,
                          Visit&& visit) const;
  /// A(q) = Σ_{r populated, (q,r) active} C(r) − [(q,q) active], computed
  /// from scratch over q's populated partners.
  std::uint64_t fresh_partner_sum(pp::State q) const;
  /// Store slot's weight C(q)·A(q).
  void refresh_weight(std::uint32_t slot);
  /// Memoise p = W/(m·(m−1)) and log1p(−p) for the current (W, m);
  /// returns true iff p < 1, i.e. a geometric draw is actually needed.
  bool geom_prepare(std::uint64_t active);
  /// Geometric number of null meetings before the next active one.
  std::uint64_t sample_null_run(std::uint64_t active);
  /// Account `count` meetings skipped without individual RNG draws.
  void advance_nulls(std::uint64_t count);
  /// Sample an active (q, r) by weight and fire a candidate. `active` must
  /// be the current weight_total_ (> 0).
  void apply_active_meeting(std::uint64_t active);
  void change_count(pp::State state, std::int64_t delta);
  /// Move one agent from `from` to `to` (`from` != `to`). Equivalent to
  /// change_count(from, -1); change_count(to, +1) — with fused paths for
  /// the two dominant firing shapes while the matrix is in use: both
  /// states stay populated, or a lone agent moves into an empty state.
  void shift_pair(pp::State from, pp::State to);
  /// The lone agent of `from` moves to the unpopulated `to`: `to` takes
  /// over `from`'s matrix id, the last slot moves into `from`'s hole and
  /// `to` takes the last slot — the list the two count changes leave —
  /// and only ids adjacent to `from` or `to` are touched.
  void move_singleton(pp::State from, pp::State to);
  /// Build matrix row `id` of the populated state q (unresolved activity
  /// codes, row_mask_[id] and the id's bit in every partner's col_mask_)
  /// and return A(q) — one walk over q's populated partners computes both.
  /// q must already be populated with its id assigned; counts must be
  /// current.
  std::uint64_t build_matrix_row(std::uint32_t id, pp::State q);
  /// Pick a candidate of active pair `pos` — no draw for a single
  /// candidate, one uniform draw otherwise — and execute its compiled
  /// cell.
  void fire_cells(pp::State q, pp::State r, std::uint32_t pos);

  void set_populated(pp::State q) {
    populated_bits_[q / 64] |= std::uint64_t{1} << (q % 64);
  }
  void clear_populated(pp::State q) {
    populated_bits_[q / 64] &= ~(std::uint64_t{1} << (q % 64));
  }
  /// Matrix id of a populated state.
  std::uint32_t id_of(pp::State q) const { return slot_id_[position_[q]]; }

  /// Per-slot active weight C(q)·A(q), keeping the running total W.
  void weight_set(std::size_t slot, std::uint64_t w) {
    weight_total_ += w - weight_[slot];
    weight_[slot] = w;
  }
  void weight_push(std::uint64_t w) {
    weight_.push_back(w);
    weight_total_ += w;
  }
  void weight_pop() {
    weight_total_ -= weight_.back();
    weight_.pop_back();
  }

  /// Allocator for the per-slot arrays below: every block starts on a
  /// cache line and spans whole lines, so no other allocation can share a
  /// line with it. Each fleet worker owns a simulator whose small per-slot
  /// arrays are written on nearly every firing, and malloc recycles blocks
  /// one thread freed for another (glibc's per-thread caches do), which can
  /// interleave two workers' arrays within one line. That false sharing
  /// made whole certify calls 1.5x slower on a 4-core host.
  template <typename T>
  struct LineAllocator {
    using value_type = T;
    static constexpr std::size_t kLine = 64;

    LineAllocator() = default;
    template <typename U>
    LineAllocator(const LineAllocator<U>&) {}

    T* allocate(std::size_t n) {
      const std::size_t bytes = (n * sizeof(T) + kLine - 1) / kLine * kLine;
      return static_cast<T*>(::operator new(bytes, std::align_val_t{kLine}));
    }
    void deallocate(T* p, std::size_t) {
      ::operator delete(p, std::align_val_t{kLine});
    }
    friend bool operator==(LineAllocator, LineAllocator) { return true; }
  };

  template <typename T>
  using LineVector = std::vector<T, LineAllocator<T>>;

  static constexpr std::uint32_t kNoPosition = 0xffffffffu;
  /// Matrix capacity in populated states; must stay <= 64 so a matrix
  /// column fits one col_mask_ word.
  static constexpr std::uint32_t kMatrixSlots = 64;

  const pp::Protocol* protocol_;
  const isa::CompiledProtocol* compiled_ = nullptr;  ///< protocol's tables
  pp::Config counts_;
  /// States with non-zero count, unordered; keeps all incremental
  /// bookkeeping O(#populated states) instead of O(|Q|) or O(degree) — on
  /// the converted Czerner protocols only a handful of the ~1.8k states
  /// are ever occupied while adjacency degrees reach |Q|.
  LineVector<pp::State> populated_;
  std::vector<std::uint32_t> position_;  ///< state -> index in populated_
  /// Bit q set iff C(q) > 0: ⌈|Q|/64⌉ words, kept current in every regime.
  /// ANDed with q's activity row it lists q's populated partners, with q's
  /// transposed row its populated watchers, both in ascending state order.
  LineVector<std::uint64_t> populated_bits_;
  /// partner_sum_[slot] = A(populated_[slot]); parallel to populated_.
  LineVector<std::uint64_t> partner_sum_;
  /// Per-slot active weights C(q)·A(q), parallel to populated_, and their
  /// running total W.
  LineVector<std::uint64_t> weight_;
  std::uint64_t weight_total_ = 0;
  /// Activity matrix over matrix ids. A state takes the lowest free id
  /// when it becomes populated and keeps it until it leaves — a
  /// swap-remove moves slots, never ids — so leaving costs one bit in each
  /// adjacent row or column, and no matrix cell ever moves. Cell
  /// act_[i * kMatrixSlots + j] caches the pair position of (state of id
  /// i, state of id j) when that pair is active: 1 — not yet resolved;
  /// c >= 2 — pair position c − 2, giving the firing path its candidate
  /// transitions. Row and column builds write 1 and the responder walk
  /// resolves a code through entry_of on the pair's first selection, so a
  /// pair never selected before its row is rebuilt costs no lookup. Only
  /// cells behind a row_mask_/col_mask_ bit are meaningful; the rest may
  /// hold stale codes. Maintained while the populated list fits in
  /// kMatrixSlots slots (matrix_ok_); beyond that the simulator walks the
  /// compiled rows against the populated bitset until the next reset.
  std::vector<std::uint32_t> act_;
  /// col_mask_[j]: bit i set iff (state of i, state of j) is active — the
  /// ids watching id j. A count change walks only the set bits, and the
  /// fused pair shift walks the XOR of two columns — empty whenever both
  /// states are watched by the same initiators, the typical firing.
  std::array<std::uint64_t, kMatrixSlots> col_mask_{};
  /// row_mask_[i]: bit j set iff (state of i, state of j) is active — the
  /// transpose of col_mask_, kept in the same loops. The responder walk
  /// visits exactly these partners (typically one or two) and orders them
  /// by state only when there are several.
  std::array<std::uint64_t, kMatrixSlots> row_mask_{};
  std::array<std::uint8_t, kMatrixSlots> slot_id_{};  ///< slot -> id
  std::array<std::uint8_t, kMatrixSlots> id_slot_{};  ///< id -> slot
  std::uint64_t free_ids_ = 0;                        ///< bit i: id i unused
  bool matrix_ok_ = false;
  /// Memoised geometric-law parameters for sample_null_run: log1p(−p) for
  /// the current (W, m). The dominant firing moves one agent between two
  /// register states watched by the same initiators, which leaves W — and
  /// hence p — unchanged, so the transcendental is evaluated once per
  /// distinct weight instead of once per firing. Pure memoisation: the
  /// cached value is bit-identical to recomputing it.
  std::uint64_t cached_active_ = 0;
  std::uint64_t cached_m_ = 0;
  double cached_p_ = 0.0;
  double cached_log1p_ = 0.0;
  std::uint64_t accepting_ = 0;
  std::uint64_t interactions_ = 0;
  RunMetrics metrics_;
  support::Rng rng_;
};

inline std::optional<bool> CountSimulator::consensus() const {
  if (accepting_ == counts_.total()) return true;
  if (accepting_ == 0) return false;
  return std::nullopt;
}

inline bool CountSimulator::frozen() const { return weight_total_ == 0; }

// The per-firing draw path, inline so run_until_stable and step() compile
// it straight into their loops.

inline bool CountSimulator::geom_prepare(std::uint64_t active) {
  // active > 0 implies m >= 2 (an active pair needs two distinct agents,
  // or C(q) >= 2 on a self-pair), so m·(m−1) never vanishes here.
  if (active != cached_active_ || counts_.total() != cached_m_) {
    cached_active_ = active;
    cached_m_ = counts_.total();
    const double m = static_cast<double>(cached_m_);
    cached_p_ = static_cast<double>(active) / (m * (m - 1.0));
    cached_log1p_ = 0.0;
    if (cached_p_ < 1.0) {
      ++metrics_.log_evals;
      cached_log1p_ = std::log1p(-cached_p_);
    }
  }
  return cached_p_ < 1.0;
}

inline std::uint64_t CountSimulator::sample_null_run(std::uint64_t active) {
  // U uniform on (0, 1]; 53-bit mantissa draw, shifted off zero. The
  // null-run length is ⌊ln U / ln(1−p)⌋ with exact underflow/overflow
  // clamps.
  if (!geom_prepare(active)) return 0;
  const double k =
      std::floor(std::log(support::to_unit_open(rng_())) / cached_log1p_);
  if (!(k >= 0.0)) return 0;
  if (k >= 1.8e19) return std::numeric_limits<std::uint64_t>::max() / 2;
  return static_cast<std::uint64_t>(k);
}

inline void CountSimulator::advance_nulls(std::uint64_t count) {
  if (count == 0) return;
  interactions_ += count;
  metrics_.meetings += count;
  metrics_.skipped_meetings += count;
  ++metrics_.null_skip_batches;
}

}  // namespace ppde::engine
