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
// change. The initiator slot is selected by the seed engine's linear
// prefix scan and the responder by its walk over active partners, so the
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
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "engine/metrics.hpp"
#include "isa/compiled.hpp"
#include "pp/config.hpp"
#include "pp/protocol.hpp"
#include "pp/simulator.hpp"
#include "support/rng.hpp"

namespace ppde::engine {

/// Activity structure of a finalized protocol: which ordered state pairs
/// (q, r) have at least one non-silent transition. Since S26 this is a
/// thin view over the protocol's isa::CompiledProtocol — the engine no
/// longer builds its own adjacency/candidate/bitset copies. Immutable,
/// O(1) to construct, and safe to share across threads; it keeps the
/// compiled tables alive via shared ownership.
class PairIndex {
 public:
  explicit PairIndex(const pp::Protocol& protocol)
      : compiled_(protocol.compiled_ptr()) {
    if (!compiled_)
      throw std::logic_error("PairIndex: protocol not finalized");
  }

  /// The compiled IR behind this view.
  const isa::CompiledProtocol& compiled() const { return *compiled_; }

  /// States r such that (q, r) is active, q as the initiator; ascending.
  std::span<const pp::State> partners_of(pp::State q) const {
    return compiled_->partners_of(q);
  }

  /// The compiled cells of the active pair at *pair position* `pos`
  /// (compiled().entry_of(q, r)), one per candidate transition, in the
  /// order of Protocol::transitions_for.
  std::span<const isa::Cell> pair_cells(std::uint32_t pos) const {
    return compiled_->cells(pos);
  }
  /// States q such that (q, r) is active, r as the responder.
  std::span<const pp::State> initiators_meeting(pp::State r) const {
    return compiled_->initiators_meeting(r);
  }
  /// True iff (q, q) is active.
  bool self_active(pp::State q) const { return compiled_->self_active(q); }

  /// True iff (q, r) is active. O(1) via a dense pair bitset for protocols
  /// up to kBitsetStates states (97 KB at the converted Czerner n = 1's
  /// 880 states), O(log out-degree) binary search beyond that.
  bool pair_active(pp::State q, pp::State r) const {
    return compiled_->pair_active(q, r);
  }

  std::size_t num_states() const { return compiled_->num_states(); }
  std::size_t num_active_pairs() const {
    return compiled_->num_active_pairs();
  }

 private:
  std::shared_ptr<const isa::CompiledProtocol> compiled_;
};

/// Drop-in counterpart of pp::Simulator that never materialises agents.
/// The protocol (and the PairIndex, if supplied) must outlive the
/// simulator.
class CountSimulator {
 public:
  CountSimulator(const pp::Protocol& protocol, const pp::Config& initial,
                 std::uint64_t seed = 1);
  /// Shares a prebuilt PairIndex (one per protocol, reused across trials).
  CountSimulator(const pp::Protocol& protocol, const PairIndex& index,
                 const pp::Config& initial, std::uint64_t seed = 1);

  /// Rewind to `initial` with a fresh `seed`, keeping the protocol, index
  /// and every allocation. A reset simulator is indistinguishable from a
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
  CountSimulator(std::unique_ptr<const PairIndex> owned,
                 const pp::Protocol& protocol, const pp::Config& initial,
                 std::uint64_t seed);

  /// Load `initial` into an empty simulator: counts, populated list,
  /// partner sums and slot weights.
  void load(const pp::Config& initial);
  /// A(q) = Σ_{r populated, (q,r) active} C(r) − [(q,q) active], computed
  /// from scratch over the cheaper of partners_of(q) / the populated list.
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
  /// change_count(from, -1); change_count(to, +1) — with a fused fast path
  /// for the dominant firing shape, where both states stay populated.
  void shift_pair(pp::State from, pp::State to);
  /// Build matrix row `slot` (unresolved activity codes, row_mask_[slot]
  /// and the slot's bit in every partner's col_mask_) and return
  /// A(populated_[slot]) — one pass over the populated slots computes
  /// both. The slot must already be in the populated list; counts must be
  /// current.
  std::uint64_t build_matrix_row(std::uint32_t slot);
  /// Pick a candidate of active pair `pos` — no draw for a single
  /// candidate, one uniform draw otherwise — and execute its compiled
  /// cell.
  void fire_cells(pp::State q, pp::State r, std::uint32_t pos);

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
  /// Populated-list capacity of the activity matrix; must stay <= 64 so a
  /// matrix column fits one col_mask_ word.
  static constexpr std::uint32_t kMatrixSlots = 64;

  const pp::Protocol* protocol_;
  std::unique_ptr<const PairIndex> owned_index_;
  const PairIndex* index_;
  pp::Config counts_;
  /// States with non-zero count, unordered; keeps all incremental
  /// bookkeeping O(#populated states) instead of O(|Q|) or O(degree) — on
  /// the converted Czerner protocols only a handful of the ~1.8k states
  /// are ever occupied while adjacency degrees reach |Q|.
  LineVector<pp::State> populated_;
  std::vector<std::uint32_t> position_;  ///< state -> index in populated_
  /// partner_sum_[slot] = A(populated_[slot]); parallel to populated_.
  LineVector<std::uint64_t> partner_sum_;
  /// Per-slot active weights C(q)·A(q), parallel to populated_, and their
  /// running total W.
  LineVector<std::uint64_t> weight_;
  std::uint64_t weight_total_ = 0;
  /// Slot-by-slot activity matrix over the populated list. Cell
  /// act_[i * kMatrixSlots + j] caches the pair position of (populated_[i],
  /// populated_[j]) when that pair is active: 1 — not yet resolved; c >= 2
  /// — pair position c − 2, giving the firing path its candidate
  /// transitions. Row and column builds write 1 and the responder walk
  /// resolves a code through entry_of on the pair's first selection, so a
  /// pair never selected before its row is rebuilt costs no lookup. Only
  /// cells behind a row_mask_/col_mask_ bit are meaningful; the rest may
  /// hold stale codes. PairIndex is consulted only when a state enters the
  /// populated list. Maintained while the populated list fits in
  /// kMatrixSlots slots (matrix_ok_); beyond that the simulator falls back
  /// to PairIndex until the next reset.
  std::vector<std::uint32_t> act_;
  /// col_mask_[j]: bit i set iff (populated_[i], populated_[j]) is active —
  /// the initiator slots watching populated_[j], as a 64-bit set mirroring
  /// matrix column j. A count change walks only the set bits, and the
  /// fused pair shift walks the XOR of two columns — empty whenever both
  /// states are watched by the same initiators, the typical firing.
  std::array<std::uint64_t, kMatrixSlots> col_mask_{};
  /// row_mask_[i]: bit j set iff (populated_[i], populated_[j]) is active —
  /// the transpose of col_mask_, kept in the same loops. The responder
  /// walk visits exactly these partners (typically one or two) and orders
  /// them by state only when there are several.
  std::array<std::uint64_t, kMatrixSlots> row_mask_{};
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
    cached_log1p_ = cached_p_ < 1.0 ? std::log1p(-cached_p_) : 0.0;
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
