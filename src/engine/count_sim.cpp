#include "engine/count_sim.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"

namespace ppde::engine {

CountSimulator::CountSimulator(const pp::Protocol& protocol,
                               const pp::Config& initial, std::uint64_t seed)
    : protocol_(&protocol),
      counts_(protocol.num_states()),
      position_(protocol.num_states(), kNoPosition),
      rng_(seed) {
  if (!protocol.finalized())
    throw std::logic_error("CountSimulator: protocol not finalized");
  compiled_ = &protocol.compiled();
  populated_bits_.assign(compiled_->row_words(), 0);
  load(initial);
}

void CountSimulator::load(const pp::Config& initial) {
  if (initial.num_states() > protocol_->num_states())
    throw std::invalid_argument("CountSimulator: config has unknown states");
  for (pp::State q = 0; q < initial.num_states(); ++q)
    if (initial[q] != 0) counts_.add(q, initial[q]);
  for (pp::State q = 0; q < counts_.num_states(); ++q) {
    if (counts_[q] == 0) continue;
    if (protocol_->is_accepting(q)) accepting_ += counts_[q];
    position_[q] = static_cast<std::uint32_t>(populated_.size());
    populated_.push_back(q);
    set_populated(q);
  }
  const auto filled = static_cast<std::uint32_t>(populated_.size());
  matrix_ok_ = filled <= kMatrixSlots;
  if (matrix_ok_) {
    if (act_.empty()) act_.assign(kMatrixSlots * kMatrixSlots, 0);
    col_mask_.fill(0);
    // Ids start out equal to slots; the rest are free.
    for (std::uint32_t slot = 0; slot < filled; ++slot)
      slot_id_[slot] = id_slot_[slot] = static_cast<std::uint8_t>(slot);
    free_ids_ = filled == kMatrixSlots ? 0 : ~std::uint64_t{0} << filled;
  }
  partner_sum_.resize(filled);
  for (std::uint32_t slot = 0; slot < filled; ++slot) {
    const pp::State q = populated_[slot];
    partner_sum_[slot] =
        matrix_ok_ ? build_matrix_row(slot, q) : fresh_partner_sum(q);
    weight_push(counts_[q] * partner_sum_[slot]);
  }
}

void CountSimulator::reset(const pp::Config& initial, std::uint64_t seed) {
  for (const pp::State q : populated_) {
    counts_.remove(q, counts_[q]);
    position_[q] = kNoPosition;
  }
  populated_.clear();
  std::fill(populated_bits_.begin(), populated_bits_.end(), 0);
  partner_sum_.clear();
  weight_.clear();
  weight_total_ = 0;
  cached_active_ = 0;  // sample_null_run never sees W == 0; forces recompute
  accepting_ = 0;
  interactions_ = 0;
  metrics_ = RunMetrics{};
  rng_.reseed(seed);
  load(initial);
}

template <typename Visit>
void CountSimulator::for_each_populated(std::span<const std::uint64_t> row,
                                        Visit&& visit) const {
  for (std::size_t w = 0; w < row.size(); ++w)
    for (std::uint64_t bits = row[w] & populated_bits_[w]; bits != 0;
         bits &= bits - 1)
      visit(static_cast<pp::State>(w * 64 + std::countr_zero(bits)));
}

std::uint64_t CountSimulator::fresh_partner_sum(pp::State q) const {
  std::uint64_t sum = compiled_->self_active(q) ? ~std::uint64_t{0} : 0;  // −1
  for_each_populated(compiled_->active_row(q),
                     [&](pp::State r) { sum += counts_[r]; });
  return sum;
}

void CountSimulator::refresh_weight(std::uint32_t slot) {
  // A(q) >= 0 whenever C(q) >= 1 (a populated self-active state counts
  // itself); the only transiently "negative" A belongs to a slot whose
  // count just hit zero, where the product is zero anyway.
  ++metrics_.weight_updates;
  weight_set(slot, counts_[populated_[slot]] * partner_sum_[slot]);
}

std::uint64_t CountSimulator::build_matrix_row(std::uint32_t id,
                                               pp::State q) {
  std::uint32_t* row = act_.data() + id * kMatrixSlots;
  // Only active cells are written — stale codes left at inactive positions
  // by the id's previous holders are unreachable, since every act_ read is
  // gated by a mask bit — and each gets the unresolved code 1, since most
  // pairs are never selected before the row is rebuilt. q's own bit in
  // the populated set makes the diagonal one of the partners.
  const std::uint64_t bit = std::uint64_t{1} << id;
  std::uint64_t sum = compiled_->self_active(q) ? ~std::uint64_t{0} : 0;  // −1
  std::uint64_t mask = 0;
  for_each_populated(compiled_->active_row(q), [&](pp::State r) {
    const std::uint32_t j = id_of(r);
    row[j] = 1;
    col_mask_[j] |= bit;
    mask |= std::uint64_t{1} << j;
    sum += counts_[r];
  });
  row_mask_[id] = mask;
  return sum;
}

void CountSimulator::change_count(pp::State state, std::int64_t delta) {
  if (delta > 0)
    counts_.add(state, static_cast<std::uint32_t>(delta));
  else
    counts_.remove(state, static_cast<std::uint32_t>(-delta));
  const auto shift = static_cast<std::uint64_t>(delta);  // two's complement
  if (protocol_->is_accepting(state)) accepting_ += shift;

  const bool appearing = position_[state] == kNoPosition;  // delta > 0 then
  if (matrix_ok_ && appearing && populated_.size() >= kMatrixSlots)
    matrix_ok_ = false;  // populated list outgrew the matrix; until reset

  // Every populated initiator q with (q, state) active sees its partner
  // sum move by delta. An appearing state is not in the populated set yet:
  // it is not its own watcher, its own partner sum comes fresh below.
  const auto shift_watcher = [&](std::uint32_t slot) {
    partner_sum_[slot] += shift;
    refresh_weight(slot);
  };
  std::uint32_t id = 0;  // state's matrix id while matrix_ok_
  if (!matrix_ok_) {
    for_each_populated(compiled_->in_row(state), [&](pp::State p) {
      shift_watcher(position_[p]);
    });
  } else if (appearing) {
    // The new column: state's populated watchers, each of whose rows gains
    // the column's bit.
    id = static_cast<std::uint32_t>(std::countr_zero(free_ids_));
    free_ids_ &= free_ids_ - 1;
    const std::uint64_t bit = std::uint64_t{1} << id;
    std::uint64_t watchers = 0;
    for_each_populated(compiled_->in_row(state), [&](pp::State p) {
      const std::uint32_t i = id_of(p);
      act_[i * kMatrixSlots + id] = 1;  // pair position resolved lazily
      row_mask_[i] |= bit;
      watchers |= std::uint64_t{1} << i;
      shift_watcher(position_[p]);
    });
    col_mask_[id] = watchers;
  } else {
    id = id_of(state);
    for (std::uint64_t mask = col_mask_[id]; mask != 0; mask &= mask - 1)
      shift_watcher(id_slot_[std::countr_zero(mask)]);
  }

  if (counts_[state] == 0) {
    // Swap-remove from the populated list (same list surgery as the seed
    // engine, so slot order — and with it every sampled index — evolves
    // identically); the moved slot's entries travel with it.
    const std::uint32_t hole = position_[state];
    const auto last = static_cast<std::uint32_t>(populated_.size() - 1);
    const pp::State moved = populated_[last];
    if (matrix_ok_) {
      // The freed id leaves its watchers' rows and its partners' columns;
      // the moved slot keeps its id.
      const std::uint64_t keep = ~(std::uint64_t{1} << id);
      for (std::uint64_t mask = col_mask_[id]; mask != 0; mask &= mask - 1)
        row_mask_[std::countr_zero(mask)] &= keep;
      for (std::uint64_t mask = row_mask_[id]; mask != 0; mask &= mask - 1)
        col_mask_[std::countr_zero(mask)] &= keep;
      free_ids_ |= ~keep;
      slot_id_[hole] = slot_id_[last];
      id_slot_[slot_id_[hole]] = static_cast<std::uint8_t>(hole);
    }
    populated_[hole] = moved;
    position_[moved] = hole;
    populated_.pop_back();
    position_[state] = kNoPosition;
    clear_populated(state);
    partner_sum_[hole] = partner_sum_[last];
    weight_set(hole, weight_[last]);
    partner_sum_.pop_back();
    weight_pop();
    ++metrics_.depopulate_events;
  } else if (appearing) {
    const auto slot = static_cast<std::uint32_t>(populated_.size());
    position_[state] = slot;
    populated_.push_back(state);
    set_populated(state);
    if (matrix_ok_) {
      slot_id_[slot] = static_cast<std::uint8_t>(id);
      id_slot_[id] = static_cast<std::uint8_t>(slot);
    }
    // One walk over the populated partners (diagonal included) builds the
    // row and the fresh partner sum.
    partner_sum_.push_back(matrix_ok_ ? build_matrix_row(id, state)
                                      : fresh_partner_sum(state));
    ++metrics_.weight_updates;
    weight_push(counts_[state] * partner_sum_[slot]);
    ++metrics_.populate_events;
  } else {
    refresh_weight(position_[state]);
  }
}

void CountSimulator::move_singleton(pp::State from, pp::State to) {
  counts_.remove(from, 1);
  counts_.add(to, 1);
  if (protocol_->is_accepting(from)) --accepting_;
  if (protocol_->is_accepting(to)) ++accepting_;
  const std::uint32_t hole = position_[from];
  const auto last = static_cast<std::uint32_t>(populated_.size() - 1);
  const std::uint32_t id = slot_id_[hole];  // from's id, now to's
  const std::uint64_t bit = std::uint64_t{1} << id;
  if (hole != last) {
    const pp::State moved = populated_[last];
    populated_[hole] = moved;
    position_[moved] = hole;
    partner_sum_[hole] = partner_sum_[last];
    weight_set(hole, weight_[last]);
    slot_id_[hole] = slot_id_[last];
    id_slot_[slot_id_[hole]] = static_cast<std::uint8_t>(hole);
  }
  populated_[last] = to;
  position_[to] = last;
  position_[from] = kNoPosition;
  slot_id_[last] = static_cast<std::uint8_t>(id);
  id_slot_[id] = static_cast<std::uint8_t>(last);
  clear_populated(from);
  set_populated(to);

  // One pass over the populated words lists to's watchers (its
  // transposed row) and partners (its activity row), both as masks of ids,
  // writing the unresolved code 1 into every active cell of column and row
  // `id` and summing the fresh partner sum.
  const auto watched_by = compiled_->in_row(to);
  const auto meets = compiled_->active_row(to);
  std::uint32_t* row = act_.data() + id * kMatrixSlots;
  std::uint64_t watchers = 0;
  std::uint64_t partners = 0;
  std::uint64_t sum = compiled_->self_active(to) ? ~std::uint64_t{0} : 0;  // −1
  for (std::size_t w = 0; w < meets.size(); ++w) {
    const std::uint64_t populated = populated_bits_[w];
    for (std::uint64_t bits = watched_by[w] & populated; bits != 0;
         bits &= bits - 1) {
      const std::uint32_t i =
          id_of(static_cast<pp::State>(w * 64 + std::countr_zero(bits)));
      act_[i * kMatrixSlots + id] = 1;
      watchers |= std::uint64_t{1} << i;
    }
    for (std::uint64_t bits = meets[w] & populated; bits != 0;
         bits &= bits - 1) {
      const auto r = static_cast<pp::State>(w * 64 + std::countr_zero(bits));
      const std::uint32_t j = id_of(r);
      row[j] = 1;
      partners |= std::uint64_t{1} << j;
      sum += counts_[r];
    }
  }
  // Column `id` goes from from's watchers to to's. A state watching both
  // keeps its partner sum (−1 for from, +1 for to); one watching exactly
  // one of them moves by ±1 and flips bit `id` of its row. Row `id` goes
  // from from's partners to to's, flipping bit `id` of the columns that
  // change. The diagonal bits are the new masks' own.
  for (std::uint64_t changed = (col_mask_[id] ^ watchers) & ~bit;
       changed != 0; changed &= changed - 1) {
    const auto i = static_cast<std::uint32_t>(std::countr_zero(changed));
    row_mask_[i] ^= bit;
    const std::uint32_t slot = id_slot_[i];
    partner_sum_[slot] += (watchers >> i) & 1 ? std::uint64_t{1}
                                              : ~std::uint64_t{0};  // ±1
    refresh_weight(slot);
  }
  for (std::uint64_t changed = (row_mask_[id] ^ partners) & ~bit;
       changed != 0; changed &= changed - 1)
    col_mask_[std::countr_zero(changed)] ^= bit;
  col_mask_[id] = watchers;
  row_mask_[id] = partners;
  partner_sum_[last] = sum;
  ++metrics_.weight_updates;
  weight_set(last, sum);  // C(to) = 1
  ++metrics_.populate_events;
  ++metrics_.depopulate_events;
}

void CountSimulator::shift_pair(pp::State from, pp::State to) {
  if (matrix_ok_ && position_[to] != kNoPosition && counts_[from] > 1) {
    // Fused fast path for the dominant firing shape at large populations:
    // one agent moves between two already-populated states and both stay
    // populated, so no list or matrix surgery can occur. Beyond halving
    // the fixed bookkeeping, the fusion makes the typical firing nearly
    // update-free: an initiator active towards both `from` and `to` sees
    // the two partner-sum shifts cancel exactly, leaving only the two
    // moved slots' own weights to refresh — and a register state with no
    // partners of its own keeps weight 0, a no-op update.
    counts_.remove(from, 1);
    counts_.add(to, 1);
    if (protocol_->is_accepting(from)) --accepting_;
    if (protocol_->is_accepting(to)) ++accepting_;
    const std::uint32_t slot_from = position_[from];
    const std::uint32_t slot_to = position_[to];
    // Ids watching exactly one of the two states are the XOR of the two
    // watcher masks — empty for the typical firing, where the same
    // initiators watch both registers.
    const std::uint64_t gained = col_mask_[slot_id_[slot_to]];
    std::uint64_t changed = col_mask_[slot_id_[slot_from]] ^ gained;
    for (; changed != 0; changed &= changed - 1) {
      const auto i = static_cast<std::uint32_t>(std::countr_zero(changed));
      const std::uint32_t slot = id_slot_[i];
      partner_sum_[slot] += (gained >> i) & 1 ? std::uint64_t{1}
                                              : ~std::uint64_t{0};  // ±1
      refresh_weight(slot);
    }
    refresh_weight(slot_from);
    refresh_weight(slot_to);
    return;
  }
  if (matrix_ok_ && position_[to] == kNoPosition && counts_[from] == 1) {
    move_singleton(from, to);  // the typical firing at small populations
    return;
  }
  change_count(from, -1);
  change_count(to, +1);
}

void CountSimulator::fire_cells(pp::State q, pp::State r, std::uint32_t pos) {
  ++metrics_.firings;
  const auto cells = compiled_->cells(pos);
  const isa::Cell& cell =
      cells.size() == 1 ? cells[0] : cells[rng_.below(cells.size())];
  // The initiator moves first, preserving the seed engine's list surgery
  // order (a swap included).
  if (cell.q2 != q) shift_pair(q, cell.q2);
  if (cell.r2 != r) shift_pair(r, cell.r2);
}

void CountSimulator::apply_active_meeting(std::uint64_t active) {
  const std::uint64_t target = rng_.below(active);
  // The seed engine's linear prefix scan over the slot weights.
  std::uint64_t remaining = target;
  std::size_t slot = 0;
  while (remaining >= weight_[slot]) remaining -= weight_[slot++];
  const pp::State q = populated_[slot];
  const std::uint64_t cq = counts_[q];
  // The seed engine's responder walk: q's active partners in ascending
  // state order, each absorbing its pair weight, until one exceeds the
  // remainder (one always does: remaining < the slot's weight).
  const auto weight_of = [&](pp::State partner) {
    return cq * (counts_[partner] - (partner == q ? 1 : 0));
  };
  if (!matrix_ok_) {
    // A zero-count partner carries zero weight and never absorbs the
    // remainder, so walking q's populated partners (ascending) is exact.
    const auto row = compiled_->active_row(q);
    std::size_t w = 0;
    std::uint64_t bits = row[0] & populated_bits_[0];
    for (;; bits &= bits - 1) {
      while (bits == 0) {
        ++w;
        bits = row[w] & populated_bits_[w];
      }
      const auto r = static_cast<pp::State>(w * 64 + std::countr_zero(bits));
      const std::uint64_t weight = weight_of(r);
      if (remaining < weight) {
        fire_cells(q, r, compiled_->entry_of(q, r));  // (q, r) is active
        return;
      }
      remaining -= weight;
    }
  }
  // For the same reason the walk may skip every unpopulated partner: it
  // visits the set bits of q's matrix row — q's active populated partners,
  // by id — in ascending state order. Typically there are one or two, so
  // those cases take no sort.
  const std::uint32_t id = slot_id_[slot];
  const auto state_of = [&](std::uint32_t i) {
    return populated_[id_slot_[i]];
  };
  std::uint64_t mask = row_mask_[id];
  auto j = static_cast<std::uint32_t>(std::countr_zero(mask));
  mask &= mask - 1;
  if (mask != 0 && (mask & (mask - 1)) == 0) {
    auto k = static_cast<std::uint32_t>(std::countr_zero(mask));
    if (state_of(k) < state_of(j)) std::swap(j, k);
    if (remaining >= weight_of(state_of(j))) j = k;
  } else if (mask != 0) {
    // (state, id) keys sort into ascending state order.
    std::array<std::uint64_t, kMatrixSlots> keys;
    std::size_t n = 0;
    for (mask = row_mask_[id]; mask != 0; mask &= mask - 1) {
      const auto i = static_cast<std::uint32_t>(std::countr_zero(mask));
      keys[n++] = (std::uint64_t{state_of(i)} << 32) | i;
    }
    std::sort(keys.begin(), keys.begin() + n);
    for (std::size_t k = 0;; ++k) {
      j = static_cast<std::uint32_t>(keys[k]);
      const std::uint64_t weight = weight_of(state_of(j));
      if (remaining < weight) break;
      remaining -= weight;
    }
  }
  const pp::State r = state_of(j);
  // The cell's code hands the firing its pair position, resolved on the
  // pair's first selection.
  std::uint32_t& code = act_[id * kMatrixSlots + j];
  if (code == 1) code = compiled_->entry_of(q, r) + 2;
  fire_cells(q, r, code - 2);
}

bool CountSimulator::step() {
  const std::uint64_t active = weight_total_;
  if (active == 0) {
    ++interactions_;
    ++metrics_.meetings;
    return false;
  }
  // One fused update for the null run plus the firing meeting itself.
  const std::uint64_t skip = sample_null_run(active);
  interactions_ += skip + 1;
  metrics_.meetings += skip + 1;
  if (skip != 0) {
    metrics_.skipped_meetings += skip;
    ++metrics_.null_skip_batches;
  }
  apply_active_meeting(active);
  return true;
}

pp::SimulationResult CountSimulator::run_until_stable(
    const pp::SimulationOptions& options, const std::atomic<bool>* stop) {
  // One span per run (S24); the meeting loop itself carries zero
  // instrumentation — the hot path stays untouched.
  obs::ObsSpan span("run_until_stable", "sim");
  const auto start_time = std::chrono::steady_clock::now();
  pp::SimulationResult result;
  std::uint64_t consensus_start = interactions_;
  std::optional<bool> held = consensus();
  const auto stabilise = [&] {
    result.stabilised = true;
    result.output = *held;
    result.consensus_since = consensus_start;
  };
  // One iteration per firing: at most one geometric draw, then the null
  // run is truncated exactly at the window/budget boundary or one active
  // meeting fires.
  while (interactions_ < options.max_interactions) {
    const std::uint64_t active = weight_total_;
    const std::uint64_t stable_at = consensus_start + options.stable_window;
    if (active == 0) {
      // Frozen (including any population of size < 2): every future
      // meeting is null, so the current consensus (or its absence) is
      // permanent. Realise just enough nulls to hit the window or the
      // budget.
      if (held.has_value() && stable_at <= options.max_interactions) {
        advance_nulls(stable_at - interactions_);
        stabilise();
      } else {
        advance_nulls(options.max_interactions - interactions_);
      }
      break;
    }
    const std::uint64_t skip = sample_null_run(active);
    if (held.has_value() && stable_at <= interactions_ + skip) {
      // The window completes during the null run, before the next firing.
      advance_nulls(stable_at - interactions_);
      stabilise();
      break;
    }
    if (interactions_ + skip >= options.max_interactions) {
      advance_nulls(options.max_interactions - interactions_);
      break;
    }
    advance_nulls(skip);
    ++interactions_;
    ++metrics_.meetings;
    apply_active_meeting(active);
    const std::optional<bool> now = consensus();
    if (now != held) {
      held = now;
      consensus_start = interactions_;
      ++metrics_.consensus_flips;
    }
    if (held.has_value() &&
        interactions_ - consensus_start >= options.stable_window) {
      stabilise();
      break;
    }
    if (stop != nullptr && (metrics_.firings & pp::kStopPollMask) == 0 &&
        stop->load(std::memory_order_relaxed))
      break;
  }
  result.interactions = interactions_;
  result.parallel_time =
      population() != 0
          ? static_cast<double>(interactions_) /
                static_cast<double>(population())
          : 0.0;
  metrics_.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return result;
}

std::optional<pp::State> CountSimulator::remove_random_agent(
    const std::function<bool(pp::State)>& eligible) {
  if (counts_.total() <= 2) return std::nullopt;
  std::uint64_t eligible_total = 0;
  for (pp::State q = 0; q < counts_.num_states(); ++q)
    if (counts_[q] != 0 && (!eligible || eligible(q)))
      eligible_total += counts_[q];
  if (eligible_total == 0) return std::nullopt;
  std::uint64_t target = rng_.below(eligible_total);
  for (pp::State q = 0; q < counts_.num_states(); ++q) {
    if (counts_[q] == 0 || (eligible && !eligible(q))) continue;
    if (target < counts_[q]) {
      change_count(q, -1);
      return q;
    }
    target -= counts_[q];
  }
  return std::nullopt;  // unreachable
}

}  // namespace ppde::engine
