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
  }
  const auto filled = static_cast<std::uint32_t>(populated_.size());
  matrix_ok_ = filled <= kMatrixSlots;
  if (matrix_ok_) {
    if (act_.empty()) act_.assign(kMatrixSlots * kMatrixSlots, 0);
    col_mask_.fill(0);
  }
  partner_sum_.resize(filled);
  for (std::uint32_t slot = 0; slot < filled; ++slot) {
    const pp::State q = populated_[slot];
    partner_sum_[slot] =
        matrix_ok_ ? build_matrix_row(slot) : fresh_partner_sum(q);
    weight_push(counts_[q] * partner_sum_[slot]);
  }
}

void CountSimulator::reset(const pp::Config& initial, std::uint64_t seed) {
  for (const pp::State q : populated_) {
    counts_.remove(q, counts_[q]);
    position_[q] = kNoPosition;
  }
  populated_.clear();
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

std::uint64_t CountSimulator::fresh_partner_sum(pp::State q) const {
  // Zero-count partners contribute nothing, so the sum may run over either
  // the partner list or the populated list — whichever is shorter.
  std::uint64_t sum = compiled_->self_active(q) ? ~std::uint64_t{0} : 0;  // −1
  const auto partners = compiled_->partners_of(q);
  if (partners.size() <= populated_.size()) {
    for (pp::State r : partners) sum += counts_[r];
  } else {
    for (pp::State r : populated_)
      if (compiled_->pair_active(q, r)) sum += counts_[r];
  }
  return sum;
}

void CountSimulator::refresh_weight(std::uint32_t slot) {
  // A(q) >= 0 whenever C(q) >= 1 (a populated self-active state counts
  // itself); the only transiently "negative" A belongs to a slot whose
  // count just hit zero, where the product is zero anyway.
  ++metrics_.weight_updates;
  weight_set(slot, counts_[populated_[slot]] * partner_sum_[slot]);
}

std::uint64_t CountSimulator::build_matrix_row(std::uint32_t slot) {
  const pp::State q = populated_[slot];
  const auto filled = static_cast<std::uint32_t>(populated_.size());
  std::uint32_t* row = act_.data() + slot * kMatrixSlots;
  // Probe the populated slots (the slot itself included: its diagonal).
  // Only active cells are written — stale codes left at inactive positions
  // by the slot's previous occupant are unreachable, since every act_ read
  // is gated by a mask bit — and each gets the unresolved code 1, since
  // most pairs are never selected before the row is rebuilt.
  const std::uint64_t bit = std::uint64_t{1} << slot;
  std::uint64_t sum = compiled_->self_active(q) ? ~std::uint64_t{0} : 0;  // −1
  std::uint64_t mask = 0;
  for (std::uint32_t j = 0; j < filled; ++j) {
    const pp::State r = populated_[j];
    if (!compiled_->pair_active(q, r)) continue;
    row[j] = 1;
    col_mask_[j] |= bit;
    mask |= std::uint64_t{1} << j;
    sum += counts_[r];
  }
  row_mask_[slot] = mask;
  return sum;
}

void CountSimulator::change_count(pp::State state, std::int64_t delta) {
  if (delta > 0)
    counts_.add(state, static_cast<std::uint32_t>(delta));
  else
    counts_.remove(state, static_cast<std::uint32_t>(-delta));
  const auto shift = static_cast<std::uint64_t>(delta);  // two's complement
  if (protocol_->is_accepting(state)) accepting_ += shift;

  const auto filled = static_cast<std::uint32_t>(populated_.size());
  const bool appearing = position_[state] == kNoPosition;  // delta > 0 then
  if (matrix_ok_ && appearing && filled >= kMatrixSlots)
    matrix_ok_ = false;  // populated list outgrew the matrix; until reset

  // Every populated initiator q with (q, state) active sees its partner
  // sum move by delta.
  if (matrix_ok_) {
    // Walk the set bits of state's watcher mask. A state entering the
    // populated list gets its column built here, at the slot the append
    // below will assign (the A-loop must run while the slot list still
    // excludes `state` — its own partner sum comes fresh).
    std::uint32_t col = position_[state];
    if (appearing) {
      col = filled;
      const std::uint64_t bit = std::uint64_t{1} << col;
      std::uint64_t built = 0;
      // Activity is static, so the new column is just state's in-partner
      // list restricted to populated slots; each watcher's row mask gains
      // the column's bit. Only active cells are written (stale inactive
      // cells are unreachable behind the masks); walk whichever side is
      // shorter.
      if (const auto initiators = compiled_->initiators_meeting(state);
          initiators.size() <= filled) {
        for (pp::State p : initiators) {
          const std::uint32_t i = position_[p];
          if (i == kNoPosition) continue;
          act_[i * kMatrixSlots + col] = 1;  // pair position resolved lazily
          built |= std::uint64_t{1} << i;
          row_mask_[i] |= bit;
        }
      } else {
        for (std::uint32_t i = 0; i < filled; ++i)
          if (compiled_->pair_active(populated_[i], state)) {
            act_[i * kMatrixSlots + col] = 1;
            built |= std::uint64_t{1} << i;
            row_mask_[i] |= bit;
          }
      }
      col_mask_[col] = built;
    }
    for (std::uint64_t mask = col_mask_[col]; mask != 0; mask &= mask - 1) {
      const auto i = static_cast<std::uint32_t>(std::countr_zero(mask));
      partner_sum_[i] += shift;
      refresh_weight(i);
    }
  } else if (const auto initiators = compiled_->initiators_meeting(state);
             initiators.size() <= populated_.size()) {
    // Matrix-less fallback: walk whichever side is shorter — the
    // in-partner list of `state` or the populated list — the updated
    // slots are the same.
    for (pp::State p : initiators) {
      const std::uint32_t slot = position_[p];
      if (slot == kNoPosition) continue;
      partner_sum_[slot] += shift;
      refresh_weight(slot);
    }
  } else {
    for (std::uint32_t slot = 0; slot < filled; ++slot) {
      if (!compiled_->pair_active(populated_[slot], state)) continue;
      partner_sum_[slot] += shift;
      refresh_weight(slot);
    }
  }

  if (counts_[state] == 0) {
    // Swap-remove from the populated list (same list surgery as the seed
    // engine, so slot order — and with it every sampled index — evolves
    // identically); the moved slot's tree entries travel with it.
    const std::uint32_t hole = position_[state];
    const auto last = static_cast<std::uint32_t>(populated_.size() - 1);
    const pp::State moved = populated_[last];
    populated_[hole] = moved;
    position_[moved] = hole;
    populated_.pop_back();
    position_[state] = kNoPosition;
    if (hole != last) {
      partner_sum_[hole] = partner_sum_[last];
      weight_set(hole, weight_[last]);
      if (matrix_ok_) {
        // The moved slot's matrix row and column travel with it (codes are
        // slot-independent); the diagonal corner is saved first because
        // both loops write through the (hole, hole) cell. Cells at index
        // `last` go stale, which is fine — the next append rebuilds them.
        const std::uint32_t corner = act_[last * kMatrixSlots + last];
        for (std::uint32_t j = 0; j < last; ++j)
          act_[hole * kMatrixSlots + j] = act_[last * kMatrixSlots + j];
        for (std::uint32_t i = 0; i < last; ++i)
          act_[i * kMatrixSlots + hole] = act_[i * kMatrixSlots + last];
        act_[hole * kMatrixSlots + hole] = corner;
        // Relabel the row and column masks the same way: drop the removed
        // slot's bit (`hole`), move bit `last` down to `hole`, and move
        // mask `last` to `hole`. Masks carry no bits at or above the new
        // size.
        const std::uint64_t keep =
            ~((std::uint64_t{1} << hole) | (std::uint64_t{1} << last));
        const auto relabel = [&](std::uint64_t m) {
          return (m & keep) | (((m >> last) & 1) << hole);
        };
        col_mask_[hole] = relabel(col_mask_[last]);
        row_mask_[hole] = relabel(row_mask_[last]);
        for (std::uint32_t j = 0; j < last; ++j)
          if (j != hole) {
            col_mask_[j] = relabel(col_mask_[j]);
            row_mask_[j] = relabel(row_mask_[j]);
          }
      }
    } else if (matrix_ok_) {
      // Removed the final slot: just drop its bit everywhere.
      const std::uint64_t keep = ~(std::uint64_t{1} << last);
      for (std::uint32_t j = 0; j < last; ++j) {
        col_mask_[j] &= keep;
        row_mask_[j] &= keep;
      }
    }
    partner_sum_.pop_back();
    weight_pop();
    ++metrics_.depopulate_events;
  } else if (appearing) {
    const auto slot = static_cast<std::uint32_t>(populated_.size());
    position_[state] = slot;
    populated_.push_back(state);
    // Column `slot` was built before the A-loop; one probe pass builds the
    // row (diagonal included) and the fresh partner sum.
    partner_sum_.push_back(matrix_ok_ ? build_matrix_row(slot)
                                      : fresh_partner_sum(state));
    ++metrics_.weight_updates;
    weight_push(counts_[state] * partner_sum_[slot]);
    ++metrics_.populate_events;
  } else {
    refresh_weight(position_[state]);
  }
}

void CountSimulator::shift_pair(pp::State from, pp::State to) {
  // Fused fast path for the dominant firing shape on the converted
  // protocols: one agent moves between two already-populated states and
  // both stay populated, so no list or matrix surgery can occur. Beyond
  // halving the fixed bookkeeping, the fusion makes the typical firing
  // nearly update-free: an initiator active towards both `from` and `to`
  // sees the two partner-sum shifts cancel exactly, leaving only the two
  // moved slots' own weights to refresh — and a register state with no
  // partners of its own keeps weight 0, a no-op tree update.
  if (matrix_ok_ && counts_[from] > 1 && position_[to] != kNoPosition) {
    counts_.remove(from, 1);
    counts_.add(to, 1);
    if (protocol_->is_accepting(from)) --accepting_;
    if (protocol_->is_accepting(to)) ++accepting_;
    const std::uint32_t slot_from = position_[from];
    const std::uint32_t slot_to = position_[to];
    // Slots watching exactly one of the two states are the XOR of the two
    // watcher masks — empty for the typical firing, where the same
    // initiators watch both registers.
    const std::uint64_t gained = col_mask_[slot_to];
    std::uint64_t changed = col_mask_[slot_from] ^ gained;
    for (; changed != 0; changed &= changed - 1) {
      const auto i = static_cast<std::uint32_t>(std::countr_zero(changed));
      partner_sum_[i] += (gained >> i) & 1 ? std::uint64_t{1}
                                           : ~std::uint64_t{0};  // ±1
      refresh_weight(i);
    }
    refresh_weight(slot_from);
    refresh_weight(slot_to);
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
    // remainder, so walking the whole (ascending) partner list is exact.
    pp::State r = q;  // overwritten: the walk always selects
    for (pp::State partner : compiled_->partners_of(q)) {
      const std::uint64_t weight = weight_of(partner);
      if (remaining < weight) {
        r = partner;
        break;
      }
      remaining -= weight;
    }
    fire_cells(q, r, compiled_->entry_of(q, r));  // (q, r) is active
    return;
  }
  // For the same reason the walk may skip every unpopulated partner: it
  // visits the set bits of row_mask_[slot] — q's active populated partners
  // — in ascending state order. Typically there are one or two, so those
  // cases take no sort.
  std::uint64_t mask = row_mask_[slot];
  auto j = static_cast<std::uint32_t>(std::countr_zero(mask));
  mask &= mask - 1;
  if (mask != 0 && (mask & (mask - 1)) == 0) {
    auto k = static_cast<std::uint32_t>(std::countr_zero(mask));
    if (populated_[k] < populated_[j]) std::swap(j, k);
    if (remaining >= weight_of(populated_[j])) j = k;
  } else if (mask != 0) {
    // (state, slot) keys sort into ascending state order.
    std::array<std::uint64_t, kMatrixSlots> keys;
    std::size_t n = 0;
    for (mask = row_mask_[slot]; mask != 0; mask &= mask - 1) {
      const auto i = static_cast<std::uint32_t>(std::countr_zero(mask));
      keys[n++] = (std::uint64_t{populated_[i]} << 32) | i;
    }
    std::sort(keys.begin(), keys.begin() + n);
    for (std::size_t k = 0;; ++k) {
      j = static_cast<std::uint32_t>(keys[k]);
      const std::uint64_t weight = weight_of(populated_[j]);
      if (remaining < weight) break;
      remaining -= weight;
    }
  }
  const pp::State r = populated_[j];
  // The cell's code hands the firing its pair position, resolved on the
  // pair's first selection.
  std::uint32_t& code = act_[slot * kMatrixSlots + j];
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
