#include "verify/interner.hpp"

#include <algorithm>

namespace ppde::verify {

namespace {
constexpr std::uint32_t kInitialSlots = 64;  // per shard, power of two
}

Interner::Interner() {
  for (Shard& shard : shards_) shard.slots.resize(kInitialSlots);
  slots_ = kNumShards * kInitialSlots;
}

bool Interner::equals(const Slot& slot, std::span<const std::uint64_t> words,
                      std::uint32_t hash_lo) const {
  return slot.hash_lo == hash_lo &&
         std::ranges::equal(state(slot.id_plus_one - 1), words);
}

std::uint32_t Interner::find(std::span<const std::uint64_t> words,
                             std::uint64_t hash) const {
  const std::vector<Slot>& slots = shard_of(hash).slots;
  const std::uint32_t hash_lo = static_cast<std::uint32_t>(hash);
  const std::uint32_t mask = static_cast<std::uint32_t>(slots.size()) - 1;
  for (std::uint32_t slot = hash_lo & mask;; slot = (slot + 1) & mask) {
    if (slots[slot].id_plus_one == 0) return kNotFound;
    if (equals(slots[slot], words, hash_lo))
      return slots[slot].id_plus_one - 1;
  }
}

std::pair<std::uint32_t, bool> Interner::intern(
    std::span<const std::uint64_t> words, std::uint64_t hash) {
  Shard& shard = shard_of(hash);
  if ((shard.count + 1) * 4 >= shard.slots.size() * 3) grow(shard);
  const std::uint32_t hash_lo = static_cast<std::uint32_t>(hash);
  const std::uint32_t mask = static_cast<std::uint32_t>(shard.slots.size()) - 1;
  std::uint32_t slot = hash_lo & mask;
  for (; shard.slots[slot].id_plus_one != 0; slot = (slot + 1) & mask)
    if (equals(shard.slots[slot], words, hash_lo))
      return {shard.slots[slot].id_plus_one - 1, false};
  const std::uint32_t id = size();
  nodes_.push_back(arena_.append(words));
  shard.slots[slot] = {id + 1, hash_lo};
  ++shard.count;
  return {id, true};
}

void Interner::release_index() {
  for (Shard& shard : shards_) shard = Shard{};
  slots_ = 0;
}

void Interner::grow(Shard& shard) {
  std::vector<Slot> old(shard.slots.size() * 2);
  old.swap(shard.slots);
  slots_ += old.size();
  const std::uint32_t mask = static_cast<std::uint32_t>(shard.slots.size()) - 1;
  for (const Slot& entry : old) {
    if (entry.id_plus_one == 0) continue;
    std::uint32_t slot = entry.hash_lo & mask;
    while (shard.slots[slot].id_plus_one != 0) slot = (slot + 1) & mask;
    shard.slots[slot] = entry;
  }
}

}  // namespace ppde::verify
