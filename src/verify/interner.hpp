// Sharded state interner for the verification kernel (S22).
//
// Every exhaustive explorer in this library maps variable-length encoded
// states (packed protocol configurations, program nodes, machine nodes —
// all sequences of u64 words) to dense u32 node ids. States live back to
// back in an append-only chunked arena (support/chunked.hpp) that never
// moves, and each node keeps one 8-byte arena handle. Ids are found
// through open-addressing tables sharded by the top hash bits; a slot
// holds the id and the low 32 hash bits, so neither a probe nor a table
// growth reads anything but the slot until a hash matches.
//
// Once no state will be interned or looked up again, release_index()
// frees the tables; the stored states stay readable by id.
//
// Concurrency contract (what the kernel's wave discipline relies on):
//   * intern() must only be called from one thread at a time (the kernel
//     calls it from the sequential merge pass of each wave);
//   * find() and state() are safe to call concurrently with each other
//     and with nothing else — i.e. during the parallel expansion phase,
//     when the interner is immutable. They are NOT safe concurrently
//     with intern().
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/chunked.hpp"
#include "support/hash.hpp"

namespace ppde::verify {

/// Hash of an encoded state; the seed matches support::hash_range so the
/// same words hash identically regardless of container type.
inline std::uint64_t hash_words(std::span<const std::uint64_t> words) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const std::uint64_t w : words) h = support::hash_combine(h, w);
  return h;
}

class Interner {
 public:
  static constexpr std::uint32_t kNotFound = 0xffffffffu;

  Interner();

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  /// The stored words of node `id`; valid for the interner's lifetime.
  std::span<const std::uint64_t> state(std::uint32_t id) const {
    return arena_.view(nodes_[id]);
  }

  /// Id of `words` if already interned, else kNotFound. Read-only.
  std::uint32_t find(std::span<const std::uint64_t> words,
                     std::uint64_t hash) const;

  /// Id of `words`, interning it if new; second = inserted.
  std::pair<std::uint32_t, bool> intern(std::span<const std::uint64_t> words,
                                        std::uint64_t hash);

  /// Frees the hash tables. Afterwards only size() and state() may be
  /// called.
  void release_index();

  /// Bytes of the live store: arena words, node handles and shard slots.
  /// A pure function of the interned states, never of allocation history.
  std::uint64_t bytes() const {
    return (arena_.size() + nodes_.size() + slots_) * sizeof(std::uint64_t);
  }

 private:
  struct Slot {
    std::uint32_t id_plus_one = 0;  ///< 0 = empty
    std::uint32_t hash_lo = 0;
  };
  struct Shard {
    /// Open addressing, linear probing from the low hash bits.
    std::vector<Slot> slots;
    std::uint32_t count = 0;
  };
  static constexpr unsigned kShardBits = 4;
  static constexpr unsigned kNumShards = 1u << kShardBits;

  Shard& shard_of(std::uint64_t hash) {
    return shards_[hash >> (64 - kShardBits)];
  }
  const Shard& shard_of(std::uint64_t hash) const {
    return shards_[hash >> (64 - kShardBits)];
  }
  bool equals(const Slot& slot, std::span<const std::uint64_t> words,
              std::uint32_t hash_lo) const;
  void grow(Shard& shard);

  support::ChunkedArray<std::uint64_t> arena_;
  std::vector<std::uint64_t> nodes_;  ///< arena handle per id
  Shard shards_[kNumShards];
  std::uint64_t slots_ = 0;  ///< over all shards
};

}  // namespace ppde::verify
