// How pp::Verifier stores and expands configurations in the verification
// kernel (S22): the configuration codec and the kernel domain.
//
// Expansion works on a configuration's sparse form, one u64 entry per
// occupied state, (state << 32) | count, ascending by state. The kernel
// stores the codec's packed form of it: a canonical bit stream, so equal
// configurations are equal words and the interner compares words only.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "isa/compiled.hpp"
#include "pp/config.hpp"
#include "pp/protocol.hpp"
#include "verify/kernel.hpp"

namespace ppde::pp {

constexpr std::uint64_t sparse_entry(State q, std::uint32_t count) {
  return (static_cast<std::uint64_t>(q) << 32) | count;
}
constexpr State sparse_state(std::uint64_t entry) {
  return static_cast<State>(entry >> 32);
}
constexpr std::uint32_t sparse_count(std::uint64_t entry) {
  return static_cast<std::uint32_t>(entry);
}

std::vector<std::uint64_t> to_sparse(const Config& config);

/// The kernel's form of a sparse configuration of `population` agents over
/// `num_states` states: one bit stream, least significant bit of word 0
/// first. Each occupied state, in ascending order, is its id in
/// bit_width(num_states - 1) bits and a flag bit; a flagged state holds two
/// or more agents and is followed by count - 2 in bit_width(population - 2)
/// bits, an unflagged one holds one agent. The reader stops once it has
/// decoded `population` agents, and the last word's unused bits are zero,
/// so the words are a canonical function of the configuration. Node ids
/// follow merge order, so the layout moves none.
class ConfigCodec {
 public:
  ConfigCodec(std::size_t num_states, std::uint64_t population)
      : state_bits_(num_states > 1 ? std::bit_width(num_states - 1) : 0),
        count_bits_(population > 2 ? std::bit_width(population - 2) : 0),
        population_(population) {}

  void pack(std::span<const std::uint64_t> sparse,
            std::vector<std::uint64_t>& words) const {
    words.clear();
    BitWriter out(words);
    for (const std::uint64_t entry : sparse) {
      const std::uint32_t count = sparse_count(entry);
      const std::uint64_t several = count >= 2 ? 1 : 0;
      out.put(sparse_state(entry) | (several << state_bits_), state_bits_ + 1);
      if (several) out.put(count - 2, count_bits_);
    }
    out.flush();
  }

  void unpack(std::span<const std::uint64_t> words,
              std::vector<std::uint64_t>& sparse) const {
    sparse.clear();
    BitReader in(words);
    const std::uint64_t state_mask = (std::uint64_t{1} << state_bits_) - 1;
    for (std::uint64_t agents = 0; agents < population_;) {
      const std::uint64_t field = in.take(state_bits_ + 1);
      const std::uint32_t count =
          (field >> state_bits_) != 0
              ? static_cast<std::uint32_t>(in.take(count_bits_)) + 2
              : 1;
      sparse.push_back(
          sparse_entry(static_cast<State>(field & state_mask), count));
      agents += count;
    }
  }

 private:
  /// Appends fields of 0 to 64 bits to whole words.
  class BitWriter {
   public:
    explicit BitWriter(std::vector<std::uint64_t>& words) : words_(words) {}

    /// Appends `value`, which must be below 2^width.
    void put(std::uint64_t value, unsigned width) {
      if (width == 0) return;
      pending_ |= value << used_;
      used_ += width;
      if (used_ >= 64) {
        words_.push_back(pending_);
        used_ -= 64;
        // The high `used_` bits of `value` did not fit the word.
        pending_ = used_ == 0 ? 0 : value >> (width - used_);
      }
    }

    void flush() {
      if (used_ != 0) words_.push_back(pending_);
    }

   private:
    std::vector<std::uint64_t>& words_;
    std::uint64_t pending_ = 0;  ///< the partial last word
    unsigned used_ = 0;          ///< its bits in use, below 64
  };

  /// Reads back what BitWriter wrote, field by field.
  class BitReader {
   public:
    explicit BitReader(std::span<const std::uint64_t> words)
        : words_(words.data()) {}

    std::uint64_t take(unsigned width) {
      if (width == 0) return 0;
      const unsigned bit = static_cast<unsigned>(position_ % 64);
      const std::uint64_t* word = words_ + position_ / 64;
      std::uint64_t value = word[0] >> bit;
      if (bit + width > 64) value |= word[1] << (64 - bit);
      position_ += width;
      return width == 64 ? value : value & ((std::uint64_t{1} << width) - 1);
    }

   private:
    const std::uint64_t* words_;
    std::uint64_t position_ = 0;  ///< in bits
  };

  unsigned state_bits_;
  unsigned count_bits_;
  std::uint64_t population_;
};

/// Successor generator over packed configurations. Only active pairs of
/// occupied states are visited: a node ANDs each occupied state's activity
/// row from the compiled pair index (bit r set iff (q, r) has a non-silent
/// candidate) with its own occupied-state mask, walking the set bits in
/// ascending state order. The pair (q, q) needs at least two agents in q.
/// Meetings expand through the pair's compiled cells in candidate order
/// (S26); successor emission order — and with it every node ID, SCC and
/// counterexample — equals a walk over every ordered pair of present states
/// through the pair's transitions at every thread count.
class ConfigDomain {
 public:
  /// Buffers of one worker, reused across the nodes it expands.
  struct Scratch {
    std::vector<std::uint64_t> sparse;  ///< the node being expanded
    std::vector<std::uint64_t> next;    ///< one successor, sparse
    std::vector<std::uint64_t> words;   ///< one successor, packed
    /// Bit q set iff q is occupied; all zero between nodes.
    std::vector<std::uint64_t> occupied;
    /// Indices of the nonzero words of `occupied`, ascending.
    std::vector<std::uint32_t> occupied_words;
  };

  /// `protocol` must be finalized; both must outlive the domain.
  ConfigDomain(const Protocol& protocol, const ConfigCodec& codec)
      : compiled_(protocol.compiled()), codec_(codec) {}

  void expand(std::span<const std::uint64_t> packed, verify::Emitter& emit,
              Scratch& scratch) const;

 private:
  void fire(State q, State r, Scratch& scratch, verify::Emitter& emit) const;

  const isa::CompiledProtocol& compiled_;
  const ConfigCodec& codec_;
};

}  // namespace ppde::pp
