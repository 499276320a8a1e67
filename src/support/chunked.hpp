// Append-only storage in chunks that are never reallocated (S22).
//
// The verification kernel keeps every explored state and every successor
// list in one of these. A block appended lies inside one chunk and never
// moves, so a span over it stays valid for the store's lifetime. Growth
// allocates a new chunk instead of copying the old ones, so the store
// never holds two copies of itself.
//
// A block is named by a 64-bit handle: chunk index (16 bits), offset in
// the chunk (24 bits) and length (24 bits). Handle 0 is the empty block.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

namespace ppde::support {

template <typename T>
class ChunkedArray {
 public:
  static constexpr std::uint64_t kMaxLength = (std::uint64_t{1} << 24) - 1;

  /// Appends a copy of `values` as one block; returns its handle. Not
  /// thread-safe.
  std::uint64_t append(std::span<const T> values) {
    const std::uint64_t length = values.size();
    if (length == 0) return 0;
    if (length > kMaxLength)
      throw std::length_error("ChunkedArray: block longer than 2^24 - 1");
    if (chunks_.empty() || used_ + length > capacity_) {
      if (chunks_.size() == (std::size_t{1} << 16))
        throw std::length_error("ChunkedArray: more than 2^16 chunks");
      // Chunks double from kFirstChunk up to kLastChunk elements, so a
      // small graph stays small; a block longer than that gets a chunk
      // of its own.
      capacity_ = chunks_.empty()
                      ? kFirstChunk
                      : std::min<std::uint64_t>(capacity_ * 2, kLastChunk);
      capacity_ = std::max(capacity_, length);
      chunks_.push_back(std::make_unique_for_overwrite<T[]>(capacity_));
      used_ = 0;
    }
    const std::uint64_t handle =
        (std::uint64_t{chunks_.size() - 1} << 48) | (used_ << 24) | length;
    std::copy(values.begin(), values.end(), chunks_.back().get() + used_);
    used_ += length;
    size_ += length;
    return handle;
  }

  std::span<const T> view(std::uint64_t handle) const {
    const std::uint64_t length = handle & kMaxLength;
    if (length == 0) return {};
    return {chunks_[handle >> 48].get() + ((handle >> 24) & kMaxLength),
            length};
  }

  /// Elements appended so far (the live size; chunk tails not counted).
  std::uint64_t size() const { return size_; }

 private:
  static constexpr std::uint64_t kFirstChunk = std::uint64_t{1} << 12;
  static constexpr std::uint64_t kLastChunk = std::uint64_t{1} << 20;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::uint64_t capacity_ = 0;  ///< of the last chunk
  std::uint64_t used_ = 0;      ///< of the last chunk
  std::uint64_t size_ = 0;
};

}  // namespace ppde::support
