#include "src/fs/common/bitmap.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace cffs::fs {

namespace {

// Bits [64w, 64w+64) of `buf` as one little-endian word (bit i of the word
// is BitGet(buf, 64w + i)). Only the bytes up to `end_byte` are read; the
// rest of the word is zero.
uint64_t LoadWord(std::span<const uint8_t> buf, uint32_t w, size_t end_byte) {
  const size_t first = size_t{w} * 8;
  uint64_t word = 0;
  std::memcpy(&word, buf.data() + first, std::min<size_t>(8, end_byte - first));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

}  // namespace

std::optional<uint32_t> FindFirstBit(std::span<const uint8_t> bits,
                                     uint32_t lo, uint32_t hi, bool value,
                                     std::span<const uint8_t> also) {
  if (lo >= hi) return std::nullopt;
  const size_t end_byte = (size_t{hi} + 7) / 8;
  assert(end_byte <= bits.size());
  assert(also.empty() || end_byte <= also.size());
  const uint32_t last = (hi - 1) / 64;
  for (uint32_t w = lo / 64; w <= last; ++w) {
    uint64_t word = LoadWord(bits, w, end_byte);
    if (!also.empty()) word |= LoadWord(also, w, end_byte);
    // Candidates are the bits equal to `value`, limited to [lo, hi).
    uint64_t hits = value ? word : ~word;
    if (w == lo / 64) hits &= ~uint64_t{0} << (lo % 64);
    if (w == last && hi % 64 != 0) hits &= ~(~uint64_t{0} << (hi % 64));
    if (hits != 0) {
      return w * 64 + static_cast<uint32_t>(std::countr_zero(hits));
    }
  }
  return std::nullopt;
}

uint32_t CountSetBits(std::span<const uint8_t> buf, uint32_t limit) {
  uint32_t count = 0;
  uint32_t full_bytes = limit / 8;
  for (uint32_t i = 0; i < full_bytes; ++i) {
    count += static_cast<uint32_t>(__builtin_popcount(buf[i]));
  }
  for (uint32_t bit = full_bytes * 8; bit < limit; ++bit) {
    if (BitGet(buf, bit)) ++count;
  }
  return count;
}

}  // namespace cffs::fs
