// Bit-vector helpers over raw block buffers (allocation bitmaps).
#ifndef CFFS_FS_COMMON_BITMAP_H_
#define CFFS_FS_COMMON_BITMAP_H_

#include <cstdint>
#include <optional>
#include <span>

namespace cffs::fs {

inline bool BitGet(std::span<const uint8_t> buf, uint32_t bit) {
  return (buf[bit >> 3] >> (bit & 7)) & 1;
}

inline void BitSet(std::span<uint8_t> buf, uint32_t bit) {
  buf[bit >> 3] = static_cast<uint8_t>(buf[bit >> 3] | (1u << (bit & 7)));
}

inline void BitClear(std::span<uint8_t> buf, uint32_t bit) {
  buf[bit >> 3] = static_cast<uint8_t>(buf[bit >> 3] & ~(1u << (bit & 7)));
}

// The first bit in [lo, hi) whose value, OR'd with the same bit of `also`
// when `also` is non-empty, equals `value`; nullopt if there is none. The
// scan reads 64 bits per step and never touches a byte past bit hi-1, so
// [lo, hi) must lie inside `bits` (and inside `also`, if given).
std::optional<uint32_t> FindFirstBit(std::span<const uint8_t> bits,
                                     uint32_t lo, uint32_t hi, bool value,
                                     std::span<const uint8_t> also = {});

// First bit in [lo, hi) clear in `bits` and, if given, also clear in
// `also` — a free block that is not reserved, when `also` is the
// reservation bitmap.
inline std::optional<uint32_t> FindFirstClear(
    std::span<const uint8_t> bits, uint32_t lo, uint32_t hi,
    std::span<const uint8_t> also = {}) {
  return FindFirstBit(bits, lo, hi, /*value=*/false, also);
}

// First bit in [lo, hi) set in `bits` or, if given, set in `also`.
inline std::optional<uint32_t> FindFirstSet(
    std::span<const uint8_t> bits, uint32_t lo, uint32_t hi,
    std::span<const uint8_t> also = {}) {
  return FindFirstBit(bits, lo, hi, /*value=*/true, also);
}

// Number of set bits in [0, limit).
uint32_t CountSetBits(std::span<const uint8_t> buf, uint32_t limit);

}  // namespace cffs::fs

#endif  // CFFS_FS_COMMON_BITMAP_H_
