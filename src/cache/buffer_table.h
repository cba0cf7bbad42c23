// The buffer cache's index tables: an open-addressed hash table from a key
// (a block number or a logical identity) to a resident Buffer*.
//
// Linear probing at most half full, with backward-shift erase, so there are
// no tombstones and a probe ends at the first empty slot. The slot array is
// sized once from the cache capacity; it grows only when the cache runs
// over capacity because every buffer is pinned, so only that path's
// inserts allocate.
#ifndef CFFS_CACHE_BUFFER_TABLE_H_
#define CFFS_CACHE_BUFFER_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cffs::cache {

class Buffer;

// Hash maps a Key to a uint64_t; the table spreads it over the slots with a
// Fibonacci multiply, so an identity hash of sequential keys is fine.
template <typename Key, typename Hash>
class BufferTable {
 public:
  explicit BufferTable(size_t max_entries) {
    Rehash(std::bit_ceil(std::max<size_t>(2 * max_entries, 16)));
  }

  size_t size() const { return size_; }

  Buffer* Find(const Key& key) const {
    for (size_t i = Home(key);; i = Next(i)) {
      const Slot& s = slots_[i];
      if (s.buf == nullptr) return nullptr;
      if (s.key == key) return s.buf;
    }
  }

  // Maps `key` to `buf`. Returns the buffer it mapped to before, or
  // nullptr if the key was absent.
  Buffer* Put(const Key& key, Buffer* buf) {
    size_t i = Home(key);
    for (; slots_[i].buf != nullptr; i = Next(i)) {
      if (slots_[i].key == key) return std::exchange(slots_[i].buf, buf);
    }
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(2 * slots_.size());
      i = FreeSlot(key);
    }
    slots_[i] = Slot{key, buf};
    ++size_;
    return nullptr;
  }

  // Removes `key` if it maps to `buf`; otherwise leaves the table alone.
  void EraseIf(const Key& key, const Buffer* buf) {
    size_t i = Home(key);
    for (; slots_[i].buf != nullptr; i = Next(i)) {
      if (slots_[i].key == key) break;
    }
    if (slots_[i].buf != buf || buf == nullptr) return;
    // Backward shift: pull later members of the cluster into the hole
    // unless that would move one ahead of its home slot.
    for (size_t j = Next(i); slots_[j].buf != nullptr; j = Next(j)) {
      const size_t home = Home(slots_[j].key);
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
  }

  void Clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

 private:
  struct Slot {
    Key key{};
    Buffer* buf = nullptr;  // nullptr marks an empty slot
  };

  size_t Home(const Key& key) const {
    return static_cast<size_t>((Hash()(key) * 0x9e3779b97f4a7c15ULL) >>
                               shift_);
  }
  size_t Next(size_t i) const { return (i + 1) & mask_; }
  // The slot an absent key would be inserted into.
  size_t FreeSlot(const Key& key) const {
    size_t i = Home(key);
    while (slots_[i].buf != nullptr) i = Next(i);
    return i;
  }

  void Rehash(size_t slot_count) {
    std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(slot_count));
    mask_ = slot_count - 1;
    shift_ = 64 - std::countr_zero(slot_count);
    for (const Slot& s : old) {
      if (s.buf != nullptr) slots_[FreeSlot(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
};

}  // namespace cffs::cache

#endif  // CFFS_CACHE_BUFFER_TABLE_H_
