#include "src/fs/common/name_cache.h"

namespace cffs::fs {

// --- DentryCache ---

const DentryCache::Entry* DentryCache::Lookup(InodeNum dir,
                                              std::string_view name) {
  const auto it = map_.find(Key{dir, std::string(name)});
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return &it->second.entry;
}

void DentryCache::Put(InodeNum dir, std::string_view name, Entry entry) {
  if (capacity_ == 0) return;
  Key key{dir, std::string(name)};
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second.entry = entry;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  while (map_.size() >= capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  map_.emplace(std::move(key), Node{entry, lru_.begin()});
}

void DentryCache::PutPositive(InodeNum dir, std::string_view name,
                              InodeNum inum) {
  Put(dir, name, Entry{inum, /*negative=*/false});
}

void DentryCache::PutNegative(InodeNum dir, std::string_view name) {
  Put(dir, name, Entry{kInvalidInode, /*negative=*/true});
}

void DentryCache::Erase(InodeNum dir, std::string_view name) {
  const auto it = map_.find(Key{dir, std::string(name)});
  if (it == map_.end()) return;
  lru_.erase(it->second.lru_pos);
  map_.erase(it);
}

void DentryCache::EraseDir(InodeNum dir) {
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.dir == dir) {
      lru_.erase(it->second.lru_pos);
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

void DentryCache::Clear() {
  map_.clear();
  lru_.clear();
}

// --- DirIndexCache ---

DirIndexCache::Index* DirIndexCache::Find(InodeNum dir) {
  const auto it = map_.find(dir);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return &it->second.index;
}

DirIndexCache::Index* DirIndexCache::Peek(InodeNum dir) {
  const auto it = map_.find(dir);
  return it == map_.end() ? nullptr : &it->second.index;
}

DirIndexCache::Index* DirIndexCache::Install(InodeNum dir, Index index) {
  if (max_dirs_ == 0) return nullptr;
  EraseDir(dir);
  while (map_.size() >= max_dirs_) {
    map_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(dir);
  const auto [it, inserted] =
      map_.emplace(dir, Node{std::move(index), lru_.begin()});
  (void)inserted;
  return &it->second.index;
}

void DirIndexCache::Add(InodeNum dir, std::string_view name,
                        const DirEntryLoc& loc) {
  Index* index = Peek(dir);
  if (index == nullptr) return;  // no index built; nothing to maintain
  index->by_name[std::string(name)] = loc;
}

void DirIndexCache::Remove(InodeNum dir, std::string_view name) {
  Index* index = Peek(dir);
  if (index == nullptr) return;
  index->by_name.erase(std::string(name));
}

void DirIndexCache::NoteBlockFreed(InodeNum dir, uint64_t file_idx) {
  Index* index = Peek(dir);
  if (index == nullptr) return;
  constexpr uint16_t kWholeBlock = static_cast<uint16_t>(kBlockSize);
  std::vector<uint16_t>& bound = index->max_free;
  if (file_idx >= bound.size()) bound.resize(file_idx + 1, kWholeBlock);
  bound[file_idx] = kWholeBlock;
}

void DirIndexCache::EraseDir(InodeNum dir) {
  const auto it = map_.find(dir);
  if (it == map_.end()) return;
  lru_.erase(it->second.lru_pos);
  map_.erase(it);
}

void DirIndexCache::Clear() {
  map_.clear();
  lru_.clear();
}

// --- InodeCache ---

const InodeData* InodeCache::Lookup(InodeNum num) {
  const auto it = map_.find(num);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return &it->second.ino;
}

void InodeCache::Put(InodeNum num, const InodeData& ino) {
  if (capacity_ == 0) return;
  const auto it = map_.find(num);
  if (it != map_.end()) {
    it->second.ino = ino;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  while (map_.size() >= capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(num);
  map_.emplace(num, Node{ino, lru_.begin()});
}

void InodeCache::Erase(InodeNum num) {
  const auto it = map_.find(num);
  if (it == map_.end()) return;
  lru_.erase(it->second.lru_pos);
  map_.erase(it);
}

void InodeCache::Clear() {
  map_.clear();
  lru_.clear();
}

}  // namespace cffs::fs
