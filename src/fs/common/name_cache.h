// Name-resolution acceleration: per-mount caches that remove the repeated
// decode/scan work from the lookup path.
//
// Three structures, owned by FsBase and dropped on unmount (so a remount
// always starts cold — an explicit coherence property the tests rely on):
//
// * DentryCache — bounded LRU keyed by (directory inum, name) mapping to
//   the child's inode number. Holds POSITIVE entries ("x resolves to 17")
//   and NEGATIVE entries ("x does not exist"), so both the hot-resolve and
//   the miss-heavy paths skip the directory scan entirely. Mutations never
//   insert positive entries directly; they either erase the key (DirAdd —
//   the next lookup repopulates from the authoritative block) or convert it
//   to a negative entry (DirRemove). This "mutations invalidate, lookups
//   populate" rule keeps coherence one-directional and easy to audit.
//
// * DirIndexCache — a lazily-built hash index per directory mapping name to
//   the record's location (file block index, physical block, record
//   offset). Directory records never move once created (see dir_block.h),
//   so a location stays valid until that exact name is removed; DirAdd and
//   DirRemove maintain the index incrementally. A cold DirFind builds the
//   index with one full scan and every later DirFind is a single hashed
//   probe + one block fetch instead of an O(blocks x records) scan. The
//   index is complete by construction, so a probe miss is an authoritative
//   kNotFound. It also keeps, per directory block, an upper bound on the
//   block's largest free record, so DirAdd can skip the record walk of
//   blocks that cannot hold the new entry.
//
// * InodeCache — bounded LRU of decoded InodeData images keyed by inode
//   number, refreshed write-through by every StoreInode. An entry must be
//   invalidated whenever the on-disk image changes by any other route; the
//   C-FFS embedded-inode paths (create/rename encode the image straight
//   into the directory block, Link externalizes it, Rename assigns a NEW
//   inode number because the number encodes the physical location) call
//   the invalidation hooks explicitly.
//
// The structures are purely mechanical; hit/miss accounting lives in
// fs::FsOpStats so it flows into MetricsSnapshot and its invariants.
#ifndef CFFS_FS_COMMON_NAME_CACHE_H_
#define CFFS_FS_COMMON_NAME_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/fs/common/fs_types.h"
#include "src/fs/common/inode.h"

namespace cffs::fs {

class DentryCache {
 public:
  struct Entry {
    InodeNum inum = kInvalidInode;
    bool negative = false;
  };

  explicit DentryCache(size_t capacity) : capacity_(capacity) {}

  // nullptr on miss. A returned pointer is valid until the next mutation.
  const Entry* Lookup(InodeNum dir, std::string_view name);

  void PutPositive(InodeNum dir, std::string_view name, InodeNum inum);
  void PutNegative(InodeNum dir, std::string_view name);
  void Erase(InodeNum dir, std::string_view name);
  // Drops every entry under `dir` (directory deletion / inum reuse).
  void EraseDir(InodeNum dir);
  void Clear();

  size_t size() const { return map_.size(); }

 private:
  struct Key {
    InodeNum dir;
    std::string name;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<std::string_view>()(k.name) ^
             (std::hash<uint64_t>()(k.dir) * 0x9e3779b97f4a7c15ULL);
    }
  };
  struct Node {
    Entry entry;
    std::list<Key>::iterator lru_pos;
  };

  void Put(InodeNum dir, std::string_view name, Entry entry);

  size_t capacity_;
  std::unordered_map<Key, Node, KeyHash> map_;
  std::list<Key> lru_;  // front = most recent
};

// Location of one directory record; enough to re-read it with a single
// block fetch. Records never move, so the location is stable for the
// lifetime of the name.
struct DirEntryLoc {
  uint64_t file_idx = 0;  // which block of the directory file
  uint32_t bno = 0;       // physical block
  uint16_t offset = 0;    // record start within the block
};

class DirIndexCache {
 public:
  struct Index {
    std::unordered_map<std::string, DirEntryLoc> by_name;
    // Indexed by file block: never below the rec_len of that block's
    // largest free record (0 for a hole). Exact when built; DirAdd lowers
    // it to need-8 when a walk finds no room for a record of `need`
    // bytes, and a freed record or an appended block raises it to
    // kBlockSize. Blocks past the end are unknown and always walked.
    std::vector<uint16_t> max_free;
  };

  explicit DirIndexCache(size_t max_dirs) : max_dirs_(max_dirs) {}

  // The index for `dir` if one has been built (touches LRU), else nullptr.
  Index* Find(InodeNum dir);
  // Like Find, but leaves the LRU order alone: a mutation consulting the
  // index must not change which directory is evicted next (a rebuild
  // re-reads every directory block through the buffer cache).
  Index* Peek(InodeNum dir);
  // Registers a freshly built index (evicting the LRU directory if full)
  // and returns it.
  Index* Install(InodeNum dir, Index index);
  void Add(InodeNum dir, std::string_view name, const DirEntryLoc& loc);
  void Remove(InodeNum dir, std::string_view name);
  // Raises the free-space bound of block `file_idx` to kBlockSize (a record
  // was freed there, or the block was just appended).
  void NoteBlockFreed(InodeNum dir, uint64_t file_idx);
  // Drops the whole index for `dir` (deletion, or a detected stale probe).
  void EraseDir(InodeNum dir);
  void Clear();

  size_t size() const { return map_.size(); }

 private:
  struct Node {
    Index index;
    std::list<InodeNum>::iterator lru_pos;
  };

  size_t max_dirs_;
  std::unordered_map<InodeNum, Node> map_;
  std::list<InodeNum> lru_;  // front = most recent
};

class InodeCache {
 public:
  explicit InodeCache(size_t capacity) : capacity_(capacity) {}

  // nullptr on miss. Valid until the next mutation.
  const InodeData* Lookup(InodeNum num);
  void Put(InodeNum num, const InodeData& ino);
  void Erase(InodeNum num);
  void Clear();

  size_t size() const { return map_.size(); }

 private:
  struct Node {
    InodeData ino;
    std::list<InodeNum>::iterator lru_pos;
  };

  size_t capacity_;
  std::unordered_map<InodeNum, Node> map_;
  std::list<InodeNum> lru_;  // front = most recent
};

// The three caches as one per-mount unit with shared sizing defaults.
struct NameCache {
  static constexpr size_t kDefaultDentries = 8192;
  static constexpr size_t kDefaultDirIndexes = 128;
  static constexpr size_t kDefaultInodes = 2048;

  DentryCache dentries{kDefaultDentries};
  DirIndexCache dir_indexes{kDefaultDirIndexes};
  InodeCache inodes{kDefaultInodes};

  void Clear() {
    dentries.Clear();
    dir_indexes.Clear();
    inodes.Clear();
  }
};

}  // namespace cffs::fs

#endif  // CFFS_FS_COMMON_NAME_CACHE_H_
