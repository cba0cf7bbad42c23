// Unit tests for the name-resolution caches (src/fs/common/name_cache.h):
// LRU/eviction mechanics, positive vs negative dentries, per-directory
// erasure, and the incremental directory-index maintenance. Coherence with
// the file systems proper is covered by fs_posix_test and equivalence_test;
// this file pins down the data structures in isolation, plus the directory
// index's per-block free-space bound under create/unlink churn.
#include "src/fs/common/name_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/disk/image.h"
#include "src/fs/common/block_map.h"
#include "src/fs/common/dir_block.h"
#include "src/fs/common/fs_base.h"
#include "src/sim/sim_env.h"

namespace cffs::fs {
namespace {

TEST(DentryCacheTest, PositiveAndNegativeEntries) {
  DentryCache cache(16);
  EXPECT_EQ(cache.Lookup(1, "a"), nullptr);

  cache.PutPositive(1, "a", 42);
  const DentryCache::Entry* e = cache.Lookup(1, "a");
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->negative);
  EXPECT_EQ(e->inum, 42u);

  cache.PutNegative(1, "gone");
  e = cache.Lookup(1, "gone");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->negative);

  // Same name under a different directory is a distinct key.
  EXPECT_EQ(cache.Lookup(2, "a"), nullptr);
}

TEST(DentryCacheTest, PutOverwritesInPlace) {
  DentryCache cache(16);
  cache.PutPositive(1, "a", 42);
  cache.PutNegative(1, "a");
  const DentryCache::Entry* e = cache.Lookup(1, "a");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->negative);

  cache.PutPositive(1, "a", 7);
  e = cache.Lookup(1, "a");
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->negative);
  EXPECT_EQ(e->inum, 7u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DentryCacheTest, EvictsLeastRecentlyUsed) {
  DentryCache cache(3);
  cache.PutPositive(1, "a", 10);
  cache.PutPositive(1, "b", 11);
  cache.PutPositive(1, "c", 12);
  // Touch "a" so "b" is now the LRU entry.
  ASSERT_NE(cache.Lookup(1, "a"), nullptr);
  cache.PutPositive(1, "d", 13);

  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Lookup(1, "b"), nullptr);
  EXPECT_NE(cache.Lookup(1, "a"), nullptr);
  EXPECT_NE(cache.Lookup(1, "c"), nullptr);
  EXPECT_NE(cache.Lookup(1, "d"), nullptr);
}

TEST(DentryCacheTest, EraseAndEraseDir) {
  DentryCache cache(16);
  cache.PutPositive(1, "a", 10);
  cache.PutPositive(1, "b", 11);
  cache.PutPositive(2, "a", 12);

  cache.Erase(1, "a");
  EXPECT_EQ(cache.Lookup(1, "a"), nullptr);
  EXPECT_NE(cache.Lookup(1, "b"), nullptr);
  // Erasing a missing key is a no-op.
  cache.Erase(1, "nope");

  cache.EraseDir(1);
  EXPECT_EQ(cache.Lookup(1, "b"), nullptr);
  EXPECT_NE(cache.Lookup(2, "a"), nullptr);
  EXPECT_EQ(cache.size(), 1u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(2, "a"), nullptr);
}

TEST(DentryCacheTest, ZeroCapacityNeverStores) {
  DentryCache cache(0);
  cache.PutPositive(1, "a", 10);
  cache.PutNegative(1, "b");
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1, "a"), nullptr);
  EXPECT_EQ(cache.Lookup(1, "b"), nullptr);
}

TEST(DirIndexCacheTest, InstallFindAddRemove) {
  DirIndexCache cache(4);
  EXPECT_EQ(cache.Find(1), nullptr);

  DirIndexCache::Index idx;
  idx.by_name["a"] = DirEntryLoc{0, 100, 8};
  DirIndexCache::Index* installed = cache.Install(1, std::move(idx));
  ASSERT_NE(installed, nullptr);
  EXPECT_EQ(installed->by_name.size(), 1u);

  DirIndexCache::Index* found = cache.Find(1);
  ASSERT_NE(found, nullptr);
  ASSERT_TRUE(found->by_name.count("a"));
  EXPECT_EQ(found->by_name["a"].bno, 100u);
  EXPECT_EQ(found->by_name["a"].offset, 8);

  // Incremental maintenance only touches an index that exists.
  cache.Add(1, "b", DirEntryLoc{1, 101, 16});
  cache.Add(9, "x", DirEntryLoc{0, 5, 0});  // no index for dir 9: no-op
  EXPECT_EQ(cache.Find(9), nullptr);
  found = cache.Find(1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->by_name.size(), 2u);

  cache.Remove(1, "a");
  found = cache.Find(1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->by_name.count("a"), 0u);
  EXPECT_EQ(found->by_name.count("b"), 1u);
}

TEST(DirIndexCacheTest, EvictsLeastRecentlyUsedDirectory) {
  DirIndexCache cache(2);
  cache.Install(1, {});
  cache.Install(2, {});
  ASSERT_NE(cache.Find(1), nullptr);  // dir 2 becomes the LRU victim
  cache.Install(3, {});

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Find(2), nullptr);
  EXPECT_NE(cache.Find(1), nullptr);
  EXPECT_NE(cache.Find(3), nullptr);
}

TEST(DirIndexCacheTest, EraseDirAndClear) {
  DirIndexCache cache(4);
  cache.Install(1, {});
  cache.Install(2, {});
  cache.EraseDir(1);
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_NE(cache.Find(2), nullptr);
  cache.EraseDir(7);  // absent: no-op
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Find(2), nullptr);
}

TEST(InodeCacheTest, PutLookupEraseOverwrite) {
  InodeCache cache(16);
  EXPECT_EQ(cache.Lookup(5), nullptr);

  InodeData ino;
  ino.type = FileType::kRegular;
  ino.size = 123;
  ino.self = 5;
  cache.Put(5, ino);

  const InodeData* hit = cache.Lookup(5);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size, 123u);
  EXPECT_EQ(hit->self, 5u);

  ino.size = 456;
  cache.Put(5, ino);
  hit = cache.Lookup(5);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size, 456u);
  EXPECT_EQ(cache.size(), 1u);

  cache.Erase(5);
  EXPECT_EQ(cache.Lookup(5), nullptr);
  cache.Erase(5);  // absent: no-op
}

TEST(InodeCacheTest, EvictsLeastRecentlyUsed) {
  InodeCache cache(2);
  InodeData ino;
  ino.type = FileType::kRegular;
  cache.Put(1, ino);
  cache.Put(2, ino);
  ASSERT_NE(cache.Lookup(1), nullptr);  // inode 2 becomes the LRU victim
  cache.Put(3, ino);

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
}

TEST(InodeCacheTest, ZeroCapacityNeverStores) {
  InodeCache cache(0);
  InodeData ino;
  cache.Put(1, ino);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1), nullptr);
}

// Seeded random ops against a test-side LRU model. A miss leaves the LRU
// order alone, so after every step each key the model dropped (evicted,
// erased, or under an erased directory) is probed and must miss; with equal
// sizes that pins the resident set, and so the victim order. Every hit must
// return the model's value. Some names are longer than the 15 bytes a short
// std::string holds inline.
TEST(DentryCacheTest, MatchesAnLruModelUnderRandomOps) {
  constexpr size_t kCapacity = 12;
  DentryCache cache(kCapacity);
  using Key = std::pair<InodeNum, std::string>;
  std::list<Key> lru;  // front = most recent
  std::map<Key, DentryCache::Entry> model;
  std::vector<Key> dropped;
  const std::vector<std::string> names = {
      "a", "b", "config", "fifteen-bytes-x", "sixteen-bytes-xx",
      "a-name-well-past-the-inline-buffer", "z", "lib",
      std::string(200, 'q')};
  std::mt19937_64 rng(7);

  auto drop = [&](Key k) {  // a copy: `k` may be an element of `lru`
    lru.remove(k);
    model.erase(k);
    dropped.push_back(k);
  };
  auto touch = [&](const Key& k) {
    lru.remove(k);
    lru.push_front(k);
  };
  auto lookup = [&](const Key& k) {
    const DentryCache::Entry* e = cache.Lookup(k.first, k.second);
    const auto it = model.find(k);
    ASSERT_EQ(e != nullptr, it != model.end()) << k.first << "/" << k.second;
    if (e == nullptr) return;
    EXPECT_EQ(e->inum, it->second.inum);
    EXPECT_EQ(e->negative, it->second.negative);
    touch(k);
  };

  size_t evictions = 0;
  for (int step = 0; step < 20000; ++step) {
    const Key key{1 + rng() % 4, names[rng() % names.size()]};
    const int op = static_cast<int>(rng() % 16);
    if (op < 6) {
      lookup(key);
    } else if (op < 12) {
      const bool negative = op >= 10;
      const InodeNum inum = negative ? kInvalidInode : 100 + step;
      if (negative) {
        cache.PutNegative(key.first, key.second);
      } else {
        cache.PutPositive(key.first, key.second, inum);
      }
      if (!model.count(key)) {
        while (model.size() >= kCapacity) {
          drop(lru.back());
          ++evictions;
        }
      }
      model[key] = DentryCache::Entry{inum, negative};
      touch(key);
    } else if (op < 14) {
      cache.Erase(key.first, key.second);
      if (model.count(key)) drop(key);
    } else if (op == 14) {
      cache.EraseDir(key.first);
      std::vector<Key> under;
      for (const auto& [k, e] : model) {
        if (k.first == key.first) under.push_back(k);
      }
      for (const Key& k : under) drop(k);
    } else if (rng() % 64 == 0) {
      cache.Clear();
      while (!lru.empty()) drop(lru.back());
    } else {
      // Visit every entry from least to most recently used, which leaves
      // the LRU order as it was.
      const std::vector<Key> oldest_first(lru.rbegin(), lru.rend());
      for (const Key& k : oldest_first) lookup(k);
    }
    if (::testing::Test::HasFailure()) FAIL() << "step " << step;
    ASSERT_EQ(cache.size(), model.size()) << "step " << step;
    for (const Key& k : dropped) {
      if (model.count(k)) continue;  // put back in the same step
      ASSERT_EQ(cache.Lookup(k.first, k.second), nullptr)
          << "step " << step << ": " << k.first << "/" << k.second;
    }
    dropped.clear();
  }
  EXPECT_GT(evictions, 1000u);
}

TEST(InodeCacheTest, MatchesAnLruModelUnderRandomOps) {
  constexpr size_t kCapacity = 8;
  InodeCache cache(kCapacity);
  std::list<InodeNum> lru;  // front = most recent
  std::map<InodeNum, uint64_t> model;  // inum -> size stamp
  std::vector<InodeNum> dropped;
  std::mt19937_64 rng(11);

  auto drop = [&](InodeNum n) {
    lru.remove(n);
    model.erase(n);
    dropped.push_back(n);
  };
  auto touch = [&](InodeNum n) {
    lru.remove(n);
    lru.push_front(n);
  };
  auto lookup = [&](InodeNum n) {
    const InodeData* ino = cache.Lookup(n);
    const auto it = model.find(n);
    ASSERT_EQ(ino != nullptr, it != model.end()) << n;
    if (ino == nullptr) return;
    EXPECT_EQ(ino->size, it->second);
    touch(n);
  };

  size_t evictions = 0;
  for (int step = 0; step < 20000; ++step) {
    const InodeNum num = 1 + rng() % 24;
    const int op = static_cast<int>(rng() % 10);
    if (op < 4) {
      lookup(num);
    } else if (op < 7) {
      InodeData ino;
      ino.type = FileType::kRegular;
      ino.size = static_cast<uint64_t>(step);
      cache.Put(num, ino);
      if (!model.count(num)) {
        while (model.size() >= kCapacity) {
          drop(lru.back());
          ++evictions;
        }
      }
      model[num] = ino.size;
      touch(num);
    } else if (op < 9) {
      cache.Erase(num);
      if (model.count(num)) drop(num);
    } else if (rng() % 64 == 0) {
      cache.Clear();
      while (!lru.empty()) drop(lru.back());
    } else {
      const std::vector<InodeNum> oldest_first(lru.rbegin(), lru.rend());
      for (InodeNum n : oldest_first) lookup(n);
    }
    if (::testing::Test::HasFailure()) FAIL() << "step " << step;
    ASSERT_EQ(cache.size(), model.size()) << "step " << step;
    for (InodeNum n : dropped) {
      if (model.count(n)) continue;
      ASSERT_EQ(cache.Lookup(n), nullptr) << "step " << step << ": " << n;
    }
    dropped.clear();
  }
  EXPECT_GT(evictions, 1000u);
}

TEST(NameCacheTest, ClearDropsAllThree) {
  NameCache nc;
  nc.dentries.PutPositive(1, "a", 2);
  nc.dir_indexes.Install(1, {});
  InodeData ino;
  nc.inodes.Put(2, ino);

  nc.Clear();
  EXPECT_EQ(nc.dentries.size(), 0u);
  EXPECT_EQ(nc.dir_indexes.size(), 0u);
  EXPECT_EQ(nc.inodes.size(), 0u);
}

// --- The directory index's free-space bound, end to end ---

// One directory as a full walk of its blocks sees it.
struct DirWalk {
  // name -> (physical block, record offset)
  std::map<std::string, std::pair<uint32_t, uint16_t>> entries;
  std::vector<uint16_t> max_free;  // largest free record, per file block
};

DirWalk WalkDir(sim::SimEnv* env, InodeNum dir) {
  DirWalk walk;
  auto ino = env->fs_base()->LoadInode(dir);
  EXPECT_TRUE(ino.ok());
  if (!ino.ok()) return walk;
  BmapOps ops;
  ops.cache = &env->cache();
  for (uint64_t i = 0; i < ino->BlockCount(); ++i) {
    walk.max_free.push_back(0);
    auto bno = BmapRead(ops, *ino, i);
    EXPECT_TRUE(bno.ok());
    if (!bno.ok() || *bno == 0) continue;
    auto buf = env->cache().Get(*bno);
    EXPECT_TRUE(buf.ok());
    if (!buf.ok()) continue;
    EXPECT_TRUE(ForEachDirRecord(buf->data(), [&](const DirRecord& r) {
                  if (r.kind == kFreeRecord) {
                    walk.max_free.back() =
                        std::max(walk.max_free.back(), r.rec_len);
                  } else {
                    walk.entries[std::string(r.name)] = {*bno, r.offset};
                  }
                  return true;
                }).ok());
  }
  return walk;
}

struct ChurnResult {
  // After every op: each entry's (bno, offset), in name order.
  std::vector<std::map<std::string, std::pair<uint32_t, uint16_t>>> layouts;
  uint64_t image_hash = 0;
  uint64_t bounded_checks = 0;  // blocks whose bound was audited
  uint64_t tight_bounds = 0;    // ... and found below a whole block
  uint64_t max_blocks = 0;
};

// Seeded create/unlink churn with names of 1..80 bytes in one directory
// large enough to span several blocks. With name caches on, every op is
// followed by an audit: each indexed block's bound is at least the largest
// free record a full walk finds.
ChurnResult RunChurn(sim::FsKind kind, bool name_caches) {
  ChurnResult out;
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.name_caches = name_caches;
  config.deterministic_mtime = true;
  auto env_or = sim::SimEnv::Create(kind, config);
  EXPECT_TRUE(env_or.ok()) << env_or.status().ToString();
  if (!env_or.ok()) return out;
  sim::SimEnv* env = env_or->get();
  fs::FileSystem* fs = env->fs();
  auto dir = fs->Mkdir(fs->root(), "churn");
  EXPECT_TRUE(dir.ok());
  if (!dir.ok()) return out;

  std::mt19937 rng(kind == sim::FsKind::kCffs ? 15 : 16);
  std::vector<std::string> live;
  uint64_t serial = 0;
  for (int op = 0; op < 1200; ++op) {
    const bool create =
        live.size() < 40 || (live.size() < 400 && rng() % 5 < 3);
    if (create) {
      std::string name = "f" + std::to_string(serial++) + "_";
      name.append(rng() % 80, static_cast<char>('a' + rng() % 26));
      name.resize(std::min<size_t>(name.size(), 80));
      EXPECT_TRUE(fs->Create(*dir, name).ok()) << name;
      live.push_back(std::move(name));
    } else {
      const size_t victim = rng() % live.size();
      EXPECT_TRUE(fs->Unlink(*dir, live[victim]).ok()) << live[victim];
      live[victim] = std::move(live.back());
      live.pop_back();
    }
    const DirWalk walk = WalkDir(env, *dir);
    out.layouts.push_back(walk.entries);
    out.max_blocks = std::max<uint64_t>(out.max_blocks, walk.max_free.size());
    const DirIndexCache::Index* idx = env->fs_base()->PeekDirIndex(*dir);
    EXPECT_EQ(idx != nullptr, name_caches);
    if (idx == nullptr) continue;
    for (size_t i = 0; i < idx->max_free.size() && i < walk.max_free.size();
         ++i) {
      EXPECT_GE(idx->max_free[i], walk.max_free[i])
          << "op " << op << " block " << i;
      ++out.bounded_checks;
      if (idx->max_free[i] < kBlockSize) ++out.tight_bounds;
    }
  }
  EXPECT_TRUE(fs->Sync().ok());
  out.image_hash = disk::ImageHash(env->disk());
  return out;
}

class DirFreeBoundTest : public ::testing::TestWithParam<sim::FsKind> {};

TEST_P(DirFreeBoundTest, BoundHoldsAndPlacementMatchesUncachedWalk) {
  const ChurnResult cached = RunChurn(GetParam(), /*name_caches=*/true);
  const ChurnResult plain = RunChurn(GetParam(), /*name_caches=*/false);
  // The run really is multi-block, and the bounds are tight enough to
  // let DirAdd skip blocks.
  EXPECT_GE(cached.max_blocks, 3u);
  EXPECT_GT(cached.bounded_checks, 1000u);
  EXPECT_GT(cached.tight_bounds, cached.bounded_checks / 4);
  ASSERT_EQ(cached.layouts.size(), plain.layouts.size());
  for (size_t op = 0; op < cached.layouts.size(); ++op) {
    ASSERT_EQ(cached.layouts[op], plain.layouts[op]) << "after op " << op;
  }
  EXPECT_EQ(cached.image_hash, plain.image_hash);
}

INSTANTIATE_TEST_SUITE_P(BothFileSystems, DirFreeBoundTest,
                         ::testing::Values(sim::FsKind::kFfs,
                                           sim::FsKind::kCffs),
                         [](const auto& p) -> std::string {
                           return p.param == sim::FsKind::kFfs ? "Ffs"
                                                               : "Cffs";
                         });

}  // namespace
}  // namespace cffs::fs
