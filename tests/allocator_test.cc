// Unit tests for the cylinder-group allocator, including the C-FFS
// reservation (group extent) machinery.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/disk/disk_model.h"
#include "src/fs/common/allocator.h"
#include "src/fs/common/bitmap.h"

namespace cffs::fs {
namespace {

class AllocatorTest : public ::testing::Test {
 protected:
  AllocatorTest()
      : model_(disk::TestDisk(1024, 4, 64), &clock_),
        dev_(&model_, disk::SchedulerPolicy::kCLook),
        cache_(&dev_, 512) {
    // Two cylinder groups of 512 blocks, C-FFS-style layout (bitmap,
    // reservation bitmap, then data).
    std::vector<CgLayout> layouts;
    for (uint32_t cg = 0; cg < 2; ++cg) {
      CgLayout g;
      g.first_block = 1 + cg * 512;
      g.blocks = 512;
      g.bitmap_block = g.first_block;
      g.resv_block = g.first_block + 1;
      g.data_start = g.first_block + 2;
      layouts.push_back(g);
    }
    alloc_ = std::make_unique<CgAllocator>(&cache_, layouts);
    EXPECT_TRUE(alloc_->FormatBitmaps().ok());
  }

  SimClock clock_;
  disk::DiskModel model_;
  blk::BlockDevice dev_;
  cache::BufferCache cache_;
  std::unique_ptr<CgAllocator> alloc_;
};

TEST_F(AllocatorTest, FreeCountAfterFormat) {
  EXPECT_EQ(alloc_->free_blocks(), 2u * (512 - 2));
}

TEST_F(AllocatorTest, AllocNearPrefersGoal) {
  auto b = alloc_->AllocNear(100);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 100u);
  // Goal taken: next request for the same goal gets the next free block.
  auto c = alloc_->AllocNear(100);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 101u);
}

TEST_F(AllocatorTest, MetadataBlocksNeverAllocated) {
  std::set<uint32_t> got;
  for (int i = 0; i < 1020; ++i) {
    auto b = alloc_->AllocNear(0);
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(got.insert(*b).second) << "duplicate " << *b;
    // Never a bitmap/reservation block, never block 0.
    EXPECT_GE(*b % 512, 3u == 0 ? 0u : 0u);
    EXPECT_NE(*b, 0u);
    EXPECT_NE(*b, 1u);
    EXPECT_NE(*b, 2u);
    EXPECT_NE(*b, 513u);
    EXPECT_NE(*b, 514u);
  }
  EXPECT_EQ(alloc_->free_blocks(), 0u);
  EXPECT_EQ(alloc_->AllocNear(0).status().code(), ErrorCode::kNoSpace);
}

TEST_F(AllocatorTest, FreeMakesBlockReusable) {
  auto b = alloc_->AllocNear(50);
  ASSERT_TRUE(b.ok());
  const uint64_t free_before = alloc_->free_blocks();
  ASSERT_TRUE(alloc_->Free(*b).ok());
  EXPECT_EQ(alloc_->free_blocks(), free_before + 1);
  EXPECT_TRUE(*alloc_->IsFree(*b));
}

TEST_F(AllocatorTest, DoubleFreeDetected) {
  auto b = alloc_->AllocNear(50);
  ASSERT_TRUE(alloc_->Free(*b).ok());
  EXPECT_EQ(alloc_->Free(*b).code(), ErrorCode::kCorrupt);
}

TEST_F(AllocatorTest, FreeingMetadataRejected) {
  EXPECT_EQ(alloc_->Free(1).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(alloc_->Free(2).code(), ErrorCode::kInvalidArgument);
}

TEST_F(AllocatorTest, ExtentIsAlignedAndReserved) {
  auto ext = alloc_->AllocExtent(0, 16, 16);
  ASSERT_TRUE(ext.ok());
  const CgLayout& g = alloc_->layout(0);
  EXPECT_EQ((*ext - g.first_block) % 16, 0u);
  EXPECT_TRUE(*alloc_->ExtentReserved(*ext, 16));
  EXPECT_TRUE(*alloc_->ExtentIdle(*ext, 16));
}

TEST_F(AllocatorTest, OrdinaryAllocationAvoidsReservedExtents) {
  auto ext = alloc_->AllocExtent(0, 16, 16);
  ASSERT_TRUE(ext.ok());
  for (int i = 0; i < 400; ++i) {
    auto b = alloc_->AllocNear(*ext);  // goal inside the extent
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(*b < *ext || *b >= *ext + 16) << *b;
  }
}

TEST_F(AllocatorTest, AllocInExtentFillsSlotsInOrder) {
  auto ext = alloc_->AllocExtent(0, 8, 8);
  ASSERT_TRUE(ext.ok());
  for (uint32_t i = 0; i < 8; ++i) {
    auto b = alloc_->AllocInExtent(*ext, 8);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*b, *ext + i);
  }
  EXPECT_EQ(alloc_->AllocInExtent(*ext, 8).status().code(),
            ErrorCode::kNoSpace);
  EXPECT_FALSE(*alloc_->ExtentIdle(*ext, 8));
}

TEST_F(AllocatorTest, ReleaseExtentAllowsOrdinaryReuse) {
  auto ext = alloc_->AllocExtent(0, 16, 16);
  ASSERT_TRUE(ext.ok());
  ASSERT_TRUE(alloc_->ReleaseExtent(*ext, 16).ok());
  EXPECT_FALSE(*alloc_->ExtentReserved(*ext, 16));
  // Now an ordinary allocation can land inside.
  auto b = alloc_->AllocNear(*ext);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *ext);
}

TEST_F(AllocatorTest, ExtentsDoNotOverlap) {
  std::set<uint32_t> starts;
  for (;;) {
    auto ext = alloc_->AllocExtent(0, 16, 16);
    if (!ext.ok()) {
      EXPECT_EQ(ext.status().code(), ErrorCode::kNoSpace);
      break;
    }
    EXPECT_TRUE(starts.insert(*ext).second);
    // Occupy a slot so the idle-reservation sweep doesn't reclaim the
    // extent (an empty reservation is reclaimable by design).
    ASSERT_TRUE(alloc_->AllocInExtent(*ext, 16).ok());
  }
  // Both cylinder groups covered: ~(510/16)*2 extents.
  EXPECT_GE(starts.size(), 60u);
}

TEST_F(AllocatorTest, SpillsToSecondCylinderGroup) {
  // Exhaust cg 0.
  uint32_t in_cg0 = 0;
  for (;;) {
    auto b = alloc_->AllocNear(3);
    ASSERT_TRUE(b.ok());
    if (*b >= 513) break;
    ++in_cg0;
  }
  EXPECT_EQ(in_cg0, 510u);
}

TEST_F(AllocatorTest, RecountMatchesIncrementalCount) {
  for (int i = 0; i < 37; ++i) ASSERT_TRUE(alloc_->AllocNear(0).ok());
  const uint64_t incremental = alloc_->free_blocks();
  ASSERT_TRUE(alloc_->RecountFree().ok());
  EXPECT_EQ(alloc_->free_blocks(), incremental);
}

TEST_F(AllocatorTest, MarkUsedBehavesLikeAlloc) {
  ASSERT_TRUE(alloc_->MarkUsed(77).ok());
  EXPECT_FALSE(*alloc_->IsFree(77));
  EXPECT_EQ(alloc_->MarkUsed(77).code(), ErrorCode::kCorrupt);
}

// --- Word scans vs. the bit-at-a-time loops they replaced ---

// The bit-at-a-time definition of FindFirstBit.
std::optional<uint32_t> NaiveFindFirstBit(std::span<const uint8_t> bits,
                                          uint32_t lo, uint32_t hi, bool value,
                                          std::span<const uint8_t> also) {
  for (uint32_t b = lo; b < hi; ++b) {
    const bool v = BitGet(bits, b) || (!also.empty() && BitGet(also, b));
    if (v == value) return b;
  }
  return std::nullopt;
}

TEST(BitmapScanTest, MatchesBitLoopOnRandomRanges) {
  std::mt19937 rng(7);
  // Buffer sizes that are not multiples of 8 bytes check that the word
  // loads stay inside the span.
  for (size_t bytes : {1u, 7u, 8u, 13u, 64u, 4096u}) {
    std::vector<uint8_t> a(bytes), b(bytes);
    for (int round = 0; round < 200; ++round) {
      const int density = static_cast<int>(rng() % 101);
      for (size_t i = 0; i < bytes * 8; ++i) {
        BitClear(a, static_cast<uint32_t>(i));
        BitClear(b, static_cast<uint32_t>(i));
        if (static_cast<int>(rng() % 100) < density) {
          BitSet(a, static_cast<uint32_t>(i));
        }
        if (static_cast<int>(rng() % 100) < density / 4) {
          BitSet(b, static_cast<uint32_t>(i));
        }
      }
      const uint32_t nbits = static_cast<uint32_t>(bytes * 8);
      uint32_t lo = rng() % (nbits + 1);
      uint32_t hi = rng() % (nbits + 1);
      if (lo > hi) std::swap(lo, hi);
      // Bytes past the last bit of the range may be absent from the span.
      const std::span<const uint8_t> sa(a.data(), (hi + 7) / 8);
      const std::span<const uint8_t> sb(b.data(), (hi + 7) / 8);
      for (bool value : {false, true}) {
        EXPECT_EQ(FindFirstBit(sa, lo, hi, value),
                  NaiveFindFirstBit(sa, lo, hi, value, {}))
            << bytes << " [" << lo << "," << hi << ") " << value;
        EXPECT_EQ(FindFirstBit(sa, lo, hi, value, sb),
                  NaiveFindFirstBit(sa, lo, hi, value, sb))
            << bytes << " [" << lo << "," << hi << ") " << value;
      }
    }
  }
}

// A shadow of the allocator's bitmaps with the per-bit scan loops the
// allocator used before the word scan, copied verbatim in logic. Every
// entry point must pick exactly the block (or report exactly the error)
// these loops do.
class RefAllocator {
 public:
  explicit RefAllocator(std::vector<CgLayout> groups)
      : groups_(std::move(groups)),
        bm_(groups_.size(), std::vector<uint8_t>(kBlockSize)),
        rm_(groups_.size(), std::vector<uint8_t>(kBlockSize)) {}

  std::vector<uint8_t>& bm(uint32_t cg) { return bm_[cg]; }
  std::vector<uint8_t>& rm(uint32_t cg) { return rm_[cg]; }
  uint64_t free_blocks() const { return free_blocks_; }

  void RecountFree() {
    free_blocks_ = 0;
    for (uint32_t cg = 0; cg < groups_.size(); ++cg) {
      for (uint32_t b = 0; b < groups_[cg].blocks; ++b) {
        if (!BitGet(bm_[cg], b)) ++free_blocks_;
      }
    }
  }

  uint32_t CgOf(uint32_t bno) const {
    for (uint32_t cg = 0; cg < groups_.size(); ++cg) {
      const CgLayout& g = groups_[cg];
      if (bno >= g.first_block && bno < g.first_block + g.blocks) return cg;
    }
    return 0;
  }

  Result<uint32_t> AllocInCg(uint32_t cg, uint32_t goal_abs,
                             bool ignore_reservations) {
    const CgLayout& g = groups_[cg];
    uint32_t from =
        goal_abs >= g.first_block && goal_abs < g.first_block + g.blocks
            ? goal_abs - g.first_block
            : g.data_start - g.first_block;
    const bool use_resv = g.resv_block != 0 && !ignore_reservations;
    for (uint32_t n = 0; n < g.blocks; ++n) {
      const uint32_t bit = (from + n) % g.blocks;
      if (bit < g.data_start - g.first_block) continue;
      if (BitGet(bm_[cg], bit)) continue;
      if (use_resv && BitGet(rm_[cg], bit)) continue;
      BitSet(bm_[cg], bit);
      --free_blocks_;
      if (use_resv || g.resv_block == 0 || !BitGet(rm_[cg], bit)) {
        ++unreserved_allocs;
      } else {
        ++reserved_allocs;
      }
      if (cg == CgOf(goal_abs) && bit < from) ++wrapped_allocs;
      return g.first_block + bit;
    }
    return NoSpace("cylinder group full");
  }

  Result<uint32_t> AllocNearPass(uint32_t goal, bool ignore_reservations) {
    const uint32_t home = CgOf(goal);
    Result<uint32_t> r = AllocInCg(home, goal, ignore_reservations);
    if (r.ok() || r.status().code() != ErrorCode::kNoSpace) return r;
    for (uint32_t n = 1; n < groups_.size(); ++n) {
      const uint32_t cg = (home + n) % groups_.size();
      r = AllocInCg(cg, 0, ignore_reservations);
      if (r.ok() || r.status().code() != ErrorCode::kNoSpace) return r;
    }
    return NoSpace("file system full");
  }

  Result<uint32_t> AllocNear(uint32_t goal) {
    Result<uint32_t> r = AllocNearPass(goal, false);
    if (r.ok() || r.status().code() != ErrorCode::kNoSpace) return r;
    if (free_blocks_ == 0) return NoSpace("file system full");
    const uint32_t released = SweepIdleReservations();
    if (released > 0) {
      r = AllocNearPass(goal, false);
      if (r.ok() || r.status().code() != ErrorCode::kNoSpace) return r;
    }
    return AllocNearPass(goal, true);
  }

  uint32_t SweepIdleReservations() {
    uint32_t released = 0;
    for (uint32_t cg = 0; cg < groups_.size(); ++cg) {
      const CgLayout& g = groups_[cg];
      if (g.resv_block == 0) continue;
      for (uint32_t w = 0; w + g.resv_align <= g.blocks; w += g.resv_align) {
        bool reserved = false, used = false;
        for (uint32_t i = 0; i < g.resv_align; ++i) {
          reserved |= BitGet(rm_[cg], w + i);
          used |= BitGet(bm_[cg], w + i);
          if (used) break;
        }
        if (!reserved || used) continue;
        for (uint32_t i = 0; i < g.resv_align; ++i) BitClear(rm_[cg], w + i);
        ++released;
      }
    }
    return released;
  }

  Result<uint32_t> AllocExtent(uint32_t cg, uint32_t run, uint32_t align) {
    if (run == 0) return InvalidArgument("empty extent");
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (attempt == 1 && SweepIdleReservations() == 0) break;
      for (uint32_t n = 0; n < groups_.size(); ++n) {
        const uint32_t c = (cg + n) % groups_.size();
        const CgLayout& g = groups_[c];
        if (g.resv_block == 0) return Unsupported("no reservation bitmap");
        const uint32_t lo = g.data_start - g.first_block;
        const uint32_t hi = g.blocks;
        const uint32_t start = ((lo + align - 1) / align) * align;
        for (uint32_t s = start; s + run <= hi; s += align) {
          bool ok = true;
          for (uint32_t i = 0; i < run; ++i) {
            if (s + i < lo || BitGet(bm_[c], s + i) ||
                BitGet(rm_[c], s + i)) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          for (uint32_t i = 0; i < run; ++i) BitSet(rm_[c], s + i);
          return g.first_block + s;
        }
      }
    }
    return NoSpace("no free extent for group");
  }

  Result<uint32_t> AllocInExtent(uint32_t start, uint32_t len) {
    const uint32_t cg = CgOf(start);
    const CgLayout& g = groups_[cg];
    for (uint32_t i = 0; i < len; ++i) {
      const uint32_t bit = start - g.first_block + i;
      if (!BitGet(bm_[cg], bit)) {
        BitSet(bm_[cg], bit);
        --free_blocks_;
        return start + i;
      }
    }
    return NoSpace("group extent full");
  }

  bool ExtentIdle(uint32_t start, uint32_t len) {
    const uint32_t cg = CgOf(start);
    for (uint32_t i = 0; i < len; ++i) {
      if (BitGet(bm_[cg], start - groups_[cg].first_block + i)) return false;
    }
    return true;
  }

  bool ExtentReserved(uint32_t start, uint32_t len) {
    const uint32_t cg = CgOf(start);
    const CgLayout& g = groups_[cg];
    if (g.resv_block == 0) return false;
    if (start < g.first_block || start + len > g.first_block + g.blocks) {
      return false;
    }
    for (uint32_t i = 0; i < len; ++i) {
      if (!BitGet(rm_[cg], start - g.first_block + i)) return false;
    }
    return true;
  }

  void Free(uint32_t bno) {
    const uint32_t cg = CgOf(bno);
    BitClear(bm_[cg], bno - groups_[cg].first_block);
    ++free_blocks_;
  }

  void ReleaseExtent(uint32_t start, uint32_t len) {
    const uint32_t cg = CgOf(start);
    for (uint32_t i = 0; i < len; ++i) {
      BitClear(rm_[cg], start - groups_[cg].first_block + i);
    }
  }

  // Which AllocInCg paths the run exercised.
  uint64_t unreserved_allocs = 0;
  uint64_t reserved_allocs = 0;  // taken by the ignore-reservations pass
  uint64_t wrapped_allocs = 0;   // found behind the goal, after the wrap

 private:
  std::vector<CgLayout> groups_;
  std::vector<std::vector<uint8_t>> bm_, rm_;
  uint64_t free_blocks_ = 0;
};

// Ok value, or the error code, as one comparable string.
template <typename T>
std::string Outcome(const Result<T>& r) {
  if (!r.ok()) {
    return "error " + std::to_string(static_cast<int>(r.status().code()));
  }
  return "ok " + std::to_string(static_cast<uint64_t>(*r));
}

class AllocatorScanDiffTest : public ::testing::TestWithParam<bool> {
 protected:
  AllocatorScanDiffTest()
      : model_(disk::TestDisk(1024, 4, 64), &clock_),
        dev_(&model_, disk::SchedulerPolicy::kCLook),
        cache_(&dev_, 512) {}

  // Group sizes that are not multiples of 64 (one is), metadata areas of
  // varying depth, and reservation windows that do not divide the group.
  std::vector<CgLayout> Layouts(bool reservations) const {
    struct Shape {
      uint32_t blocks, meta, align;
    };
    const Shape shapes[] = {{500, 3, 16}, {333, 37, 7}, {1000, 2, 16},
                            {640, 2, 32}};
    std::vector<CgLayout> out;
    uint32_t first = 1;
    for (const Shape& sh : shapes) {
      CgLayout g;
      g.first_block = first;
      g.blocks = sh.blocks;
      g.bitmap_block = first;
      g.resv_block = reservations ? first + 1 : 0;
      g.data_start = first + sh.meta;
      g.resv_align = sh.align;
      out.push_back(g);
      first += sh.blocks;
    }
    return out;
  }

  // Writes the reference bitmaps into the allocator's cached blocks.
  void Load(const std::vector<CgLayout>& groups, RefAllocator* ref) {
    for (uint32_t cg = 0; cg < groups.size(); ++cg) {
      auto bm = cache_.Get(groups[cg].bitmap_block);
      ASSERT_TRUE(bm.ok());
      std::memcpy(bm->data().data(), ref->bm(cg).data(), kBlockSize);
      if (groups[cg].resv_block != 0) {
        auto rm = cache_.Get(groups[cg].resv_block);
        ASSERT_TRUE(rm.ok());
        std::memcpy(rm->data().data(), ref->rm(cg).data(), kBlockSize);
      }
    }
  }

  // Both bitmaps of every group must match the reference byte for byte.
  void ExpectSameBitmaps(const std::vector<CgLayout>& groups,
                         RefAllocator* ref, const std::string& op) {
    for (uint32_t cg = 0; cg < groups.size(); ++cg) {
      auto bm = cache_.Get(groups[cg].bitmap_block);
      ASSERT_TRUE(bm.ok());
      ASSERT_EQ(std::memcmp(bm->data().data(), ref->bm(cg).data(), kBlockSize),
                0)
          << "block bitmap of cg " << cg << " after " << op;
      if (groups[cg].resv_block != 0) {
        auto rm = cache_.Get(groups[cg].resv_block);
        ASSERT_TRUE(rm.ok());
        ASSERT_EQ(
            std::memcmp(rm->data().data(), ref->rm(cg).data(), kBlockSize), 0)
            << "reservation bitmap of cg " << cg << " after " << op;
      }
    }
  }

  SimClock clock_;
  disk::DiskModel model_;
  blk::BlockDevice dev_;
  cache::BufferCache cache_;
};

TEST_P(AllocatorScanDiffTest, EveryEntryPointMatchesBitLoops) {
  const bool reservations = GetParam();
  const std::vector<CgLayout> groups = Layouts(reservations);
  const uint32_t end_block = groups.back().first_block + groups.back().blocks;
  std::mt19937 rng(reservations ? 1997 : 1996);
  const auto pick = [&rng](uint32_t n) {
    return static_cast<uint32_t>(rng() % n);
  };
  uint64_t no_space = 0, released = 0, wrapped = 0, ignored = 0;

  for (int round = 0; round < 40; ++round) {
    CgAllocator alloc(&cache_, groups);
    RefAllocator ref(groups);
    // Fresh random bitmaps: densities from empty to completely full, the
    // metadata area mostly (not always) marked used, reservations both as
    // aligned windows and as scattered bits. Every fourth round fills the
    // whole disk (allocation fails); the round after leaves free blocks
    // only inside busy reserved windows (the ignore-reservations pass).
    const uint32_t used_pct[] = {0, 30, 70, 95, 100};
    const uint32_t resv_pct[] = {0, 20, 60, 100};
    const bool full_disk = round % 4 == 2;
    const bool reserved_only = round % 4 == 3;
    for (uint32_t cg = 0; cg < groups.size(); ++cg) {
      const CgLayout& g = groups[cg];
      uint32_t pu = used_pct[pick(5)];
      uint32_t pr = reservations ? resv_pct[pick(4)] : 0;
      bool windows = pick(2) == 0;
      if (full_disk) pu = 100;
      if (reserved_only) {
        pu = 90;
        pr = 100;
        windows = false;
      }
      for (uint32_t b = 0; b < g.blocks; ++b) {
        const bool meta = b < g.data_start - g.first_block;
        if (meta ? pick(8) != 0 : pick(100) < pu) BitSet(ref.bm(cg), b);
        const uint32_t w = b / g.resv_align * g.resv_align;
        const uint32_t roll = windows ? (w * 2654435761u + round) % 100
                                      : pick(100);
        if (roll < pr) BitSet(ref.rm(cg), b);
      }
    }
    ASSERT_NO_FATAL_FAILURE(Load(groups, &ref));
    ASSERT_TRUE(alloc.RecountFree().ok());
    ref.RecountFree();
    ASSERT_EQ(alloc.free_blocks(), ref.free_blocks());

    for (int step = 0; step < 150; ++step) {
      const uint32_t cg = pick(static_cast<uint32_t>(groups.size()));
      const CgLayout& g = groups[cg];
      std::string op, got, want;
      switch (pick(8)) {
        case 0:
        case 1: {
          // Goals inside a group's data area, inside its metadata area,
          // and outside every group.
          uint32_t goal = g.first_block + pick(g.blocks);
          const uint32_t kind = pick(4);
          if (kind == 0) {
            goal = g.first_block + pick(g.data_start - g.first_block);
          }
          if (kind == 1) goal = pick(2) == 0 ? 0 : end_block + pick(1000);
          op = "AllocNear(" + std::to_string(goal) + ")";
          const Result<uint32_t> w = ref.AllocNear(goal);
          if (!w.ok()) ++no_space;
          want = Outcome(w);
          got = Outcome(alloc.AllocNear(goal));
          break;
        }
        case 2: {
          const uint32_t run = 1 + pick(24);
          const uint32_t align = 1u << pick(5);
          op = "AllocExtent(" + std::to_string(cg) + "," +
               std::to_string(run) + "," + std::to_string(align) + ")";
          want = Outcome(ref.AllocExtent(cg, run, align));
          got = Outcome(alloc.AllocExtent(cg, run, align));
          break;
        }
        case 3: {
          const uint32_t len = 1 + pick(70);
          const uint32_t start = g.first_block + pick(g.blocks - len + 1);
          op = "AllocInExtent(" + std::to_string(start) + "," +
               std::to_string(len) + ")";
          want = Outcome(ref.AllocInExtent(start, len));
          got = Outcome(alloc.AllocInExtent(start, len));
          break;
        }
        case 4: {
          const uint32_t len = 1 + pick(70);
          const uint32_t start = g.first_block + pick(g.blocks - len + 1);
          op = "ExtentIdle/Reserved(" + std::to_string(start) + "," +
               std::to_string(len) + ")";
          want = std::to_string(ref.ExtentIdle(start, len)) + "/" +
                 std::to_string(ref.ExtentReserved(start, len));
          const Result<bool> idle = alloc.ExtentIdle(start, len);
          const Result<bool> resv = alloc.ExtentReserved(start, len);
          ASSERT_TRUE(idle.ok() && resv.ok()) << op;
          got = std::to_string(*idle) + "/" + std::to_string(*resv);
          break;
        }
        case 5: {
          op = "SweepIdleReservations";
          const uint32_t w = ref.SweepIdleReservations();
          released += w;
          want = "ok " + std::to_string(w);
          got = Outcome(alloc.SweepIdleReservations());
          break;
        }
        case 6: {
          // Free a used data block so the churn reopens space.
          const uint32_t b = g.data_start + pick(g.first_block + g.blocks -
                                                 g.data_start);
          if (BitGet(ref.bm(cg), b - g.first_block)) {
            op = "Free(" + std::to_string(b) + ")";
            ref.Free(b);
            ASSERT_TRUE(alloc.Free(b).ok()) << op;
          }
          break;
        }
        default: {
          if (!reservations) break;
          const uint32_t len = g.resv_align;
          const uint32_t start =
              g.first_block + pick(g.blocks / len) * len;
          op = "ReleaseExtent(" + std::to_string(start) + ")";
          ref.ReleaseExtent(start, len);
          ASSERT_TRUE(alloc.ReleaseExtent(start, len).ok()) << op;
          break;
        }
      }
      ASSERT_EQ(got, want) << "round " << round << ": " << op;
      ASSERT_EQ(alloc.free_blocks(), ref.free_blocks()) << op;
      ASSERT_NO_FATAL_FAILURE(ExpectSameBitmaps(groups, &ref, op));
    }
    wrapped += ref.wrapped_allocs;
    ignored += ref.reserved_allocs;
  }
  // The random mix reached every path it is meant to cover.
  EXPECT_GT(wrapped, 0u);
  EXPECT_GT(no_space, 0u);
  if (reservations) {
    EXPECT_GT(ignored, 0u);
    EXPECT_GT(released, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Reservations, AllocatorScanDiffTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "WithResv" : "NoResv";
                         });

}  // namespace
}  // namespace cffs::fs
