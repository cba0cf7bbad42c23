// Unit tests for the block device and the dual-indexed buffer cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/disk/disk_model.h"

namespace cffs {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  CacheTest()
      : model_(disk::TestDisk(256, 4, 64), &clock_),
        dev_(&model_, disk::SchedulerPolicy::kCLook),
        cache_(&dev_, 64) {}

  SimClock clock_;
  disk::DiskModel model_;
  blk::BlockDevice dev_;
  cache::BufferCache cache_;
};

TEST_F(CacheTest, MissReadsFromDiskHitDoesNot) {
  auto a = cache_.Get(42);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(dev_.stats().reads, 1u);
  a->data()[0] = 9;
  a.value().Release();
  auto b = cache_.Get(42);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(dev_.stats().reads, 1u);  // served from cache
  EXPECT_EQ(b->data()[0], 9);
}

TEST_F(CacheTest, GetZeroClearsStaleResidentContents) {
  // Regression: a group read can insert a block that is still FREE on
  // disk; when that block is later allocated (e.g. as an indirect block),
  // GetZero must hand back zeroes, not the stale data — otherwise garbage
  // is interpreted as block pointers (observed as a cross-link corruption
  // under near-full churn).
  ASSERT_TRUE(cache_.ReadGroup(600, 4).ok());
  {
    auto stale = cache_.Lookup(602);
    ASSERT_TRUE(stale.ok());
    (*stale)->data()[0] = 0x5a;  // simulate old file contents
  }
  auto fresh = cache_.GetZero(602);
  ASSERT_TRUE(fresh.ok());
  for (uint8_t b : (*fresh)->data()) ASSERT_EQ(b, 0);
}

TEST_F(CacheTest, GetZeroAvoidsDiskRead) {
  auto a = cache_.GetZero(10);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(dev_.stats().reads, 0u);
  for (uint8_t b : a->data()) EXPECT_EQ(b, 0);
}

TEST_F(CacheTest, DirtyDataSurvivesEvictionViaWriteback) {
  {
    auto a = cache_.GetZero(5);
    ASSERT_TRUE(a.ok());
    a->data()[0] = 0x77;
    cache_.MarkDirty(*a);
  }
  // Evict block 5 by filling the cache with other blocks.
  for (uint64_t b = 100; b < 100 + 80; ++b) {
    auto r = cache_.GetZero(b);
    ASSERT_TRUE(r.ok());
  }
  EXPECT_GE(cache_.stats().evictions, 1u);
  auto back = cache_.Get(5);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data()[0], 0x77);
}

TEST_F(CacheTest, PinnedBuffersAreNotEvicted) {
  auto pinned = cache_.GetZero(1);
  ASSERT_TRUE(pinned.ok());
  pinned->data()[0] = 0xee;
  for (uint64_t b = 100; b < 100 + 100; ++b) {
    auto r = cache_.GetZero(b);
    ASSERT_TRUE(r.ok());
  }
  // Still resident and identical (the pin protected it).
  EXPECT_EQ(pinned->data()[0], 0xee);
  auto again = cache_.Lookup(1);
  EXPECT_TRUE(again.ok());
}

TEST_F(CacheTest, LruOrderEvictsColdest) {
  auto a = cache_.GetZero(1);
  a.value().Release();
  auto b = cache_.GetZero(2);
  b.value().Release();
  // Touch 1 again so 2 is the LRU.
  cache_.Lookup(1).value().Release();
  for (uint64_t blk = 100; blk < 100 + 63; ++blk) {
    cache_.GetZero(blk).value().Release();
  }
  // 2 should be gone before 1.
  EXPECT_FALSE(cache_.Lookup(2).ok());
}

TEST_F(CacheTest, LogicalIndexFindsBuffer) {
  auto a = cache_.GetZero(77);
  ASSERT_TRUE(a.ok());
  cache_.Bind(*a, {.file = 5, .block_index = 3});
  a.value().Release();
  auto found = cache_.LookupLogical({.file = 5, .block_index = 3});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->bno(), 77u);
  EXPECT_FALSE(cache_.LookupLogical({.file = 5, .block_index = 4}).ok());
}

TEST_F(CacheTest, RebindMovesLogicalIdentity) {
  auto a = cache_.GetZero(77);
  cache_.Bind(*a, {.file = 1, .block_index = 0});
  cache_.Bind(*a, {.file = 2, .block_index = 0});
  a.value().Release();
  EXPECT_FALSE(cache_.LookupLogical({.file = 1, .block_index = 0}).ok());
  EXPECT_TRUE(cache_.LookupLogical({.file = 2, .block_index = 0}).ok());
}

// A logical identity names one buffer. Binding it to a second buffer takes
// it from the first, so whatever later happens to the first buffer (it is
// invalidated, evicted or bound to something else) leaves the second one
// findable.
TEST_F(CacheTest, OldHolderLeavingKeepsTheReboundIdentity) {
  const cache::LogicalId id{.file = 9, .block_index = 0};
  const cache::LogicalId other{.file = 9, .block_index = 1};
  enum class Leave { kInvalidate, kEvict, kRebind };
  for (Leave leave : {Leave::kInvalidate, Leave::kEvict, Leave::kRebind}) {
    cache::BufferCache cache(&dev_, 16);
    {
      auto a = cache.GetZero(10);
      cache.Bind(*a, id);
      auto b = cache.GetZero(20);
      cache.Bind(*b, id);
      EXPECT_FALSE((*a)->has_logical_id());
      EXPECT_EQ((*b)->logical_id(), id);
      if (leave == Leave::kRebind) cache.Bind(*a, other);
    }
    if (leave == Leave::kInvalidate) cache.Invalidate(10);
    if (leave == Leave::kEvict) {
      // Keep 20 warm while 10 ages out.
      for (uint64_t b = 100; b < 116; ++b) {
        cache.Lookup(20).value().Release();
        cache.GetZero(b).value().Release();
      }
      ASSERT_FALSE(cache.Lookup(10).ok());
    }
    auto found = cache.LookupLogical(id);
    ASSERT_TRUE(found.ok()) << static_cast<int>(leave);
    EXPECT_EQ((*found)->bno(), 20u);
  }
}

TEST_F(CacheTest, ReadGroupIsOneDiskCommand) {
  ASSERT_TRUE(cache_.ReadGroup(200, 16).ok());
  EXPECT_EQ(dev_.stats().reads, 1u);
  EXPECT_EQ(dev_.stats().blocks_read, 16u);
  // All 16 blocks resident without further I/O.
  for (uint64_t b = 200; b < 216; ++b) {
    EXPECT_TRUE(cache_.Lookup(b).ok()) << b;
  }
  EXPECT_EQ(dev_.stats().reads, 1u);
}

TEST_F(CacheTest, ReadGroupKeepsNewerDirtyCopy) {
  {
    auto a = cache_.GetZero(205);
    a->data()[0] = 0x31;
    cache_.MarkDirty(*a);
  }
  ASSERT_TRUE(cache_.ReadGroup(200, 16).ok());
  auto b = cache_.Get(205);
  EXPECT_EQ(b->data()[0], 0x31);  // dirty copy not clobbered
}

TEST_F(CacheTest, SyncBlockWritesThroughOnce) {
  auto a = cache_.GetZero(9);
  a->data()[0] = 1;
  cache_.MarkDirty(*a);
  a.value().Release();
  EXPECT_EQ(cache_.dirty_count(), 1u);
  ASSERT_TRUE(cache_.SyncBlock(9).ok());
  EXPECT_EQ(cache_.dirty_count(), 0u);
  EXPECT_EQ(dev_.stats().writes, 1u);
  // Second sync is a no-op.
  ASSERT_TRUE(cache_.SyncBlock(9).ok());
  EXPECT_EQ(dev_.stats().writes, 1u);
}

TEST_F(CacheTest, SyncAllCoalescesSameUnitRuns) {
  for (uint64_t b = 300; b < 316; ++b) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
    cache_.SetFlushUnit(*r, 300);
  }
  ASSERT_TRUE(cache_.SyncAll().ok());
  EXPECT_EQ(dev_.stats().writes, 1u);  // one coalesced command
  EXPECT_EQ(dev_.stats().blocks_written, 16u);
}

TEST_F(CacheTest, SyncAllDoesNotCoalesceDifferentUnits) {
  for (uint64_t b = 300; b < 308; ++b) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
    cache_.SetFlushUnit(*r, b);  // every block its own unit
  }
  ASSERT_TRUE(cache_.SyncAll().ok());
  EXPECT_EQ(dev_.stats().writes, 8u);
}

TEST_F(CacheTest, SyncAllFillsGapsWithResidentCleanBlocks) {
  // Dirty 300 and 303 (same unit), clean-resident 301, 302: the flush
  // should write 300..303 as one command.
  for (uint64_t b = 301; b <= 302; ++b) {
    cache_.GetZero(b).value().Release();
  }
  for (uint64_t b : {300, 303}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
    cache_.SetFlushUnit(*r, 300);
  }
  ASSERT_TRUE(cache_.SyncAll().ok());
  EXPECT_EQ(dev_.stats().writes, 1u);
  EXPECT_EQ(dev_.stats().blocks_written, 4u);
}

TEST_F(CacheTest, SyncAllLeavesGapWhenBlockNotResident) {
  for (uint64_t b : {400, 403}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
    cache_.SetFlushUnit(*r, 400);
  }
  ASSERT_TRUE(cache_.SyncAll().ok());
  EXPECT_EQ(dev_.stats().writes, 2u);  // cannot bridge 401-402
}

TEST_F(CacheTest, InvalidateDropsDirtyData) {
  {
    auto a = cache_.GetZero(11);
    a->data()[0] = 0x55;
    cache_.MarkDirty(*a);
  }
  cache_.Invalidate(11);
  EXPECT_EQ(cache_.dirty_count(), 0u);
  auto back = cache_.Get(11);  // re-reads from disk: zeros
  EXPECT_EQ(back->data()[0], 0);
}

TEST_F(CacheTest, StatsTrackHitsAndMisses) {
  cache_.Get(1).value().Release();
  cache_.Get(1).value().Release();
  cache_.Get(2).value().Release();
  EXPECT_EQ(cache_.stats().misses, 2u);
  EXPECT_EQ(cache_.stats().hits, 1u);
}

// --- Flush-plan API shared by SyncAll and the syncer ----------------------

TEST_F(CacheTest, BuildFlushPlanIsSortedAndNoteFlushedCleans) {
  for (uint64_t b : {50, 10, 30}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
  }
  std::vector<blk::WriteOp> plan = cache_.BuildFlushPlan();
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].bno, 10u);
  EXPECT_EQ(plan[1].bno, 30u);
  EXPECT_EQ(plan[2].bno, 50u);
  // NoteFlushed is the bookkeeping half of SyncAll: it cleans exactly the
  // dirty blocks the plan covered and counts them as writebacks.
  EXPECT_EQ(cache_.NoteFlushed(plan), 3u);
  EXPECT_EQ(cache_.dirty_count(), 0u);
  EXPECT_EQ(cache_.stats().writebacks, 3u);
  // A second pass over the same (now clean) plan is a no-op.
  EXPECT_EQ(cache_.NoteFlushed(plan), 0u);
}

TEST_F(CacheTest, FlushPlanIncludesCleanGapFillers) {
  for (uint64_t b = 301; b <= 302; ++b) {
    cache_.GetZero(b).value().Release();
  }
  for (uint64_t b : {300, 303}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
    cache_.SetFlushUnit(*r, 300);
  }
  std::vector<blk::WriteOp> plan = cache_.BuildFlushPlan();
  EXPECT_EQ(plan.size(), 4u);  // 2 dirty + 2 clean bridging blocks
  EXPECT_EQ(cache_.NoteFlushed(plan), 2u);  // fillers are not writebacks
  EXPECT_EQ(cache_.stats().writebacks, 2u);
}

TEST_F(CacheTest, OldestDirtyNsTracksAgingAndCleaning) {
  EXPECT_EQ(cache_.oldest_dirty_ns(), -1);
  {
    auto a = cache_.GetZero(5);
    cache_.MarkDirty(*a);
  }
  const int64_t first = cache_.oldest_dirty_ns();
  ASSERT_GE(first, 0);
  clock_.AdvanceBy(SimTime::Millis(5));
  {
    auto b = cache_.GetZero(6);
    cache_.MarkDirty(*b);
  }
  // The older of the two transitions wins.
  EXPECT_EQ(cache_.oldest_dirty_ns(), first);
  ASSERT_TRUE(cache_.SyncAll().ok());
  EXPECT_EQ(cache_.oldest_dirty_ns(), -1);
  // Re-dirtying after the flush starts a fresh age.
  clock_.AdvanceBy(SimTime::Millis(5));
  {
    auto c = cache_.GetZero(5);
    cache_.MarkDirty(*c);
  }
  EXPECT_GT(cache_.oldest_dirty_ns(), first);
}

TEST_F(CacheTest, FlushPlanBlocksComeInServiceOrder) {
  for (uint64_t b : {50, 10, 30}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
  }
  // C-LOOK from head 0: ascending block numbers.
  const auto blocks = cache_.FlushPlanBlocks();
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].bno, 10u);
  EXPECT_EQ(blocks[1].bno, 30u);
  EXPECT_EQ(blocks[2].bno, 50u);
  EXPECT_EQ(blocks[0].data.size(), blk::kBlockSize);
  // Snapshotting the plan does not clean anything.
  EXPECT_EQ(cache_.dirty_count(), 3u);
}

TEST_F(CacheTest, InsertRunStagesOnlyNonDemandBlocks) {
  std::vector<uint8_t> raw(4 * blk::kBlockSize);
  for (size_t i = 0; i < 4; ++i) raw[i * blk::kBlockSize] = static_cast<uint8_t>(i + 1);
  // Block 202 is already resident and dirty: its newer copy must survive.
  {
    auto r = cache_.GetZero(202);
    r->data()[0] = 0x77;
    cache_.MarkDirty(*r);
  }
  ASSERT_TRUE(cache_.InsertRun(200, 4, raw, /*demand_bno=*/200,
                               /*count_as_group=*/true).ok());
  // 3 inserted (202 kept its resident copy), demand block 200 un-staged.
  EXPECT_EQ(cache_.stats().readahead_staged, 2u);
  EXPECT_EQ(cache_.stats().group_reads, 1u);
  EXPECT_EQ(cache_.stats().group_blocks, 3u);
  EXPECT_FALSE(cache_.Lookup(200).value()->staged());
  EXPECT_EQ(cache_.Lookup(202).value()->data()[0], 0x77);
  EXPECT_EQ(cache_.Lookup(201).value()->flush_unit(), 200u);
}

// A run is read before it is inserted. When inserting its first block
// evicts a later block of the run that was resident and dirty, the read
// copy of that block is stale: the insert must keep the evicted contents.
TEST_F(CacheTest, RunInsertKeepsContentsEvictedDuringTheInsert) {
  for (bool group_read : {false, true}) {
    cache::BufferCache cache(&dev_, 8);
    const uint64_t base = group_read ? 500 : 400;
    {
      auto r = cache.GetZero(base + 5);
      r->data()[0] = 0x77;
      cache.MarkDirty(*r);
    }
    // Fill the cache with clean blocks; block base+5 is the LRU victim and
    // one dirty block stays under the quarter-dirty sync threshold.
    for (uint64_t b = 100; b < 107; ++b) cache.GetZero(b).value().Release();
    std::vector<uint8_t> raw(8 * blk::kBlockSize);  // what the disk held
    if (group_read) {
      ASSERT_TRUE(cache.ReadGroup(base, 8).ok());
    } else {
      ASSERT_TRUE(cache.InsertRun(base, 8, raw, base, false).ok());
    }
    auto r = cache.Lookup(base + 5);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)->data()[0], 0x77) << "group_read=" << group_read;
    EXPECT_GE(cache.stats().writebacks, 1u);
  }
}

// --- Dirty index: the flush paths walk only the dirty blocks --------------

// The index must hold exactly the dirty resident buffers; a stale entry
// would put a freed buffer (or a clean one) into the next flush plan.
void ExpectPlanIsExactly(cache::BufferCache& cache,
                         const std::vector<uint64_t>& bnos) {
  std::vector<blk::WriteOp> plan = cache.BuildFlushPlan();
  ASSERT_EQ(plan.size(), bnos.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].bno, bnos[i]);
    // The op aliases the resident buffer, not a dropped one.
    EXPECT_EQ(plan[i].data, cache.Lookup(bnos[i]).value()->data().data());
  }
  EXPECT_EQ(cache.dirty_count(), bnos.size());
  EXPECT_EQ(cache.DirtyBlocks().size(), bnos.size());
}

TEST_F(CacheTest, DirtyIndexMatchesAModelUnderRandomOps) {
  // Big enough that nothing is evicted: every drop is explicit.
  cache::BufferCache cache(&dev_, 1024);
  std::mt19937_64 rng(20240611);
  std::set<uint64_t> resident;
  std::map<uint64_t, uint64_t> dirty;  // bno -> flush unit
  constexpr uint64_t kBlocks = 200;
  auto pick = [&] { return rng() % kBlocks; };
  // A few units so same-unit neighbours and gaps both occur.
  auto pick_unit = [&](uint64_t bno) {
    return rng() % 4 == 0 ? cache::kNoFlushUnit : bno / 24;
  };

  // The reference plan: dirty blocks plus resident gap-fillers between
  // consecutive same-unit dirty blocks at most 64 apart.
  auto reference_plan = [&] {
    std::vector<std::pair<uint64_t, uint64_t>> want(dirty.begin(),
                                                    dirty.end());
    std::vector<std::pair<uint64_t, uint64_t>> fills;
    for (size_t i = 0; i + 1 < want.size(); ++i) {
      const auto [a, unit] = want[i];
      const uint64_t b = want[i + 1].first;
      if (unit == cache::kNoFlushUnit || unit != want[i + 1].second ||
          b - a > 64) {
        continue;
      }
      bool all = true;
      for (uint64_t g = a + 1; g < b; ++g) all = all && resident.count(g);
      if (!all) continue;
      for (uint64_t g = a + 1; g < b; ++g) fills.push_back({g, unit});
    }
    want.insert(want.end(), fills.begin(), fills.end());
    std::sort(want.begin(), want.end());
    return want;
  };

  size_t fillers_seen = 0;
  for (int step = 0; step < 4000; ++step) {
    const uint64_t bno = pick();
    switch (rng() % 16) {
      case 0: case 1: case 2: case 3: {  // fresh or re-zeroed block
        auto r = cache.GetZero(bno);
        ASSERT_TRUE(r.ok());
        resident.insert(bno);
        break;
      }
      case 4: case 5: case 6: case 7: case 8: {  // write
        auto r = cache.GetZero(bno);
        ASSERT_TRUE(r.ok());
        const uint64_t unit = pick_unit(bno);
        cache.SetFlushUnit(*r, unit);
        cache.MarkDirty(*r);
        resident.insert(bno);
        dirty[bno] = unit;
        break;
      }
      case 9: {  // retag a resident block
        if (!resident.count(bno)) break;
        auto r = cache.Lookup(bno);
        ASSERT_TRUE(r.ok());
        const uint64_t unit = pick_unit(bno);
        cache.SetFlushUnit(*r, unit);
        if (dirty.count(bno)) dirty[bno] = unit;
        break;
      }
      case 10: {
        ASSERT_TRUE(cache.SyncAll().ok());
        dirty.clear();
        break;
      }
      case 11: case 12: {  // syncer-style epoch: plan, write, note
        std::vector<blk::WriteOp> plan = cache.BuildFlushPlan();
        ASSERT_TRUE(plan.empty() || dev_.WriteBatch(plan).ok());
        ASSERT_EQ(cache.NoteFlushed(plan), dirty.size());
        dirty.clear();
        break;
      }
      case 13: case 14: {
        cache.Invalidate(bno);
        resident.erase(bno);
        dirty.erase(bno);
        break;
      }
      case 15: {
        if (rng() % 8 != 0) break;  // rare: it empties everything
        ASSERT_EQ(cache.CrashDropAll(), dirty.size());
        resident.clear();
        dirty.clear();
        break;
      }
    }

    ASSERT_EQ(cache.dirty_count(), dirty.size()) << "step " << step;
    ASSERT_EQ(cache.size(), resident.size()) << "step " << step;
    std::vector<blk::WriteOp> plan = cache.BuildFlushPlan();
    const auto want = reference_plan();
    ASSERT_EQ(plan.size(), want.size()) << "step " << step;
    for (size_t i = 0; i < plan.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(plan[i - 1].bno, plan[i].bno);
      }
      ASSERT_EQ(plan[i].bno, want[i].first) << "step " << step;
      ASSERT_EQ(plan[i].unit, want[i].second) << "step " << step;
    }
    fillers_seen += plan.size() - dirty.size();
    const auto blocks = cache.DirtyBlocks();
    ASSERT_EQ(blocks.size(), dirty.size());
    size_t k = 0;
    for (const auto& [b, unit] : dirty) ASSERT_EQ(blocks[k++].bno, b);
  }
  EXPECT_GT(fillers_seen, 0u);  // the gap-filler merge was exercised
  std::vector<blk::WriteOp> plan = cache.BuildFlushPlan();
  EXPECT_EQ(cache.NoteFlushed(plan), dirty.size());
  EXPECT_EQ(cache.dirty_count(), 0u);
}

TEST_F(CacheTest, DirtyIndexForgetsEvictedDirtyVictim) {
  {
    auto a = cache_.GetZero(5);
    a->data()[0] = 0x77;
    cache_.MarkDirty(*a);
  }
  // One dirty block stays under the quarter-dirty sync threshold, so it
  // leaves by eviction write-back.
  for (uint64_t b = 100; b < 100 + 80; ++b) cache_.GetZero(b).value().Release();
  ASSERT_FALSE(cache_.Lookup(5).ok());
  ExpectPlanIsExactly(cache_, {});
  {
    auto a = cache_.GetZero(5);
    cache_.MarkDirty(*a);
  }
  ExpectPlanIsExactly(cache_, {5});
}

TEST_F(CacheTest, DirtyIndexForgetsInvalidatedBlock) {
  for (uint64_t b : {7, 9}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
  }
  cache_.Invalidate(7);
  ExpectPlanIsExactly(cache_, {9});
  cache_.GetZero(7).value().Release();  // resident again, but clean
  ExpectPlanIsExactly(cache_, {9});
}

TEST_F(CacheTest, DirtyIndexTracksRedirtyAfterFlush) {
  {
    auto r = cache_.GetZero(12);
    cache_.MarkDirty(*r);
  }
  ASSERT_TRUE(cache_.SyncAll().ok());
  ExpectPlanIsExactly(cache_, {});
  {
    auto r = cache_.GetZero(12);
    cache_.MarkDirty(*r);
    cache_.MarkDirty(*r);  // already dirty: no second entry
  }
  ExpectPlanIsExactly(cache_, {12});
  EXPECT_EQ(cache_.NoteFlushed(cache_.BuildFlushPlan()), 1u);
  ExpectPlanIsExactly(cache_, {});
}

TEST_F(CacheTest, DirtyIndexStartsEmptyAfterCrash) {
  for (uint64_t b : {3, 4, 40}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
  }
  EXPECT_EQ(cache_.CrashDropAll(), 3u);
  ExpectPlanIsExactly(cache_, {});
  for (uint64_t b : {40, 41}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
  }
  ExpectPlanIsExactly(cache_, {40, 41});
}

TEST_F(CacheTest, GapFillersStayOutOfTheDirtyIndex) {
  for (uint64_t b = 301; b <= 302; ++b) cache_.GetZero(b).value().Release();
  for (uint64_t b : {300, 303}) {
    auto r = cache_.GetZero(b);
    cache_.MarkDirty(*r);
    cache_.SetFlushUnit(*r, 300);
  }
  ASSERT_EQ(cache_.BuildFlushPlan().size(), 4u);
  EXPECT_EQ(cache_.dirty_count(), 2u);
  EXPECT_EQ(cache_.DirtyBlocks().size(), 2u);
  ASSERT_TRUE(cache_.SyncAll().ok());
  ExpectPlanIsExactly(cache_, {});
  {
    auto r = cache_.GetZero(301);
    cache_.MarkDirty(*r);
  }
  ExpectPlanIsExactly(cache_, {301});
}

// --- The cache against an LRU model ---------------------------------------

// A test-side model of the cache's policy: residency, LRU order, pins, the
// logical index, dirty/staged state, block contents and every counter. It
// mirrors each cache call and predicts the victims, in order.
class CacheModel {
 public:
  struct Buf {
    uint64_t value = 0;  // stamp held in the block's first and last word
    uint64_t unit = cache::kNoFlushUnit;
    std::optional<cache::LogicalId> lid;
    bool dirty = false;
    bool staged = false;
    int pins = 0;
  };

  explicit CacheModel(size_t capacity) : capacity_(capacity) {}

  cache::CacheStats stats;
  std::map<uint64_t, Buf> res;
  std::list<uint64_t> lru;           // front = most recent
  std::map<uint64_t, uint64_t> disk;  // bno -> stamp on the platter
  std::vector<std::pair<uint64_t, bool>> victims;  // (bno, dirty)

  bool resident(uint64_t b) const { return res.count(b) != 0; }
  size_t dirty_count() const {
    size_t n = 0;
    for (const auto& [b, buf] : res) n += buf.dirty;
    return n;
  }
  std::optional<uint64_t> holder(cache::LogicalId id) const {
    for (const auto& [b, buf] : res) {
      if (buf.lid == id) return b;
    }
    return std::nullopt;
  }

  void Touch(uint64_t b) {
    lru.remove(b);
    lru.push_front(b);
  }
  void Hit() {
    ++stats.lookups;
    ++stats.hits;
  }
  void Miss() {
    ++stats.lookups;
    ++stats.misses;
  }
  void Demand(uint64_t b) {
    if (!res[b].staged) return;
    res[b].staged = false;
    ++stats.readahead_hits;
  }
  void Wasted(Buf& buf) {
    if (!buf.staged) return;
    buf.staged = false;
    ++stats.readahead_wasted;
  }
  void Drop(uint64_t b) {
    lru.remove(b);
    res.erase(b);
  }
  void SyncAll() {
    for (auto& [b, buf] : res) {
      if (!buf.dirty) continue;
      buf.dirty = false;
      disk[b] = buf.value;
      ++stats.writebacks;
    }
  }
  void EvictIfNeeded() {
    if (res.size() >= capacity_ && dirty_count() >= capacity_ / 4) SyncAll();
    while (res.size() >= capacity_) {
      auto it = std::find_if(lru.rbegin(), lru.rend(),
                             [&](uint64_t b) { return res[b].pins == 0; });
      if (it == lru.rend()) return;  // all pinned: run over capacity
      const uint64_t b = *it;
      Buf& buf = res[b];
      victims.push_back({b, buf.dirty});
      if (buf.dirty) {
        disk[b] = buf.value;
        ++stats.writebacks;
      }
      Wasted(buf);
      ++stats.evictions;
      Drop(b);
    }
  }
  void Insert(uint64_t b, uint64_t value) {
    Buf buf;
    buf.value = value;
    res[b] = buf;
    lru.push_front(b);
  }

 private:
  size_t capacity_;
};

// Seeded random ops over 64 blocks on a 16-block cache, so every insert
// after the first few reuses an evicted buffer. After each step the
// victims, the resident count, the dirty count and every counter must match
// the model; a periodic audit re-reads every block and compares contents,
// flush unit, dirty flag and logical identity.
TEST_F(CacheTest, MatchesAnLruModelUnderRandomOps) {
  constexpr size_t kCapacity = 16;
  constexpr uint64_t kBlocks = 64;
  cache::BufferCache cache(&dev_, kCapacity);
  obs::TraceRecorder trace;
  cache.set_trace(&trace);
  CacheModel model(kCapacity);
  std::mt19937_64 rng(20260611);
  std::vector<std::pair<uint64_t, cache::BufferRef>> held;
  uint64_t next_stamp = 1;
  size_t peak = 0;
  bool shrank_after_peak = false;

  auto stamp_of = [](const cache::BufferRef& r) {
    uint64_t head = 0;
    uint64_t tail = 0;
    std::memcpy(&head, r.data().data(), 8);
    std::memcpy(&tail, r.data().data() + blk::kBlockSize - 8, 8);
    EXPECT_EQ(head, tail);
    return head;
  };
  auto write_stamp = [](std::span<uint8_t> data, uint64_t v) {
    std::memcpy(data.data(), &v, 8);
    std::memcpy(data.data() + blk::kBlockSize - 8, &v, 8);
  };
  // Pins hover around the capacity in long phases, so the all-pinned
  // over-capacity path runs and then drains.
  auto keep = [&](uint64_t b, cache::BufferRef ref, int step) {
    const bool hold_phase = (step / 150) % 3 == 2;
    if (held.size() < 24 && rng() % 10 < (hold_phase ? 9u : 2u)) {
      ++model.res[b].pins;
      held.emplace_back(b, std::move(ref));
    }
  };
  auto release_all = [&] {
    for (auto& [b, ref] : held) --model.res[b].pins;
    held.clear();
  };
  // A freshly inserted buffer carries nothing from its last use.
  auto expect_fresh = [](const cache::BufferRef& r) {
    EXPECT_FALSE(r->has_logical_id());
    EXPECT_EQ(r->flush_unit(), cache::kNoFlushUnit);
    EXPECT_FALSE(r->staged());
    EXPECT_FALSE(r->dirty());
  };
  auto lookup = [&](uint64_t b, int step) {
    auto r = cache.Lookup(b);
    ASSERT_EQ(r.ok(), model.resident(b)) << "block " << b;
    if (!r.ok()) {
      model.Miss();
      return;
    }
    model.Hit();
    model.Demand(b);
    model.Touch(b);
    const CacheModel::Buf& want = model.res[b];
    ASSERT_EQ(stamp_of(*r), want.value) << "block " << b;
    ASSERT_EQ((*r)->flush_unit(), want.unit) << "block " << b;
    ASSERT_EQ((*r)->dirty(), want.dirty) << "block " << b;
    ASSERT_EQ((*r)->has_logical_id(), want.lid.has_value()) << "block " << b;
    if (want.lid) {
      ASSERT_EQ((*r)->logical_id(), *want.lid);
    }
    keep(b, std::move(*r), step);
  };

  for (int step = 0; step < 6000; ++step) {
    const uint64_t bno = rng() % kBlocks;
    const int op = static_cast<int>(rng() % 20);
    if (op <= 3) {  // read
      auto r = cache.Get(bno);
      ASSERT_TRUE(r.ok());
      if (model.resident(bno)) {
        model.Hit();
        model.Demand(bno);
      } else {
        expect_fresh(*r);
        model.Miss();
        model.EvictIfNeeded();
        model.Insert(bno, model.disk[bno]);
      }
      model.Touch(bno);
      ASSERT_EQ(stamp_of(*r), model.res[bno].value) << "step " << step;
      keep(bno, std::move(*r), step);
    } else if (op <= 6) {  // (re)initialize and write
      auto r = cache.GetZero(bno);
      ASSERT_TRUE(r.ok());
      if (model.resident(bno)) {
        model.Hit();
        model.Wasted(model.res[bno]);
      } else {
        expect_fresh(*r);
        model.Miss();
        model.EvictIfNeeded();
        model.Insert(bno, 0);
      }
      model.Touch(bno);
      ASSERT_EQ(stamp_of(*r), 0u) << "step " << step;
      const uint64_t v = next_stamp++;
      const uint64_t unit = rng() % 3 == 0 ? cache::kNoFlushUnit : bno / 8;
      write_stamp(r->data(), v);
      cache.SetFlushUnit(*r, unit);
      cache.MarkDirty(*r);
      CacheModel::Buf& buf = model.res[bno];
      buf.value = v;
      buf.unit = unit;
      buf.dirty = true;
      keep(bno, std::move(*r), step);
    } else if (op <= 8) {
      lookup(bno, step);
    } else if (op <= 10) {  // staged run or group read
      const uint32_t count = 1 + static_cast<uint32_t>(rng() % 8);
      const uint64_t start = std::min(bno, kBlocks - count);
      const uint64_t demand = start + rng() % count;
      const bool group = rng() % 2 == 0;
      const bool read_group = rng() % 4 == 0;
      std::vector<uint8_t> raw(count * blk::kBlockSize);
      for (uint32_t i = 0; i < count; ++i) {
        write_stamp({raw.data() + i * blk::kBlockSize, blk::kBlockSize},
                    model.disk[start + i]);
      }
      if (read_group) {
        ASSERT_TRUE(cache.ReadGroup(start, count).ok());
      } else {
        ASSERT_TRUE(
            cache.InsertRun(start, count, raw, demand, group).ok());
      }
      if (group || read_group) ++model.stats.group_reads;
      for (uint64_t b = start; b < start + count; ++b) {
        if (model.resident(b)) continue;
        model.EvictIfNeeded();
        model.Insert(b, model.disk[b]);
        if (group || read_group) {
          model.res[b].unit = start;
          ++model.stats.group_blocks;
        }
        if (!read_group && b != demand) {
          model.res[b].staged = true;
          ++model.stats.readahead_staged;
        }
      }
    } else if (op <= 12) {  // release a pin
      if (!held.empty()) {
        const size_t i = rng() % held.size();
        --model.res[held[i].first].pins;
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      }
    } else if (op == 13) {  // bind a pinned buffer; ids collide often
      if (!held.empty()) {
        auto& [b, ref] = held[rng() % held.size()];
        const cache::LogicalId id{.file = rng() % 4, .block_index = rng() % 6};
        cache.Bind(ref, id);
        if (model.res[b].lid != id) {
          if (auto old = model.holder(id)) model.res[*old].lid.reset();
          model.res[b].lid = id;
        }
      }
    } else if (op == 14) {
      const cache::LogicalId id{.file = rng() % 4, .block_index = rng() % 6};
      auto r = cache.LookupLogical(id);
      const auto want = model.holder(id);
      ASSERT_EQ(r.ok(), want.has_value()) << "step " << step;
      if (want) {
        ASSERT_EQ((*r)->bno(), *want);
        ++model.stats.logical_hits;
        model.Touch(*want);
        keep(*want, std::move(*r), step);
      }
    } else if (op == 15) {
      if (!model.resident(bno) || model.res[bno].pins == 0) {
        cache.Invalidate(bno);
        if (model.resident(bno)) {
          model.Wasted(model.res[bno]);
          model.Drop(bno);
        }
      }
    } else if (op == 16) {
      ASSERT_TRUE(cache.SyncAll().ok());
      model.SyncAll();
    } else if (op == 17 && rng() % 8 == 0) {  // sync, then a cold cache
      release_all();
      ASSERT_TRUE(cache.SyncAll().ok());
      model.SyncAll();
      cache.InvalidateAll();
      for (auto& [b, buf] : model.res) model.Wasted(buf);
      model.res.clear();
      model.lru.clear();
    } else if (op == 18 && rng() % 16 == 0) {  // power loss
      release_all();
      ASSERT_EQ(cache.CrashDropAll(), model.dirty_count());
      for (auto& [b, buf] : model.res) model.Wasted(buf);
      model.res.clear();
      model.lru.clear();
    } else if (op == 19 && step % 7 == 0) {
      // Audit: visit every block, resident ones from least to most
      // recently used, which leaves the LRU order as it was.
      const std::vector<uint64_t> oldest_first(model.lru.rbegin(),
                                               model.lru.rend());
      for (uint64_t b : oldest_first) lookup(b, step);
      for (uint64_t b = 0; b < kBlocks; ++b) {
        if (!model.resident(b)) lookup(b, step);
      }
    }
    if (HasFatalFailure()) return;

    std::vector<std::pair<uint64_t, bool>> victims;
    for (const obs::TraceEvent& e : trace.Events()) {
      if (e.kind == obs::EventKind::kCacheEvict) {
        victims.push_back({e.a, e.flag});
      }
    }
    trace.Clear();
    ASSERT_EQ(victims, model.victims) << "step " << step;
    model.victims.clear();
    ASSERT_EQ(cache.size(), model.res.size()) << "step " << step;
    ASSERT_EQ(cache.dirty_count(), model.dirty_count()) << "step " << step;
    const cache::CacheStats& got = cache.stats();
    const cache::CacheStats& want = model.stats;
    ASSERT_EQ(got.lookups, want.lookups) << "step " << step;
    ASSERT_EQ(got.hits, want.hits) << "step " << step;
    ASSERT_EQ(got.misses, want.misses) << "step " << step;
    ASSERT_EQ(got.logical_hits, want.logical_hits) << "step " << step;
    ASSERT_EQ(got.group_reads, want.group_reads) << "step " << step;
    ASSERT_EQ(got.group_blocks, want.group_blocks) << "step " << step;
    ASSERT_EQ(got.writebacks, want.writebacks) << "step " << step;
    ASSERT_EQ(got.evictions, want.evictions) << "step " << step;
    ASSERT_EQ(got.readahead_staged, want.readahead_staged) << "step " << step;
    ASSERT_EQ(got.readahead_hits, want.readahead_hits) << "step " << step;
    ASSERT_EQ(got.readahead_wasted, want.readahead_wasted) << "step " << step;
    if (cache.size() > peak) peak = cache.size();
    if (peak > kCapacity && cache.size() <= kCapacity) shrank_after_peak = true;
  }
  // Every path ran: over capacity and back, reuse, and all the counters.
  EXPECT_GT(peak, kCapacity);
  EXPECT_TRUE(shrank_after_peak);
  EXPECT_GT(model.stats.evictions, 1000u);
  EXPECT_GT(model.stats.logical_hits, 0u);
  EXPECT_GT(model.stats.readahead_hits, 0u);
  EXPECT_GT(model.stats.readahead_wasted, 0u);
}

TEST(BlockDeviceTest, RunBoundsChecked) {
  SimClock clock;
  disk::DiskModel model(disk::TestDisk(64, 2, 32), &clock);
  blk::BlockDevice dev(&model, disk::SchedulerPolicy::kCLook);
  std::vector<uint8_t> buf(blk::kBlockSize * 4);
  EXPECT_EQ(dev.ReadRun(dev.block_count() - 1, 2, buf).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.WriteRun(dev.block_count(), 1, buf).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.ReadRun(0, 0, buf).code(), ErrorCode::kOutOfRange);
}

TEST(BlockDeviceTest, WriteBatchSchedulesAndCoalesces) {
  SimClock clock;
  disk::DiskModel model(disk::TestDisk(256, 4, 64), &clock);
  blk::BlockDevice dev(&model, disk::SchedulerPolicy::kCLook);
  std::vector<uint8_t> data(blk::kBlockSize, 0xcd);
  // Submit out of order; adjacent same-unit blocks must merge.
  std::vector<blk::WriteOp> ops = {
      {12, data.data(), 7}, {10, data.data(), 7}, {11, data.data(), 7},
      {500, data.data(), 8}};
  ASSERT_TRUE(dev.WriteBatch(ops).ok());
  EXPECT_EQ(dev.stats().writes, 2u);  // [10..12] and [500]
  EXPECT_EQ(dev.stats().blocks_written, 4u);
}

TEST(BlockDeviceTest, ReadRunMovesDataCorrectly) {
  SimClock clock;
  disk::DiskModel model(disk::TestDisk(256, 4, 64), &clock);
  blk::BlockDevice dev(&model, disk::SchedulerPolicy::kCLook);
  std::vector<uint8_t> in(blk::kBlockSize * 3);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<uint8_t>(i / 7);
  ASSERT_TRUE(dev.WriteRun(20, 3, in).ok());
  std::vector<uint8_t> out(in.size());
  ASSERT_TRUE(dev.ReadRun(20, 3, out).ok());
  EXPECT_EQ(in, out);
}

}  // namespace
}  // namespace cffs
