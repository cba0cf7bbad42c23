// Unit tests for the block device and the dual-indexed buffer cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

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
