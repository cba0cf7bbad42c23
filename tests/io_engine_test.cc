// Tests for the async I/O subsystem (src/io): submission/completion queue
// mechanics and epoch merging in the engine, the syncer's deadline and
// watermark triggers (and the writer backpressure they provide), the
// readahead ramp and its accuracy accounting, and the determinism
// guarantee — a delayed-write run driven by the syncer must converge to
// exactly the bytes the synchronous path writes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/disk/image.h"
#include "src/io/io_engine.h"
#include "src/io/readahead.h"
#include "src/io/syncer.h"
#include "src/sim/sim_env.h"
#include "src/stats/collect.h"
#include "src/workload/smallfile.h"

namespace cffs {
namespace {

class IoTest : public ::testing::Test {
 protected:
  IoTest()
      : model_(disk::TestDisk(256, 4, 64), &clock_),
        dev_(&model_, disk::SchedulerPolicy::kCLook),
        cache_(&dev_, 64),
        engine_(&dev_, /*batch_window=*/8) {}

  // Dirty one zero-filled block through the cache.
  void DirtyBlock(uint64_t bno, uint8_t fill) {
    auto ref = cache_.GetZero(bno);
    ASSERT_TRUE(ref.ok());
    (*ref)->data()[0] = fill;
    cache_.MarkDirty(*ref);
  }

  SimClock clock_;
  disk::DiskModel model_;
  blk::BlockDevice dev_;
  cache::BufferCache cache_;
  io::IoEngine engine_;
};

// --- IoEngine -------------------------------------------------------------

TEST_F(IoTest, WritesWaitForKickThenMergeIntoOneEpoch) {
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<int> completion_order;
  for (int i = 0; i < 3; ++i) {
    bufs.emplace_back(blk::kBlockSize, static_cast<uint8_t>(i + 1));
  }
  for (int i = 0; i < 3; ++i) {
    blk::WriteOp op;
    op.bno = 10 + static_cast<uint64_t>(i);
    op.data = bufs[i].data();
    op.unit = 7;  // same unit, adjacent: must coalesce
    engine_.SubmitWrite(op, [&completion_order, i](const Status& s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      completion_order.push_back(i);
    });
  }
  // Nothing reaches the disk before the kick.
  EXPECT_EQ(engine_.queued(), 3u);
  EXPECT_EQ(dev_.stats().writes, 0u);

  engine_.Kick();
  EXPECT_EQ(engine_.queued(), 0u);
  EXPECT_EQ(engine_.stats().write_epochs, 1u);
  EXPECT_EQ(dev_.stats().writes, 1u);  // one coalesced command
  EXPECT_EQ(dev_.stats().blocks_written, 3u);

  // Completions are delivered by polling, in submission order.
  EXPECT_EQ(engine_.completions_pending(), 3u);
  EXPECT_EQ(engine_.Poll(), 3u);
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(engine_.stats().inflight, 0u);
  EXPECT_EQ(engine_.stats().completed, 3u);

  std::vector<uint8_t> back(blk::kBlockSize);
  ASSERT_TRUE(dev_.ReadRun(11, 1, back).ok());
  EXPECT_EQ(back[0], 2);
}

TEST_F(IoTest, ReadCompletionCarriesDataAndStatus) {
  std::vector<uint8_t> payload(blk::kBlockSize, 0x5c);
  blk::WriteOp op;
  op.bno = 33;
  op.data = payload.data();
  engine_.SubmitWrite(op);
  ASSERT_TRUE(engine_.Drain().ok());

  std::vector<uint8_t> out(2 * blk::kBlockSize, 0);
  bool completed = false;
  engine_.SubmitRead(33, 2, out, [&completed](const Status& s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    completed = true;
  });
  EXPECT_FALSE(completed);  // callbacks never run inside Submit
  ASSERT_TRUE(engine_.Drain().ok());
  EXPECT_TRUE(completed);
  EXPECT_EQ(out[0], 0x5c);
  EXPECT_EQ(engine_.stats().read_commands, 1u);
}

TEST_F(IoTest, SubmissionQueueAutoKicksAtBatchWindow) {
  std::vector<std::vector<uint8_t>> bufs;
  for (int i = 0; i < 8; ++i) {
    bufs.emplace_back(blk::kBlockSize, static_cast<uint8_t>(i));
  }
  for (int i = 0; i < 8; ++i) {
    blk::WriteOp op;
    op.bno = 100 + static_cast<uint64_t>(i);
    op.data = bufs[i].data();
    engine_.SubmitWrite(op);
  }
  // The 8th submit hit the window: the queue kicked itself.
  EXPECT_EQ(engine_.stats().auto_kicks, 1u);
  EXPECT_EQ(engine_.queued(), 0u);
  EXPECT_EQ(engine_.completions_pending(), 8u);
  EXPECT_EQ(engine_.stats().max_queue_depth, 8u);
  engine_.Poll();
  EXPECT_EQ(engine_.stats().completed, 8u);
}

TEST_F(IoTest, DrainReportsErrorAndStillCompletesEverything) {
  std::vector<uint8_t> data(blk::kBlockSize, 1);
  blk::WriteOp good;
  good.bno = 5;
  good.data = data.data();
  blk::WriteOp bad;
  bad.bno = 1ull << 40;  // far past the end of the device
  bad.data = data.data();
  int callbacks = 0;
  engine_.SubmitWrite(good, [&callbacks](const Status&) { ++callbacks; });
  engine_.SubmitWrite(bad, [&callbacks](const Status&) { ++callbacks; });
  const Status s = engine_.Drain();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(callbacks, 2);  // every request completed, error or not
  EXPECT_EQ(engine_.stats().inflight, 0u);
  EXPECT_EQ(engine_.stats().completed, 2u);
}

// --- Syncer ---------------------------------------------------------------

TEST_F(IoTest, SyncerDeadlineFlushesAgedDirtyData) {
  io::SyncerOptions so;
  so.interval = SimTime::Millis(10);
  so.max_age = SimTime::Millis(10);
  so.dirty_high_watermark = 0.9;
  io::Syncer syncer(&cache_, &engine_, so);

  DirtyBlock(5, 0xaa);
  // Young dirty data inside the interval: no flush yet.
  ASSERT_TRUE(syncer.Tick().ok());
  EXPECT_EQ(syncer.stats().flushes, 0u);
  EXPECT_EQ(cache_.dirty_count(), 1u);

  clock_.AdvanceBy(SimTime::Millis(20));
  ASSERT_TRUE(syncer.Tick().ok());
  EXPECT_EQ(syncer.stats().flushes, 1u);
  EXPECT_EQ(syncer.stats().deadline_flushes, 1u);
  EXPECT_EQ(syncer.stats().blocks_flushed, 1u);
  EXPECT_EQ(cache_.dirty_count(), 0u);
  EXPECT_EQ(cache_.oldest_dirty_ns(), -1);

  std::vector<uint8_t> back(blk::kBlockSize);
  ASSERT_TRUE(dev_.ReadRun(5, 1, back).ok());
  EXPECT_EQ(back[0], 0xaa);
}

TEST_F(IoTest, SyncerWatermarkThrottleFlushesRegardlessOfAge) {
  io::SyncerOptions so;
  so.interval = SimTime::Seconds(1000);  // the deadline never fires
  so.max_age = SimTime::Seconds(1000);
  so.dirty_high_watermark = 0.25;  // 16 of the 64 cache blocks
  io::Syncer syncer(&cache_, &engine_, so);

  for (uint64_t b = 0; b < 15; ++b) {
    DirtyBlock(200 + b, static_cast<uint8_t>(b));
  }
  ASSERT_TRUE(syncer.Tick().ok());
  EXPECT_EQ(syncer.stats().flushes, 0u);  // still under the watermark

  DirtyBlock(215, 0xff);
  ASSERT_TRUE(syncer.Tick().ok());
  EXPECT_EQ(syncer.stats().throttle_flushes, 1u);
  EXPECT_EQ(syncer.stats().blocks_flushed, 16u);
  EXPECT_EQ(cache_.dirty_count(), 0u);
}

TEST_F(IoTest, SyncerFlushGoesThroughTheEngineAsOneEpoch) {
  io::SyncerOptions so;
  io::Syncer syncer(&cache_, &engine_, so);
  for (uint64_t b : {50, 10, 30}) DirtyBlock(b, 1);
  ASSERT_TRUE(syncer.FlushNow().ok());
  EXPECT_EQ(engine_.stats().submitted_writes, 1u);  // one batched plan
  EXPECT_EQ(engine_.stats().write_epochs, 1u);
  EXPECT_EQ(cache_.stats().writebacks, 3u);
}

// --- Readahead ------------------------------------------------------------

TEST_F(IoTest, StagedGroupBlocksAreAccountedHitOrWasted) {
  io::Readahead ra(&cache_, &engine_, io::ReadaheadOptions{});
  ASSERT_TRUE(ra.StageGroup(100, 8, /*demand_bno=*/100).ok());
  EXPECT_EQ(ra.stats().group_stages, 1u);
  EXPECT_EQ(ra.stats().blocks_requested, 8u);
  EXPECT_EQ(dev_.stats().reads, 1u);  // one engine-staged command
  // The demanded block is not staged; its 7 siblings are.
  EXPECT_EQ(cache_.stats().readahead_staged, 7u);
  EXPECT_EQ(cache_.stats().group_reads, 1u);
  EXPECT_EQ(cache_.stats().group_blocks, 8u);

  {
    auto a = cache_.Get(101);
    ASSERT_TRUE(a.ok());
    auto b = cache_.Get(102);
    ASSERT_TRUE(b.ok());
  }
  EXPECT_EQ(cache_.stats().readahead_hits, 2u);
  // A second access of the same block is not a second readahead hit.
  cache_.Get(101).value().Release();
  EXPECT_EQ(cache_.stats().readahead_hits, 2u);

  // The untouched remainder is wasted when it leaves the cache.
  cache_.InvalidateAll();
  EXPECT_EQ(cache_.stats().readahead_wasted, 5u);
  EXPECT_EQ(cache_.stats().readahead_hits + cache_.stats().readahead_wasted,
            cache_.stats().readahead_staged);
}

TEST_F(IoTest, RampWindowDoublesOnStreaksAndResetsOnSeeks) {
  io::Readahead ra(&cache_, &engine_, io::ReadaheadOptions{});
  EXPECT_EQ(ra.WindowFor(/*file=*/1, /*idx=*/0), 16u);
  ra.NoteRun(1, 0, 16);
  EXPECT_EQ(ra.WindowFor(1, 16), 32u);  // sequential: doubled
  ra.NoteRun(1, 16, 32);
  EXPECT_EQ(ra.WindowFor(1, 48), 64u);
  ra.NoteRun(1, 48, 64);
  EXPECT_EQ(ra.WindowFor(1, 112), 64u);  // capped at max_window
  ra.NoteRun(1, 112, 64);
  EXPECT_EQ(ra.WindowFor(1, 7), 16u);  // seek: back to min_window
  EXPECT_EQ(ra.stats().ramp_resets, 1u);
  // Streams are per file: another file starts at min_window.
  EXPECT_EQ(ra.WindowFor(2, 0), 16u);
}

TEST_F(IoTest, RampDisabledPinsWindowAtLegacyClusterSize) {
  io::ReadaheadOptions opt;
  opt.ramp = false;
  io::Readahead ra(&cache_, &engine_, opt);
  EXPECT_EQ(ra.WindowFor(1, 0), 16u);
  ra.NoteRun(1, 0, 16);
  EXPECT_EQ(ra.WindowFor(1, 16), 16u);  // sequential but never grows
}

// --- End to end: backpressure and determinism -----------------------------

TEST(IoEndToEndTest, SyncerBoundsDirtyDataUnderCreateStorm) {
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.cache_blocks = 256;
  config.metadata = fs::MetadataPolicy::kDelayed;
  config.syncer = true;
  config.syncer_interval = SimTime::Seconds(1000);  // throttle only
  config.syncer_max_age = SimTime::Seconds(1000);
  config.dirty_high_watermark = 0.25;
  auto env_or = sim::SimEnv::Create(sim::FsKind::kCffs, config);
  ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
  sim::SimEnv* env = env_or->get();

  workload::SmallFileParams params;
  params.num_files = 200;
  params.num_dirs = 4;
  ASSERT_TRUE(workload::RunSmallFile(env, params).ok());
  ASSERT_TRUE(env->syncer_status().ok()) << env->syncer_status().ToString();

  const stats::MetricsSnapshot snap = stats::Snapshot(*env);
  EXPECT_GE(snap.syncer.throttle_flushes, 1u);
  EXPECT_GT(snap.syncer.blocks_flushed, 0u);
  // The watermark held: between op-boundary ticks a single operation can
  // push the dirty count past the threshold, but never run away with it.
  const size_t watermark = static_cast<size_t>(
      config.dirty_high_watermark * static_cast<double>(config.cache_blocks));
  EXPECT_LT(env->cache().dirty_count(), watermark + 32);
  // All cross-layer counter invariants hold on a syncer-enabled run.
  const auto violations = snap.CheckInvariants();
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(IoEndToEndTest, DelayedSyncerRunConvergesToSynchronousImage) {
  // With mtimes pinned to the op sequence, the only difference between the
  // synchronous path and the delayed path driven through the engine is
  // WHEN blocks reach the platter — after the final sync the images must
  // be byte-identical. This is the replay-determinism guarantee for the
  // whole async subsystem.
  for (sim::FsKind kind : {sim::FsKind::kFfs, sim::FsKind::kCffs}) {
    auto run = [kind](fs::MetadataPolicy policy, bool syncer) {
      sim::SimConfig config;
      config.disk_spec = disk::TestDisk(512, 4, 64);
      config.metadata = policy;
      config.deterministic_mtime = true;
      config.syncer = syncer;
      config.syncer_interval = SimTime::Millis(50);
      config.syncer_max_age = SimTime::Millis(50);
      auto env = sim::SimEnv::Create(kind, config);
      EXPECT_TRUE(env.ok()) << env.status().ToString();
      workload::SmallFileParams params;
      params.num_files = 120;
      params.num_dirs = 4;
      EXPECT_TRUE(workload::RunSmallFile(env->get(), params).ok());
      EXPECT_TRUE((*env)->fs()->Sync().ok());
      EXPECT_TRUE((*env)->syncer_status().ok());
      return disk::ImageHash(env->get()->disk());
    };
    const uint64_t sync_image =
        run(fs::MetadataPolicy::kSynchronous, /*syncer=*/false);
    const uint64_t delayed_image =
        run(fs::MetadataPolicy::kDelayed, /*syncer=*/true);
    EXPECT_EQ(sync_image, delayed_image) << sim::FsKindName(kind);
  }
}

}  // namespace
}  // namespace cffs
