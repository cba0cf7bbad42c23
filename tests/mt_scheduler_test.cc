// Tests for the multi-tenant layer (src/mt): the FIFO and DRR inter-client
// schedulers in isolation, the driver's determinism guarantee (same seed +
// same client count => byte-identical disk image and identical metrics),
// the backpressure machinery (only the offending client parks; the deferred
// throttle flush is charged to the watermark crosser), and the cross-layer
// invariants on a many-client run.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/check/ordering_checker.h"
#include "src/disk/image.h"
#include "src/io/syncer.h"
#include "src/mt/driver.h"
#include "src/mt/scheduler.h"
#include "src/stats/collect.h"
#include "src/sim/sim_env.h"

namespace cffs::mt {
namespace {

// --- FifoScheduler --------------------------------------------------------

TEST(FifoSchedulerTest, EarliestReadyWinsTiesByClientId) {
  FifoScheduler sched(4);
  const std::vector<uint8_t> none(4, 0);
  sched.Enqueue(2, 300);
  sched.Enqueue(0, 100);
  sched.Enqueue(3, 100);  // ties with client 0: lower id first
  sched.Enqueue(1, 200);
  uint64_t c = 99;
  ASSERT_TRUE(sched.PickNext(none, &c));
  EXPECT_EQ(c, 0u);
  ASSERT_TRUE(sched.PickNext(none, &c));
  EXPECT_EQ(c, 3u);
  ASSERT_TRUE(sched.PickNext(none, &c));
  EXPECT_EQ(c, 1u);
  ASSERT_TRUE(sched.PickNext(none, &c));
  EXPECT_EQ(c, 2u);
  EXPECT_FALSE(sched.PickNext(none, &c));
  EXPECT_EQ(sched.ready_count(), 0u);
}

TEST(FifoSchedulerTest, SuspendedClientsAreNeverPicked) {
  FifoScheduler sched(3);
  std::vector<uint8_t> suspended(3, 0);
  sched.Enqueue(0, 10);
  sched.Enqueue(1, 20);
  suspended[0] = 1;
  uint64_t c = 99;
  ASSERT_TRUE(sched.PickNext(suspended, &c));
  EXPECT_EQ(c, 1u);  // earliest ready is parked, next one runs
  // Client 0 kept its queue position: unsuspend and it is picked.
  EXPECT_TRUE(sched.IsReady(0));
  suspended[0] = 0;
  ASSERT_TRUE(sched.PickNext(suspended, &c));
  EXPECT_EQ(c, 0u);
  // All ready clients suspended => no pick.
  sched.Enqueue(2, 30);
  suspended[2] = 1;
  EXPECT_FALSE(sched.PickNext(suspended, &c));
  EXPECT_EQ(sched.ready_count(), 1u);  // the op was not consumed
}

// --- DrrScheduler ---------------------------------------------------------

// Each backlogged client gets its deficit share of service time even when
// per-op costs differ by an order of magnitude: the expensive client is
// simply served proportionally fewer ops.
TEST(DrrSchedulerTest, BackloggedClientsGetEqualServiceShares) {
  constexpr int64_t kQuantum = 100'000;  // 100us
  DrrScheduler sched(3, kQuantum);
  const std::vector<uint8_t> none(3, 0);
  // Per-op costs: client 0 is 10x client 2.
  const int64_t cost[3] = {50'000, 20'000, 5'000};
  int64_t service[3] = {0, 0, 0};
  for (uint64_t c = 0; c < 3; ++c) sched.Enqueue(c, 0);
  const int64_t target = 200 * kQuantum;  // run until total service ~600 quanta
  int64_t total = 0;
  while (total < 3 * target) {
    uint64_t c = 99;
    ASSERT_TRUE(sched.PickNext(none, &c));
    service[c] += cost[c];
    total += cost[c];
    sched.NoteServiced(c, cost[c]);
    sched.Enqueue(c, total);  // closed loop: immediately backlogged again
  }
  // Over a long backlogged interval every client's share converges to 1/3
  // within one quantum + one max-op of slop.
  const int64_t slop = kQuantum + cost[0];
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(static_cast<double>(service[c]), static_cast<double>(target),
                static_cast<double>(slop))
        << "client " << c;
  }
}

TEST(DrrSchedulerTest, IdleClientForfeitsBankedDeficit) {
  constexpr int64_t kQuantum = 1000;
  DrrScheduler sched(2, kQuantum);
  const std::vector<uint8_t> none(2, 0);
  // Client 0 runs alone and spends far past one quantum.
  sched.Enqueue(0, 0);
  uint64_t c = 99;
  ASSERT_TRUE(sched.PickNext(none, &c));
  ASSERT_EQ(c, 0u);
  sched.NoteServiced(0, 10 * kQuantum);
  EXPECT_LT(sched.deficit(0), 0);
  // While client 0 is absent, the ring walk zeroes its debt as it passes.
  // Serve client 1 past its quantum so the next pick must wrap the ring
  // (visiting the idle client 0) while granting client 1 its quanta.
  sched.Enqueue(1, 1);
  ASSERT_TRUE(sched.PickNext(none, &c));
  ASSERT_EQ(c, 1u);
  sched.NoteServiced(1, 3 * kQuantum);
  sched.Enqueue(1, 2);
  ASSERT_TRUE(sched.PickNext(none, &c));
  ASSERT_EQ(c, 1u);
  EXPECT_EQ(sched.deficit(0), 0);  // debt forgiven while not ready
}

TEST(DrrSchedulerTest, SingleClientAlwaysRunsImmediately) {
  DrrScheduler sched(1, 1000);
  const std::vector<uint8_t> none(1, 0);
  for (int i = 0; i < 50; ++i) {
    sched.Enqueue(0, i);
    uint64_t c = 99;
    ASSERT_TRUE(sched.PickNext(none, &c));
    EXPECT_EQ(c, 0u);
    sched.NoteServiced(0, 50'000);  // way past the quantum every op
  }
}

TEST(SchedulerKindTest, ParseRoundTrips) {
  SchedulerKind k;
  EXPECT_TRUE(ParseSchedulerKind("fifo", &k));
  EXPECT_EQ(k, SchedulerKind::kFifo);
  EXPECT_TRUE(ParseSchedulerKind("drr", &k));
  EXPECT_EQ(k, SchedulerKind::kDrr);
  EXPECT_FALSE(ParseSchedulerKind("lottery", &k));
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kFifo), "fifo");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kDrr), "drr");
}

// --- MtDriver -------------------------------------------------------------

sim::SimConfig MtConfig() {
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(512, 4, 64);
  config.metadata = fs::MetadataPolicy::kDelayed;
  config.deterministic_mtime = true;
  config.syncer = true;
  config.syncer_interval = SimTime::Millis(50);
  config.syncer_max_age = SimTime::Millis(50);
  return config;
}

struct MtRunResult {
  uint64_t disk_hash = 0;
  std::string snapshot_json;
  MtStats stats;
};

MtRunResult RunMt(sim::FsKind kind, const sim::SimConfig& config,
                  const MtParams& params) {
  MtRunResult r;
  auto env = sim::SimEnv::Create(kind, config);
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  if (!env.ok()) return r;
  MtDriver driver(env->get(), params);
  const Status s = driver.Run();
  EXPECT_TRUE(s.ok()) << s.ToString();
  stats::MetricsSnapshot snap = stats::Snapshot(**env);
  snap.mt = driver.TakeStats();
  const auto violations = snap.CheckInvariants();
  EXPECT_TRUE(violations.empty()) << violations.front();
  r.disk_hash = disk::ImageHash(env->get()->disk());
  r.snapshot_json = snap.ToJsonString();
  r.stats = std::move(snap.mt);
  return r;
}

// Satellite: same seed + same client count => byte-identical disk image and
// identical metrics snapshot across two runs (the mt extension of the
// existing FNV-1a disk-hash determinism test).
TEST(MtDriverTest, SameSeedSameClientCountIsDeterministic) {
  for (sim::FsKind kind : {sim::FsKind::kFfs, sim::FsKind::kCffs}) {
    MtParams params;
    params.clients = 8;
    params.ops_per_client = 40;
    params.seed = 1234;
    const MtRunResult a = RunMt(kind, MtConfig(), params);
    const MtRunResult b = RunMt(kind, MtConfig(), params);
    EXPECT_EQ(a.disk_hash, b.disk_hash) << sim::FsKindName(kind);
    EXPECT_EQ(a.snapshot_json, b.snapshot_json) << sim::FsKindName(kind);
  }
}

// Satellite: with a single client FIFO and DRR must be indistinguishable —
// identical op order, identical image, identical latency accounting (the
// no-op overhead check for the scheduler plumbing).
TEST(MtDriverTest, FifoAndDrrIdenticalForSingleClient) {
  MtParams params;
  params.clients = 1;
  params.ops_per_client = 60;
  params.seed = 7;
  params.scheduler = SchedulerKind::kFifo;
  const MtRunResult fifo = RunMt(sim::FsKind::kCffs, MtConfig(), params);
  params.scheduler = SchedulerKind::kDrr;
  const MtRunResult drr = RunMt(sim::FsKind::kCffs, MtConfig(), params);
  EXPECT_EQ(fifo.disk_hash, drr.disk_hash);
  EXPECT_EQ(fifo.stats.ops_serviced, drr.stats.ops_serviced);
  EXPECT_EQ(fifo.stats.service_ns, drr.stats.service_ns);
  EXPECT_EQ(fifo.stats.queue_wait_ns, drr.stats.queue_wait_ns);
  EXPECT_EQ(fifo.stats.latency.count(), drr.stats.latency.count());
  EXPECT_EQ(fifo.stats.latency.max().nanos(), drr.stats.latency.max().nanos());
}

// Backpressure parks only offenders, the run still completes, and the
// deferred throttle flush is tagged with the client that crossed the
// watermark (the satellite fix: no more charging whoever was in flight).
TEST(MtDriverTest, BackpressureSuspendsAndTagsTheCrosser) {
  sim::SimConfig config = MtConfig();
  // Room to dirty freely (no eviction writeback muddying the dirty count)
  // but a low watermark so the throttle actually trips.
  config.cache_blocks = 256;
  config.dirty_high_watermark = 0.25;
  config.syncer_interval = SimTime::Seconds(1000);  // throttle only
  config.syncer_max_age = SimTime::Seconds(1000);
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, config);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  MtParams params;
  params.clients = 8;
  params.ops_per_client = 48;
  params.create_pct = 70;  // mutation-heavy: everyone pushes dirty data
  params.read_pct = 20;
  MtDriver driver(env->get(), params);
  ASSERT_TRUE(driver.Run().ok());
  const MtStats& stats = driver.stats();
  EXPECT_GT(stats.suspensions, 0u);
  EXPECT_GT(stats.resumes, 0u);
  const stats::MetricsSnapshot snap = stats::Snapshot(**env);
  EXPECT_GT(snap.syncer.throttle_flushes, 0u);
  // The tagged payer is a real client, not the neutral id 0 fallback of the
  // single-tenant path... unless client 0 genuinely crossed first, which
  // the per-client suspension counters can confirm either way.
  const uint64_t payer = (*env)->syncer()->last_throttle_client();
  ASSERT_LT(payer, static_cast<uint64_t>(params.clients));
  EXPECT_GT(stats.per_client[payer].suspensions, 0u);
  // Parked clients kept their queue position: every op still ran.
  EXPECT_EQ(stats.ops_serviced,
            static_cast<uint64_t>(params.clients) * params.ops_per_client);
}

// All cross-layer invariants (including the new per-client span and mt
// blocks) hold on a 64-client mixed run, and the fairness index is sane.
TEST(MtDriverTest, InvariantsHoldAtSixtyFourClients) {
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, MtConfig());
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  MtParams params;
  params.clients = 64;
  params.ops_per_client = 12;
  MtDriver driver(env->get(), params);
  ASSERT_TRUE(driver.Run().ok());
  stats::MetricsSnapshot snap = stats::Snapshot(**env);
  snap.mt = driver.TakeStats();
  const auto violations = snap.CheckInvariants();
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_EQ(snap.mt.ops_serviced, 64u * 12u);
  const double jain = snap.mt.JainFairnessIndex();
  EXPECT_GT(jain, 0.0);
  EXPECT_LE(jain, 1.0 + 1e-9);
  // Per-client span attribution matched the driver's client count.
  EXPECT_FALSE(snap.spans.per_client.empty());
}

// A multi-tenant trace is still a well-ordered trace: interleaving N
// clients through one service loop must not reorder any client's metadata
// commits (the write-ordering analyzer sees one totally-ordered stream).
TEST(MtDriverTest, MultiTenantTracePassesOrderingChecker) {
  for (sim::FsKind kind : {sim::FsKind::kFfs, sim::FsKind::kCffs}) {
    auto env = sim::SimEnv::Create(kind, MtConfig());
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    (*env)->EnableTrace();
    MtParams params;
    params.clients = 16;
    params.ops_per_client = 16;
    MtDriver driver(env->get(), params);
    ASSERT_TRUE(driver.Run().ok());
    const auto report = check::OrderingChecker::CheckTrace(*(*env)->trace());
    EXPECT_TRUE(report.clean()) << sim::FsKindName(kind) << ": "
                                << report.ToJson();
  }
}

// The antagonist runs bulk overwrites while small-file clients churn; DRR
// keeps serving the small clients (share-fair), and the antagonist's writes
// land in the write histogram, not the create/read/delete ones.
TEST(MtDriverTest, AntagonistIsolatedToWriteHistogram) {
  auto env = sim::SimEnv::Create(sim::FsKind::kCffs, MtConfig());
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  MtParams params;
  params.clients = 9;
  params.ops_per_client = 16;
  params.antagonist = true;
  params.antagonist_write_kb = 64;
  params.antagonist_file_kb = 256;
  MtDriver driver(env->get(), params);
  ASSERT_TRUE(driver.Run().ok());
  stats::MetricsSnapshot snap = stats::Snapshot(**env);
  snap.mt = driver.TakeStats();
  const auto violations = snap.CheckInvariants();
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_EQ(snap.mt.per_client[0].writes, params.ops_per_client);
  EXPECT_EQ(snap.mt.per_client[0].creates, 0u);
  EXPECT_EQ(snap.mt.write_latency.count(), params.ops_per_client);
  for (uint32_t c = 1; c < params.clients; ++c) {
    EXPECT_EQ(snap.mt.per_client[c].writes, 0u) << c;
    EXPECT_EQ(snap.mt.per_client[c].ops, params.ops_per_client) << c;
  }
}

}  // namespace
}  // namespace cffs::mt
