// Workload `tenants`: the serving path. A closed loop of kClients logical
// clients runs through shard::ShardDriver over a 4-shard ShardRouter of
// C-FFS on the flash model, with delayed metadata, the deadline syncer and
// DRR scheduling. Total cache is fixed at 32 MB (8 MB per shard), enough to
// hold the live working set. Ops: 40% create, 40% read, 1% rename (most of
// them cross-shard), the rest delete, 1 KB files.
//
// Every cross-shard rename syncs both shards it touches, which happens to
// each shard about every 60 ms of simulated time. A longer syncer deadline
// would never fire, so it is 100 ms (not the classic 30 s), and the dirty
// watermark is 5% of each shard's cache: both kinds of syncer flush then
// fire hundreds of times per run.
#include <algorithm>
#include <cmath>

#include "common.h"
#include "src/shard/driver.h"
#include "src/shard/router.h"
#include "src/stats/collect.h"

namespace perfbench {

namespace {

constexpr uint32_t kShards = 4;
constexpr uint32_t kClients = 64;
constexpr uint32_t kDirsPerClient = 2;
constexpr uint64_t kOpsPerClient = 2400;
constexpr size_t kTotalCacheBlocks = 8192;
constexpr uint32_t kFileBytes = 1024;
constexpr uint32_t kPrepopulate = 2;  // files per directory, before measuring
// ShardDriver fills every file with this byte (src/shard/driver.cc).
constexpr uint8_t kDriverPayloadByte = 0xC5;
// Trace ring per shard in traced rounds (128 MB each): ShardDriver::Run is
// one call, so the ring must hold a whole run; the busiest shard records
// about 720k events.
constexpr size_t kTraceCapacity = size_t{1} << 20;

// The percentile of a bucketed histogram, interpolated geometrically inside
// the 2^(1/4)-wide bucket that holds the rank, so the figure moves smoothly
// with the distribution instead of in 19% steps.
double HistogramPercentileMs(const LatencyHistogram& h, double p) {
  if (h.count() == 0) return 0;
  const double want =
      std::clamp(p, 0.0, 1.0) * static_cast<double>(h.count() - 1) + 1;
  double seen = 0;
  for (int b = 0; b < LatencyHistogram::kBuckets - 1; ++b) {
    const double c = static_cast<double>(h.bucket_count(b));
    if (c == 0 || seen + c < want) {
      seen += c;
      continue;
    }
    const double hi = LatencyHistogram::BucketUpperNanos(b);
    const double lo = b == 0 ? 0 : LatencyHistogram::BucketUpperNanos(b - 1);
    const double frac = (want - seen) / c;
    const double ns = lo > 0 ? lo * std::pow(hi / lo, frac) : hi * frac;
    return std::min(ns, static_cast<double>(h.max().nanos())) / 1e6;
  }
  return h.max().nanos() / 1e6;
}

// The mean of the middle half of the distribution, integrating the
// interpolated quantile function above over [0.25, 0.75].
double HistogramInterquartileMeanMs(const LatencyHistogram& h) {
  constexpr int kSteps = 1000;
  double sum = 0;
  for (int i = 0; i < kSteps; ++i) {
    sum += HistogramPercentileMs(h, 0.25 + 0.5 * (i + 0.5) / kSteps);
  }
  return sum / kSteps;
}

// Recursively lists every regular file under `dir` on one shard.
Status ListFiles(fs::FileSystem* fs, fs::InodeNum ino, const std::string& dir,
                 std::vector<std::pair<std::string, fs::InodeNum>>* out) {
  ASSIGN_OR_RETURN(auto entries, fs->ReadDir(ino));
  for (const fs::DirEntryInfo& e : entries) {
    if (e.name == "." || e.name == "..") continue;
    const std::string path = dir + "/" + e.name;
    if (e.type == fs::FileType::kDirectory) {
      RETURN_IF_ERROR(ListFiles(fs, e.inum, path, out));
    } else {
      out->emplace_back(path, e.inum);
    }
  }
  return OkStatus();
}

Status Tenants(const RoundContext& ctx, RoundResult* r) {
  Tracer* t = ctx.tracer;

  const int64_t setup0 = HostNowNs();
  sim::SimConfig config;
  config.device = "flash";
  config.metadata = fs::MetadataPolicy::kDelayed;
  config.syncer = true;
  config.syncer_interval = SimTime::Millis(100);
  config.syncer_max_age = SimTime::Millis(100);
  config.dirty_high_watermark = 0.05;
  config.cache_blocks = kTotalCacheBlocks / kShards;
  config.shards = kShards;
  config.shard_placement = "jump";
  std::unique_ptr<shard::ShardRouter> router;
  {
    Span s(t, "shard", "ShardRouter::Create");
    ASSIGN_OR_RETURN(router,
                     shard::ShardRouter::Create(sim::FsKind::kCffs, config));
  }
  t->set_sim_clock([rt = router.get()] { return rt->MaxClockNs(); });
  if (t->enabled()) router->EnableTrace(kTraceCapacity);
  r->setup_s = (HostNowNs() - setup0) / 1e9;

  shard::ShardDriverParams params;
  params.clients = kClients;
  params.ops_per_client = kOpsPerClient;
  params.dirs_per_client = kDirsPerClient;
  params.scheduler = mt::SchedulerKind::kDrr;
  params.seed = Mix(ctx.seed ^ 0x7e4a);
  params.create_pct = 40;
  params.read_pct = 40;
  params.rename_pct = 1;
  params.file_bytes = kFileBytes;
  params.max_live_files = 32;
  params.prepopulate_files = kPrepopulate;
  shard::ShardDriver loop(router.get(), params);

  // ShardDriver::Run prepopulates the client directories itself, so that
  // work (256 creates, against 153,600 measured ops) falls inside the
  // measured host time.
  MeasuredRegion region(r, t);
  region.Start();
  Status run;
  {
    Span s(t, "shard", "ShardDriver::Run");
    run = loop.Run();
  }
  region.Stop();
  RETURN_IF_ERROR(run);

  const shard::ShardDriverStats& st = loop.stats();
  std::vector<stats::MetricsSnapshot> snaps;
  for (uint32_t s = 0; s < kShards; ++s) {
    Span sp(t, "stats", "stats::Snapshot");
    snaps.push_back(stats::Snapshot(*router->env(s)));
  }
  for (uint32_t s = 0; s < kShards; ++s) DrainTrace(*router->env(s), r, true);

  uint64_t creates = 0, reads = 0, deletes = 0;
  for (const mt::MtClientStats& c : st.mt.per_client) {
    creates += c.creates;
    reads += c.reads;
    deletes += c.deletes;
  }
  uint64_t used = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSIGN_OR_RETURN(uint64_t u, UsedBlocks(*router->env(s)));
    used += u;
  }
  const uint64_t live_files =
      kClients * kDirsPerClient * kPrepopulate + creates - deletes;
  r->ops = st.mt.ops_serviced;
  const double n = static_cast<double>(r->ops);
  const double elapsed_s = st.elapsed_ns / 1e9;
  r->sim["sim_ops_per_s"] = n / elapsed_s;
  r->sim["sim_create_files_per_s"] = creates / elapsed_s;
  r->sim["sim_read_files_per_s"] = reads / elapsed_s;
  r->sim["sim_delete_files_per_s"] = deletes / elapsed_s;
  // ShardDriver keeps exact latency sums but only bucketed distributions.
  r->sim["sim_op_mean_ms"] =
      (st.mt.service_ns + st.mt.queue_wait_ns) / 1e6 / n;
  r->sim["sim_op_iqm_ms"] = HistogramInterquartileMeanMs(st.mt.latency);
  r->sim["sim_op_p999_ms"] = HistogramPercentileMs(st.mt.latency, 0.999);
  uint64_t blocks_written = 0;
  for (const stats::MetricsSnapshot& s : snaps) {
    blocks_written += s.block_io.blocks_written;
  }
  r->sim["write_amp"] = static_cast<double>(blocks_written) *
                        blk::kBlockSize / (creates * double{kFileBytes});
  // The live set only grows towards its cap, so it is largest at the end.
  r->sim["space_amp"] = static_cast<double>(used) * blk::kBlockSize /
                        (live_files * double{kFileBytes});

  AddLayerCounters(snaps, r->ops, &r->layer);
  uint64_t max_shard_ops = 0, shard_ops = 0;
  for (const shard::ShardOpStats& s : st.per_shard) {
    max_shard_ops = std::max(max_shard_ops, s.ops);
    shard_ops += s.ops;
  }
  r->layer["mt.queue_wait_ms_per_op"] = st.mt.queue_wait_ns / 1e6 / n;
  r->layer["mt.jain_fairness"] = st.mt.JainFairnessIndex();
  r->layer["shard.host_us_per_op"] = r->measured_host_s * 1e6 / n;
  r->layer["shard.max_over_mean_ops"] =
      max_shard_ops / (static_cast<double>(shard_ops) / kShards);
  r->layer["shard.cross_renames_per_kop"] = 1e3 * st.renames_cross / n;
  for (uint32_t s = 0; s < kShards; ++s) {
    r->image_hashes.push_back(DiskImageHash(*router->env(s)));
  }

  // Checks, outside the measured region.
  Span sp(t, "bench", "checks");
  for (uint32_t s = 0; s < kShards; ++s) {
    CheckInvariants(snaps[s], "tenants shard " + std::to_string(s),
                    &r->problems);
  }
  if (shard_ops != st.mt.ops_serviced) {
    r->problems.push_back("per-shard ops do not sum to the serviced ops");
  }
  if (router->stats().renames_failed != 0) {
    r->problems.push_back(std::to_string(router->stats().renames_failed) +
                          " cross-shard renames failed");
  }
  if (st.renames_cross == 0) {
    r->problems.push_back("no cross-shard rename ran");
  }
  for (uint32_t s = 0; s < kShards; ++s) {
    Span c(t, "fsck", "RemountAndFsck");
    RETURN_IF_ERROR(RemountAndFsck(*router->env(s),
                                   "tenants shard " + std::to_string(s),
                                   &r->problems));
  }
  // Namespace walk of every shard: each file on its owner shard holding the
  // ShardDriver's payload, per-client live counts matching ShardDriver's own
  // create/delete counts, and an empty rename journal.
  std::vector<uint64_t> per_client(kClients, 0);
  const std::vector<uint8_t> payload(kFileBytes, kDriverPayloadByte);
  std::vector<uint8_t> buf;
  for (uint32_t s = 0; s < kShards; ++s) {
    fs::FileSystem* fs = router->env(s)->fs();
    std::vector<std::pair<std::string, fs::InodeNum>> files;
    RETURN_IF_ERROR(ListFiles(fs, fs->root(), "", &files));
    for (const auto& [path, ino] : files) {
      if (path.starts_with(std::string(shard::kJournalDir) + "/")) {
        r->problems.push_back("rename journal not empty on shard " +
                              std::to_string(s) + ": " + path);
        continue;
      }
      if (router->OwnerOfFile(path) != s) {
        r->problems.push_back(path + " is not on its owner shard");
      }
      unsigned client = 0, dir = 0, file = 0;
      if (std::sscanf(path.c_str(), "/c%u/d%u/f%u", &client, &dir, &file) !=
              3 ||
          client >= kClients) {
        r->problems.push_back("unexpected file " + path);
        continue;
      }
      ++per_client[client];
      ASSIGN_OR_RETURN(fs::Attr attr, fs->GetAttr(ino));
      buf.assign(attr.size, 0);
      ASSIGN_OR_RETURN(uint64_t got, fs->Read(ino, 0, buf));
      if (got != kFileBytes || buf != payload) {
        r->problems.push_back("wrong content in " + path);
      }
    }
  }
  for (uint32_t c = 0; c < kClients; ++c) {
    const mt::MtClientStats& cs = st.mt.per_client[c];
    const uint64_t want =
        kDirsPerClient * kPrepopulate + cs.creates - cs.deletes;
    if (per_client[c] != want) {
      r->problems.push_back("client " + std::to_string(c) + " holds " +
                            std::to_string(per_client[c]) + " files, expected " +
                            std::to_string(want));
    }
  }
  return OkStatus();
}

}  // namespace

RoundResult RunTenants(const RoundContext& ctx) {
  RoundResult r;
  if (Status s = Tenants(ctx, &r); !s.ok()) {
    ++r.failed;
    r.problems.push_back("tenants: " + s.ToString());
  }
  return r;
}

}  // namespace perfbench
