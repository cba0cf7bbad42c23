// Workload `aged`: the paper's §4.3 set-up. C-FFS on the 256 MB test disk
// is aged with Herrin-style create/delete churn to about 75% utilization
// (log-normal file sizes up to 128 KB, median 2 KB, in 50 directories),
// then the small-file phases run on the fragmented disk (4000 1 KB files in
// 40 more directories). The aging and the phases are both measured.
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common.h"
#include "src/stats/collect.h"

namespace perfbench {

namespace {

constexpr uint32_t kAgeDirs = 50;
constexpr double kTargetUtil = 0.75;
constexpr uint64_t kChurnOps = 10000;
constexpr uint32_t kSmallFiles = 4000;
constexpr uint32_t kSmallDirs = 40;
constexpr uint64_t kSmallFirstId = uint64_t{1} << 32;

// Log-normal, median 2 KB, sigma 1.6: about 80% of files under 8 KB, as
// the paper's file-server survey reports.
uint64_t FileSize(Rng* rng) {
  const double b = rng->NextLogNormal(std::log(2048.0), 1.6);
  return static_cast<uint64_t>(
      std::clamp(b, 1.0, static_cast<double>(Content::kMaxFileBytes)));
}

struct AgedFile {
  uint32_t dir;
  std::string name;
  uint64_t id;
  uint64_t size;
};

std::string AgeDir(uint32_t d) { return "/ag" + std::to_string(d); }

Status Aged(const RoundContext& ctx, RoundResult* r) {
  Tracer* t = ctx.tracer;
  Rng rng(Mix(ctx.seed ^ 0xa9ed));
  const SmallFileSet set =
      MakeSmallFileSet(&rng, "/sf", kSmallDirs, kSmallFiles, kSmallFirstId);

  const int64_t setup0 = HostNowNs();
  sim::SimConfig config;
  config.disk_spec = disk::TestDisk(2048, 4, 64);
  std::unique_ptr<sim::SimEnv> env;
  {
    Span s(t, "sim", "SimEnv::Create");
    ASSIGN_OR_RETURN(env, sim::SimEnv::Create(sim::FsKind::kCffs, config));
  }
  t->set_sim_clock([e = env.get()] { return e->clock().now().nanos(); });
  if (t->enabled()) env->EnableTrace();
  fs::PathOps& p = env->path();
  for (uint32_t d = 0; d < kAgeDirs; ++d) {
    Span s(t, "fs", "PathOps::Mkdir");
    RETURN_IF_ERROR(p.Mkdir(AgeDir(d)).status());
  }
  for (const std::string& d : set.dirs) {
    Span s(t, "fs", "PathOps::Mkdir");
    RETURN_IF_ERROR(p.Mkdir(d).status());
  }
  {
    Span s(t, "cache", "SimEnv::ColdCache");
    RETURN_IF_ERROR(env->ColdCache());
  }
  env->ResetStats();
  ASSIGN_OR_RETURN(fs::FsSpaceInfo space0, env->fs()->SpaceInfo());
  const uint64_t usable = space0.total_blocks - space0.metadata_blocks;
  r->setup_s = (HostNowNs() - setup0) / 1e9;

  MeasuredRegion region(r, t);
  OpSamples samples;
  const SimClock& clock = env->clock();
  std::vector<AgedFile> live;
  std::vector<uint8_t> data;
  uint64_t next_id = 0;
  uint64_t bytes_written = 0;
  PhaseWindow aging;

  auto utilization = [&]() -> Result<double> {
    ASSIGN_OR_RETURN(fs::FsSpaceInfo s, env->fs()->SpaceInfo());
    return 1.0 - static_cast<double>(s.free_blocks) / usable;
  };
  auto create = [&]() -> Status {
    AgedFile f{static_cast<uint32_t>(rng.Below(kAgeDirs)),
               RandomPrefix(&rng, 10) + "g" + std::to_string(next_id),
               next_id, FileSize(&rng)};
    ++next_id;
    ctx.content->Make(f.id, 0, f.size, &data);
    {
      OpTimer op(&samples, OpSamples::kCreate, clock);
      {
        Span s(t, "sim", "SimEnv::ChargeCpu");
        env->ChargeCpu(f.size);
      }
      Span s(t, "fs", "PathOps::WriteFile");
      RETURN_IF_ERROR(p.WriteFile(AgeDir(f.dir) + "/" + f.name, data));
    }
    bytes_written += f.size;
    live.push_back(std::move(f));
    DrainTrace(*env, r);
    return OkStatus();
  };

  region.Start();
  {
    Span ph(t, "bench", "phase.aging");
    aging.start_ns = clock.now().nanos();
    // Fill to the target utilization, then churn around it: the creation
    // probability is 0.5 at the target and pushed towards 1 below it and
    // towards 0 above it (Herrin and Finkel's aging scheme).
    for (;;) {
      ASSIGN_OR_RETURN(double util, utilization());
      if (util >= kTargetUtil) break;
      RETURN_IF_ERROR(create());
    }
    for (uint64_t i = 0; i < kChurnOps; ++i) {
      ASSIGN_OR_RETURN(double util, utilization());
      const double pc =
          std::clamp(0.5 + 2.0 * (kTargetUtil - util), 0.02, 0.98);
      if (live.empty() || rng.Chance(pc)) {
        RETURN_IF_ERROR(create());
        continue;
      }
      const size_t victim = rng.Below(live.size());
      {
        OpTimer op(&samples, OpSamples::kDelete, clock);
        {
          Span s(t, "sim", "SimEnv::ChargeCpu");
          env->ChargeCpu();
        }
        Span s(t, "fs", "PathOps::Unlink");
        RETURN_IF_ERROR(
            p.Unlink(AgeDir(live[victim].dir) + "/" + live[victim].name));
      }
      live[victim] = std::move(live.back());
      live.pop_back();
      DrainTrace(*env, r);
    }
    {
      Span s(t, "cache", "FileSystem::Sync");
      RETURN_IF_ERROR(env->fs()->Sync());
    }
    aging.end_ns = clock.now().nanos();
  }
  ASSIGN_OR_RETURN(const double aged_util, utilization());
  {
    Span s(t, "cache", "SimEnv::ColdCache");
    RETURN_IF_ERROR(env->ColdCache());
  }
  SmallFilePhases ph;
  RETURN_IF_ERROR(
      RunSmallFilePhases(*env, set, ctx, &region, &samples, r, &ph));
  region.Stop();
  DrainTrace(*env, r, /*force=*/true);

  stats::MetricsSnapshot snap;
  {
    Span s(t, "stats", "stats::Snapshot");
    snap = stats::Snapshot(*env);
  }
  uint64_t live_bytes = 0;
  for (const AgedFile& f : live) live_bytes += f.size;
  r->ops = samples.ops();
  const double n = kSmallFiles;
  const double total_s = aging.seconds() + ph.create.seconds() +
                         ph.read.seconds() + ph.overwrite.seconds() +
                         ph.remove.seconds();
  r->sim["sim_ops_per_s"] = r->ops / total_s;
  r->sim["sim_create_files_per_s"] = n / ph.create.seconds();
  r->sim["sim_read_files_per_s"] = n / ph.read.seconds();
  r->sim["sim_delete_files_per_s"] = n / ph.remove.seconds();
  r->sim["sim_op_mean_ms"] = samples.MeanMs();
  r->sim["sim_op_iqm_ms"] = samples.InterquartileMeanMs();
  r->sim["sim_op_p999_ms"] = samples.PercentileMs(0.999);
  r->sim["write_amp"] = static_cast<double>(snap.block_io.blocks_written) *
                        blk::kBlockSize / (bytes_written + ph.bytes_written);
  // The file set is largest right after the small-file create phase.
  r->sim["space_amp"] =
      static_cast<double>(ph.used_blocks_after_create) * blk::kBlockSize /
      (live_bytes + n * set.file_bytes);
  AddLayerCounters({snap}, r->ops, &r->layer);
  r->layer["fs.host_create_us"] = samples.HostUs(OpSamples::kCreate);
  r->layer["fs.host_read_us"] = samples.HostUs(OpSamples::kRead);
  r->layer["fs.host_delete_us"] = samples.HostUs(OpSamples::kDelete);
  r->image_hashes.push_back(DiskImageHash(*env));

  // Checks, outside the measured region.
  Span s(t, "bench", "checks");
  CheckInvariants(snap, "aged", &r->problems);
  if (aged_util < kTargetUtil - 0.05 || aged_util > kTargetUtil + 0.05) {
    r->problems.push_back("aged utilization " + std::to_string(aged_util) +
                          " is not near the 75% target");
  }
  {
    Span c(t, "fsck", "RemountAndFsck");
    RETURN_IF_ERROR(RemountAndFsck(*env, "aged", &r->problems));
  }
  // Namespace walk (on the remounted file system): exactly the surviving
  // aged files, with their sizes and contents, and empty small-file
  // directories.
  fs::FileSystem* fs = env->fs();
  std::vector<std::unordered_map<std::string, const AgedFile*>> model(kAgeDirs);
  for (const AgedFile& f : live) model[f.dir][f.name] = &f;
  std::vector<uint8_t> buf;
  for (uint32_t d = 0; d < kAgeDirs; ++d) {
    ASSIGN_OR_RETURN(fs::InodeNum dino, env->path().Resolve(AgeDir(d)));
    ASSIGN_OR_RETURN(auto entries, fs->ReadDir(dino));
    size_t seen = 0;
    for (const fs::DirEntryInfo& e : entries) {
      if (e.name == "." || e.name == "..") continue;
      auto it = model[d].find(e.name);
      if (it == model[d].end()) {
        r->problems.push_back("unexpected file " + AgeDir(d) + "/" + e.name);
        continue;
      }
      ++seen;
      const AgedFile& f = *it->second;
      ASSIGN_OR_RETURN(fs::Attr attr, fs->GetAttr(e.inum));
      buf.resize(f.size);
      ASSIGN_OR_RETURN(uint64_t got, fs->Read(e.inum, 0, buf));
      if (attr.size != f.size || got != f.size ||
          !ctx.content->Matches(f.id, 0, buf)) {
        r->problems.push_back("wrong size or content: " + AgeDir(d) + "/" +
                              e.name);
      }
    }
    if (seen != model[d].size()) {
      r->problems.push_back(AgeDir(d) + " lost " +
                            std::to_string(model[d].size() - seen) + " files");
    }
  }
  for (const std::string& d : set.dirs) {
    ASSIGN_OR_RETURN(fs::InodeNum dino, env->path().Resolve(d));
    ASSIGN_OR_RETURN(auto entries, fs->ReadDir(dino));
    for (const fs::DirEntryInfo& e : entries) {
      if (e.name != "." && e.name != "..") {
        r->problems.push_back(d + " not empty after the delete phase");
        break;
      }
    }
  }
  return OkStatus();
}

}  // namespace

RoundResult RunAged(const RoundContext& ctx) {
  RoundResult r;
  if (Status s = Aged(ctx, &r); !s.ok()) {
    ++r.failed;
    r.problems.push_back("aged: " + s.ToString());
  }
  return r;
}

}  // namespace perfbench
