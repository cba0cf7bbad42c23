// Workload `smallfile`: the paper's §4.2 small-file benchmark on full C-FFS
// with the ST31200 model, synchronous metadata and the default 8 MB cache.
// 10000 1 KB files over 100 directories: each file holds a 4 KB block, so
// the file set is about five times the cache.
#include <algorithm>
#include <optional>

#include "common.h"
#include "src/stats/collect.h"

namespace perfbench {

namespace {

constexpr uint32_t kFiles = 10000;
constexpr uint32_t kDirs = 100;

}  // namespace

SmallFileSet MakeSmallFileSet(Rng* rng, const std::string& dir_prefix,
                              uint32_t dirs, uint32_t files,
                              uint64_t first_id) {
  SmallFileSet set;
  set.first_id = first_id;
  // Directory sizes vary by up to a fifth around the mean, in pairs that
  // cancel, so the total is exactly `files`.
  std::vector<uint32_t> count(dirs, files / dirs);
  for (uint32_t i = 0; i < files % dirs; ++i) ++count[i];
  for (uint32_t d = 0; d + 1 < dirs; d += 2) {
    const uint32_t j = static_cast<uint32_t>(rng->Below(count[d] / 5 + 1));
    count[d] += j;
    count[d + 1] -= std::min(j, count[d + 1]);
  }
  uint64_t i = 0;
  for (uint32_t d = 0; d < dirs; ++d) {
    set.dirs.push_back(dir_prefix + std::to_string(d));
    for (uint32_t k = 0; k < count[d]; ++k, ++i) {
      set.paths.push_back(set.dirs.back() + "/" + RandomPrefix(rng, 12) +
                          "f" + std::to_string(i));
    }
  }
  return set;
}

Status RunSmallFilePhases(sim::SimEnv& env, const SmallFileSet& set,
                          const RoundContext& ctx, MeasuredRegion* region,
                          OpSamples* samples, RoundResult* r,
                          SmallFilePhases* out) {
  Tracer* t = ctx.tracer;
  fs::PathOps& p = env.path();
  fs::FileSystem* fs = env.fs();
  const SimClock& clock = env.clock();
  const uint32_t bytes = set.file_bytes;
  std::vector<uint8_t> data;
  std::vector<uint8_t> buf(bytes);

  auto sync = [&]() -> Status {
    Span s(t, "cache", "FileSystem::Sync");
    return fs->Sync();
  };
  auto cold = [&]() -> Status {
    Span s(t, "cache", "SimEnv::ColdCache");
    return env.ColdCache();
  };
  auto charge = [&](uint64_t n) {
    Span s(t, "sim", "SimEnv::ChargeCpu");
    env.ChargeCpu(n);
  };
  // Version 0 creates the files, version 1 overwrites them.
  auto write_phase = [&](uint32_t version, PhaseWindow* w) -> Status {
    const OpSamples::Kind kind =
        version == 0 ? OpSamples::kCreate : OpSamples::kOverwrite;
    Span ph(t, "bench", version == 0 ? "phase.create" : "phase.overwrite");
    w->start_ns = clock.now().nanos();
    for (size_t i = 0; i < set.paths.size(); ++i) {
      ctx.content->Make(set.first_id + i, version, bytes, &data);
      fs::InodeNum ino = fs::kInvalidInode;
      {
        OpTimer op(samples, kind, clock);
        charge(0);
        if (version == 0) {
          Span s(t, "fs", "PathOps::CreateFile");
          ASSIGN_OR_RETURN(ino, p.CreateFile(set.paths[i]));
        } else {
          Span s(t, "names", "PathOps::Resolve");
          ASSIGN_OR_RETURN(ino, p.Resolve(set.paths[i]));
        }
        charge(bytes);
        Span s(t, "fs", "FileSystem::Write");
        ASSIGN_OR_RETURN(uint64_t n, fs->Write(ino, 0, data));
        if (n != bytes) return IoError("short write " + set.paths[i]);
      }
      out->bytes_written += bytes;
      DrainTrace(env, r);
    }
    RETURN_IF_ERROR(sync());
    w->end_ns = clock.now().nanos();
    return OkStatus();
  };
  // Reads every file and checks it holds `version`; `kind` < 0 reads
  // unmeasured (verification only).
  auto read_pass = [&](int kind, uint32_t version) -> Status {
    for (size_t i = 0; i < set.paths.size(); ++i) {
      uint64_t n = 0;
      {
        std::optional<OpTimer> op;
        if (kind >= 0) op.emplace(samples, OpSamples::Kind(kind), clock);
        charge(0);
        fs::InodeNum ino = fs::kInvalidInode;
        {
          Span s(t, "names", "PathOps::Resolve");
          ASSIGN_OR_RETURN(ino, p.Resolve(set.paths[i]));
        }
        charge(bytes);
        Span s(t, "fs", "FileSystem::Read");
        ASSIGN_OR_RETURN(n, fs->Read(ino, 0, buf));
      }
      if (n != bytes ||
          !ctx.content->Matches(set.first_id + i, version, buf)) {
        r->problems.push_back("content mismatch reading " + set.paths[i]);
      }
      DrainTrace(env, r);
    }
    return OkStatus();
  };

  RETURN_IF_ERROR(write_phase(0, &out->create));
  ASSIGN_OR_RETURN(out->used_blocks_after_create, UsedBlocks(env));
  RETURN_IF_ERROR(cold());

  {
    Span ph(t, "bench", "phase.read");
    const uint64_t cmds0 = env.device().stats().reads;
    out->read.start_ns = clock.now().nanos();
    RETURN_IF_ERROR(read_pass(OpSamples::kRead, 0));
    out->read.end_ns = clock.now().nanos();
    out->read_phase_read_cmds = env.device().stats().reads - cmds0;
  }
  RETURN_IF_ERROR(cold());

  RETURN_IF_ERROR(write_phase(1, &out->overwrite));
  region->Stop();
  {
    Span ph(t, "bench", "verify.overwrite");
    RETURN_IF_ERROR(read_pass(-1, 1));
    RETURN_IF_ERROR(cold());
  }
  region->Start();

  {
    Span ph(t, "bench", "phase.delete");
    out->remove.start_ns = clock.now().nanos();
    for (const std::string& path : set.paths) {
      {
        OpTimer op(samples, OpSamples::kDelete, clock);
        charge(0);
        Span s(t, "fs", "PathOps::Unlink");
        RETURN_IF_ERROR(p.Unlink(path));
      }
      DrainTrace(env, r);
    }
    RETURN_IF_ERROR(sync());
    out->remove.end_ns = clock.now().nanos();
  }
  return OkStatus();
}

namespace {

Status Smallfile(const RoundContext& ctx, RoundResult* r) {
  Tracer* t = ctx.tracer;
  Rng rng(Mix(ctx.seed ^ 0x5f11e));
  const SmallFileSet set = MakeSmallFileSet(&rng, "/sf", kDirs, kFiles, 0);

  // Set-up: machine construction, mkfs and the directories.
  const int64_t setup0 = HostNowNs();
  std::unique_ptr<sim::SimEnv> env;
  {
    Span s(t, "sim", "SimEnv::Create");
    ASSIGN_OR_RETURN(env, sim::SimEnv::Create(sim::FsKind::kCffs, {}));
  }
  t->set_sim_clock([e = env.get()] { return e->clock().now().nanos(); });
  if (t->enabled()) env->EnableTrace();
  for (const std::string& d : set.dirs) {
    Span s(t, "fs", "PathOps::Mkdir");
    RETURN_IF_ERROR(env->path().Mkdir(d).status());
  }
  {
    Span s(t, "cache", "SimEnv::ColdCache");
    RETURN_IF_ERROR(env->ColdCache());
  }
  env->ResetStats();
  r->setup_s = (HostNowNs() - setup0) / 1e9;

  MeasuredRegion region(r, t);
  OpSamples samples;
  SmallFilePhases ph;
  region.Start();
  RETURN_IF_ERROR(
      RunSmallFilePhases(*env, set, ctx, &region, &samples, r, &ph));
  region.Stop();
  DrainTrace(*env, r, /*force=*/true);

  stats::MetricsSnapshot snap;
  {
    Span s(t, "stats", "stats::Snapshot");
    snap = stats::Snapshot(*env);
  }
  r->ops = samples.ops();
  const double n = static_cast<double>(set.paths.size());
  const double total_s = ph.create.seconds() + ph.read.seconds() +
                         ph.overwrite.seconds() + ph.remove.seconds();
  r->sim["sim_ops_per_s"] = r->ops / total_s;
  r->sim["sim_create_files_per_s"] = n / ph.create.seconds();
  r->sim["sim_read_files_per_s"] = n / ph.read.seconds();
  r->sim["sim_delete_files_per_s"] = n / ph.remove.seconds();
  r->sim["sim_op_mean_ms"] = samples.MeanMs();
  r->sim["sim_op_iqm_ms"] = samples.InterquartileMeanMs();
  r->sim["sim_op_p999_ms"] = samples.PercentileMs(0.999);
  r->sim["write_amp"] = static_cast<double>(snap.block_io.blocks_written) *
                        blk::kBlockSize / ph.bytes_written;
  r->sim["space_amp"] = static_cast<double>(ph.used_blocks_after_create) *
                        blk::kBlockSize / (n * set.file_bytes);
  AddLayerCounters({snap}, r->ops, &r->layer);
  r->layer["fs.host_create_us"] = samples.HostUs(OpSamples::kCreate);
  r->layer["fs.host_read_us"] = samples.HostUs(OpSamples::kRead);
  r->layer["fs.host_delete_us"] = samples.HostUs(OpSamples::kDelete);
  r->image_hashes.push_back(DiskImageHash(*env));

  // Checks, outside the measured region.
  Span s(t, "bench", "checks");
  CheckInvariants(snap, "smallfile", &r->problems);
  // Explicit grouping: one group read serves many small files, so the read
  // phase issues fewer disk read commands than it reads files.
  if (ph.read_phase_read_cmds >= set.paths.size()) {
    r->problems.push_back("read phase issued " +
                          std::to_string(ph.read_phase_read_cmds) +
                          " disk reads for " +
                          std::to_string(set.paths.size()) + " files");
  }
  {
    Span c(t, "fsck", "RemountAndFsck");
    RETURN_IF_ERROR(RemountAndFsck(*env, "smallfile", &r->problems));
  }
  // Namespace walk: exactly the benchmark's directories, all empty.
  ASSIGN_OR_RETURN(auto root, env->fs()->ReadDir(env->fs()->root()));
  std::vector<std::string> names;
  for (const fs::DirEntryInfo& e : root) {
    if (e.name != "." && e.name != "..") names.push_back("/" + e.name);
  }
  std::vector<std::string> want = set.dirs;
  std::sort(names.begin(), names.end());
  std::sort(want.begin(), want.end());
  if (names != want) {
    r->problems.push_back("root holds " + std::to_string(names.size()) +
                          " entries, expected the " +
                          std::to_string(want.size()) + " benchmark dirs");
  }
  for (const std::string& d : set.dirs) {
    ASSIGN_OR_RETURN(fs::InodeNum ino, env->path().Resolve(d));
    ASSIGN_OR_RETURN(auto entries, env->fs()->ReadDir(ino));
    for (const fs::DirEntryInfo& e : entries) {
      if (e.name != "." && e.name != "..") {
        r->problems.push_back(d + " not empty after the delete phase: " +
                              e.name);
      }
    }
  }
  return OkStatus();
}

}  // namespace

RoundResult RunSmallfile(const RoundContext& ctx) {
  RoundResult r;
  if (Status s = Smallfile(ctx, &r); !s.ok()) {
    ++r.failed;
    r.problems.push_back("smallfile: " + s.ToString());
  }
  return r;
}

}  // namespace perfbench
