#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/fsck/fsck.h"

namespace perfbench {

// --- Tracer ------------------------------------------------------------------

void Tracer::Begin(const char* layer, const char* name) {
  Open o{layer, name, HostNowNs(), sim_now_ ? sim_now_() : 0, 0, -1};
  if (records_.size() < kMaxStoredSpans) {
    o.record = static_cast<int32_t>(records_.size());
    int32_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->record >= 0) {
        parent = it->record;
        break;
      }
    }
    records_.push_back(Record{layer, name, o.host_start_ns, 0,
                              o.sim_start_ns, 0, parent});
  }
  stack_.push_back(o);
}

void Tracer::End() {
  const int64_t host_end = HostNowNs();
  const Open o = stack_.back();
  stack_.pop_back();
  const int64_t dur = host_end - o.host_start_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.record >= 0) {
    Record& r = records_[o.record];
    r.host_end_ns = host_end;
    r.sim_end_ns = sim_now_ ? sim_now_() : 0;
  }
  ++spans_;
  if (measuring_) {
    LayerTotals& m = measured_[o.layer];
    ++m.calls;
    m.self_ns += dur - o.child_ns;
  }
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const int64_t host0 = records_.empty() ? 0 : records_.front().host_start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"host clock\"}},\n"
               "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
               "\"args\":{\"name\":\"simulated clock\"}}");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.host_end_ns == 0) continue;  // still open at write time
    const double hts = (r.host_start_ns - host0) / 1e3;
    const double hdur = (r.host_end_ns - r.host_start_ns) / 1e3;
    const double sts = r.sim_start_ns / 1e3;
    const double sdur = (r.sim_end_ns - r.sim_start_ns) / 1e3;
    for (int pid = 1; pid <= 2; ++pid) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"name\":\"%s\","
                   "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                   "\"id\":%zu,\"parent\":%d,\"host_start_us\":%.3f,"
                   "\"host_dur_us\":%.3f,\"sim_start_us\":%.3f,"
                   "\"sim_dur_us\":%.3f}}",
                   pid, r.name, r.layer, pid == 1 ? hts : sts,
                   pid == 1 ? hdur : sdur, i, r.parent, hts, hdur, sts, sdur);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- OpSamples -----------------------------------------------------------------

double OpSamples::MeanMs() const {
  if (sim_ns_.empty()) return 0;
  long double sum = 0;
  for (int64_t v : sim_ns_) sum += v;
  return static_cast<double>(sum / sim_ns_.size() / 1e6L);
}

double OpSamples::InterquartileMeanMs() const {
  if (sim_ns_.empty()) return 0;
  std::vector<int64_t> v = sim_ns_;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4, hi = std::max(v.size() - v.size() / 4, lo + 1);
  long double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return static_cast<double>(sum / (hi - lo) / 1e6L);
}

double OpSamples::PercentileMs(double p) const {
  if (sim_ns_.empty()) return 0;
  std::vector<int64_t> v = sim_ns_;
  // Nearest rank: the smallest sample with at least p of all at or below.
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1] / 1e6;
}

// --- seeded content --------------------------------------------------------------

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string RandomPrefix(Rng* rng, int max_len) {
  std::string s(rng->Below(static_cast<uint64_t>(max_len) + 1), 'a');
  for (char& ch : s) ch = static_cast<char>('a' + rng->Below(26));
  return s;
}

Content::Content(uint64_t seed) : seed_(seed), pool_(kPoolSpan + kMaxFileBytes) {
  Rng rng(Mix(seed ^ 0xc0ffee));
  for (size_t i = 0; i < pool_.size(); i += 8) {
    uint64_t x = rng.Next();
    std::memcpy(&pool_[i], &x, 8);
  }
}

uint64_t Content::Key(uint64_t id, uint32_t version) const {
  return Mix(Mix(seed_) ^ Mix(id * 0x2545f4914f6cdd1dULL + version));
}

void Content::Make(uint64_t id, uint32_t version, size_t size,
                   std::vector<uint8_t>* out) const {
  out->resize(size);
  const uint64_t key = Key(id, version);
  const size_t tag = std::min<size_t>(size, 8);
  std::memcpy(out->data(), &key, tag);
  if (size > tag) {
    std::memcpy(out->data() + tag, &pool_[key % kPoolSpan], size - tag);
  }
}

bool Content::Matches(uint64_t id, uint32_t version,
                      std::span<const uint8_t> data) const {
  const uint64_t key = Key(id, version);
  const size_t tag = std::min<size_t>(data.size(), 8);
  return std::memcmp(data.data(), &key, tag) == 0 &&
         std::memcmp(data.data() + tag, &pool_[key % kPoolSpan],
                     data.size() - tag) == 0;
}

// --- measurement helpers ---------------------------------------------------------

uint64_t DiskImageHash(sim::SimEnv& env) {
  uint64_t h = 1469598103934665603ull;
  env.disk().ForEachChunk(
      [&h](uint64_t chunk_index, std::span<const uint8_t> data) {
        h ^= chunk_index;
        h *= 1099511628211ull;
        for (uint8_t b : data) {
          h ^= b;
          h *= 1099511628211ull;
        }
      });
  return h;
}

Result<uint64_t> UsedBlocks(sim::SimEnv& env) {
  ASSIGN_OR_RETURN(fs::FsSpaceInfo s, env.fs()->SpaceInfo());
  return s.total_blocks - s.free_blocks - s.metadata_blocks;
}

void AddLayerCounters(const std::vector<stats::MetricsSnapshot>& snaps,
                      uint64_t ops, std::map<std::string, double>* layer) {
  fs::FsOpStats f;
  cache::CacheStats c;
  blk::BlockIoStats b;
  uint64_t write_epochs = 0, flushes = 0, throttle_flushes = 0;
  double seek = 0, rot = 0, xfer = 0, ovh = 0;     // ns
  double fwait = 0, fprog = 0, ferase = 0;         // ns
  uint64_t erases = 0;
  double cpu = 0, queue_wait = 0, throttle = 0;    // ns
  for (const stats::MetricsSnapshot& s : snaps) {
    f.sync_metadata_writes += s.fs_ops.sync_metadata_writes;
    f.group_reads += s.fs_ops.group_reads;
    f.lookups += s.fs_ops.lookups;
    f.dentry_hits += s.fs_ops.dentry_hits;
    f.dir_block_reads += s.fs_ops.dir_block_reads;
    c.lookups += s.cache.lookups;
    c.hits += s.cache.hits;
    c.evictions += s.cache.evictions;
    c.readahead_staged += s.cache.readahead_staged;
    c.readahead_hits += s.cache.readahead_hits;
    b.reads += s.block_io.reads;
    b.writes += s.block_io.writes;
    b.blocks_read += s.block_io.blocks_read;
    b.blocks_written += s.block_io.blocks_written;
    write_epochs += s.io_engine.write_epochs;
    flushes += s.syncer.flushes;
    throttle_flushes += s.syncer.throttle_flushes;
    seek += s.disk.seek_time.nanos();
    rot += s.disk.rotation_time.nanos();
    xfer += s.disk.transfer_time.nanos();
    ovh += s.disk.overhead_time.nanos();
    if (s.flash_enabled) {
      fwait += s.flash.wait_time.nanos();
      fprog += s.flash.program_time.nanos();
      ferase += s.flash.erase_time.nanos();
      erases += s.flash.erases;
    }
    for (const obs::OpTypeBreakdown& t : s.spans.per_op) {
      cpu += t.totals.ns[static_cast<int>(obs::Phase::kCpu)];
      queue_wait += t.totals.ns[static_cast<int>(obs::Phase::kQueueWait)];
      throttle += t.totals.ns[static_cast<int>(obs::Phase::kThrottleStall)];
    }
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double n = static_cast<double>(ops);
  auto& L = *layer;
  L["fs.sync_meta_writes_per_op"] = ratio(f.sync_metadata_writes, n);
  L["fs.group_reads_per_op"] = ratio(f.group_reads, n);
  L["names.dentry_hit_ratio"] = ratio(f.dentry_hits, f.lookups);
  L["names.dir_block_reads_per_op"] = ratio(f.dir_block_reads, n);
  L["cache.hit_ratio"] = ratio(c.hits, c.lookups);
  L["cache.evictions_per_op"] = ratio(c.evictions, n);
  L["readahead.useful_ratio"] = ratio(c.readahead_hits, c.readahead_staged);
  L["io.blocks_per_write_epoch"] = ratio(b.blocks_written, write_epochs);
  L["syncer.flushes_per_kop"] = ratio(1e3 * flushes, n);
  L["syncer.throttle_flushes_per_kop"] = ratio(1e3 * throttle_flushes, n);
  L["io.queue_wait_ms_per_op"] = ratio(queue_wait / 1e6, n);
  L["io.throttle_stall_ms_per_op"] = ratio(throttle / 1e6, n);
  L["blockdev.cmds_per_op"] = ratio(b.reads + b.writes, n);
  L["blockdev.kb_per_cmd"] =
      ratio((b.blocks_read + b.blocks_written) * (blk::kBlockSize / 1024.0),
            b.reads + b.writes);
  L["disk.seek_ms_per_op"] = ratio(seek / 1e6, n);
  L["disk.rotation_ms_per_op"] = ratio(rot / 1e6, n);
  L["disk.transfer_ms_per_op"] = ratio(xfer / 1e6, n);
  L["disk.overhead_ms_per_op"] = ratio(ovh / 1e6, n);
  L["flash.channel_wait_ms_per_op"] = ratio(fwait / 1e6, n);
  L["flash.program_ms_per_op"] = ratio(fprog / 1e6, n);
  L["flash.erase_ms_per_op"] = ratio(ferase / 1e6, n);
  L["flash.erases_per_kop"] = ratio(1e3 * erases, n);
  L["sim.cpu_ms_per_op"] = ratio(cpu / 1e6, n);
}

Status RemountAndFsck(sim::SimEnv& env, const std::string& label,
                      std::vector<std::string>* problems) {
  RETURN_IF_ERROR(env.Remount());
  auto* cffs = dynamic_cast<fs::CffsFileSystem*>(env.fs());
  if (cffs == nullptr) return InvalidArgument("fsck: not a C-FFS machine");
  ASSIGN_OR_RETURN(fsck::FsckReport report, fsck::CheckCffs(cffs, {}));
  for (const std::string& p : report.problems) {
    problems->push_back(label + " fsck: " + p);
  }
  if (!report.clean && report.problems.empty()) {
    problems->push_back(label + " fsck: not clean");
  }
  return OkStatus();
}

void CheckInvariants(const stats::MetricsSnapshot& snap,
                     const std::string& label,
                     std::vector<std::string>* problems) {
  for (const std::string& v : snap.CheckInvariants()) {
    problems->push_back(label + " invariant: " + v);
  }
}

void DrainTrace(sim::SimEnv& env, RoundResult* r, bool force) {
  obs::TraceRecorder* t = env.trace();
  if (t == nullptr || (!force && t->size() < t->capacity() / 2)) return;
  if (t->dropped() > 0) {
    r->problems.push_back("trace ring dropped " +
                          std::to_string(t->dropped()) + " events");
  }
  r->trace_events += t->size();
  t->Clear();
}

}  // namespace perfbench
