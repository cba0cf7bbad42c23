// Shared pieces of the repository benchmark: host/simulated clocks, the
// span recorder used by traced runs, exact per-op latency samples, seeded
// content generation, and the correctness checks every workload ends with.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/sim/sim_env.h"
#include "src/stats/metrics.h"
#include "src/util/rng.h"

namespace perfbench {

using namespace cffs;

class Content;

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Records a span around every call the benchmark makes into a layer, on
// both clocks, with its parent. Off (the untraced runs) it costs one branch
// per call. Self time = a span's host duration minus its children's, summed
// per layer; only spans closed while `measuring` is set count towards the
// per-layer totals, so set-up and checks do not dilute them.
class Tracer {
 public:
  static constexpr size_t kMaxStoredSpans = 60000;

  struct Record {
    const char* layer;
    const char* name;
    int64_t host_start_ns;
    int64_t host_end_ns;
    int64_t sim_start_ns;
    int64_t sim_end_ns;
    int32_t parent;  // index into records, -1 for a root
  };

  struct LayerTotals {
    uint64_t calls = 0;
    int64_t self_ns = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_measuring(bool on) { measuring_ = on; }
  void set_sim_clock(std::function<int64_t()> now) { sim_now_ = std::move(now); }

  void Begin(const char* layer, const char* name);
  void End();

  // Per-layer self time over the measured region of every traced round.
  const std::map<std::string, LayerTotals>& measured() const {
    return measured_;
  }
  uint64_t spans() const { return spans_; }
  uint64_t stored() const { return records_.size(); }

  // Chrome trace-event JSON: process 1 on the host clock, process 2 on the
  // simulated clock, one complete ("X") event per stored span on each.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    const char* layer;
    const char* name;
    int64_t host_start_ns;
    int64_t sim_start_ns;
    int64_t child_ns;
    int32_t record;  // stored record index or -1
  };

  bool enabled_ = false;
  bool measuring_ = false;
  std::function<int64_t()> sim_now_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::map<std::string, LayerTotals> measured_;
  uint64_t spans_ = 0;
};

class Span {
 public:
  Span(Tracer* t, const char* layer, const char* name)
      : t_(t->enabled() ? t : nullptr) {
    if (t_) t_->Begin(layer, name);
  }
  ~Span() {
    if (t_) t_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

// Exact per-operation samples on the simulated clock, plus host time per
// op kind. Percentiles are nearest-rank over the exact samples.
//
// The middle of the distribution is summarised by the interquartile mean
// (the mean of the middle half of the samples), not the median: on the
// spinning disk most ops take one of two exact latencies (a cache hit's
// CPU charge, or one full revolution for a synchronous rewrite of the
// block just written), so the median equals a device constant whatever
// the inputs, and would not move until an op changed class.
class OpSamples {
 public:
  enum Kind { kCreate = 0, kRead, kOverwrite, kDelete, kKinds };

  void Add(Kind kind, int64_t sim_ns, int64_t host_ns) {
    sim_ns_.push_back(sim_ns);
    ++count_[kind];
    host_ns_[kind] += host_ns;
  }
  uint64_t ops() const { return sim_ns_.size(); }
  // Mean host microseconds per op of `kind` (0 when none ran).
  double HostUs(Kind kind) const {
    return count_[kind] ? host_ns_[kind] / 1e3 / count_[kind] : 0;
  }
  double MeanMs() const;
  double InterquartileMeanMs() const;
  double PercentileMs(double p) const;

 private:
  std::vector<int64_t> sim_ns_;
  uint64_t count_[kKinds] = {};
  double host_ns_[kKinds] = {};
};

// Times one benchmark-level operation on both clocks.
class OpTimer {
 public:
  OpTimer(OpSamples* samples, OpSamples::Kind kind, const SimClock& clock)
      : samples_(samples), kind_(kind), clock_(clock),
        sim0_(clock.now().nanos()), host0_(HostNowNs()) {}
  ~OpTimer() {
    samples_->Add(kind_, clock_.now().nanos() - sim0_, HostNowNs() - host0_);
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  OpSamples* samples_;
  OpSamples::Kind kind_;
  const SimClock& clock_;
  int64_t sim0_;
  int64_t host0_;
};

// Simulated-time window of one measured phase (paper §4.2: a phase ends
// with its forced write-back, which its time includes).
struct PhaseWindow {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds() const { return (end_ns - start_ns) / 1e9; }
};

// What one round (one complete execution of a workload) produced.
struct RoundResult {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double setup_s = 0;
  double measured_host_s = 0;
  // Deterministic simulated metrics (end-to-end) and per-layer values.
  std::map<std::string, double> sim;
  std::map<std::string, double> layer;
  std::vector<uint64_t> image_hashes;  // one per device
  std::vector<std::string> problems;   // failed checks; empty = correct
  uint64_t trace_events = 0;           // TraceRecorder events (traced)
};

// A traced round (tracer enabled) also turns the machines' TraceRecorder on.
struct RoundContext {
  uint64_t seed = 0;
  const Content* content = nullptr;
  Tracer* tracer = nullptr;
};

// --- seeded inputs -------------------------------------------------------

// Every byte the benchmark writes or expects. A file's content is an 8-byte
// tag unique to (seed, file id, version) followed by a slice of a random
// pool generated from the seed, so generating and verifying a file costs a
// copy or a compare instead of a hash per byte.
class Content {
 public:
  static constexpr size_t kMaxFileBytes = 128 * 1024;

  explicit Content(uint64_t seed);
  void Make(uint64_t id, uint32_t version, size_t size,
            std::vector<uint8_t>* out) const;
  bool Matches(uint64_t id, uint32_t version,
               std::span<const uint8_t> data) const;

 private:
  static constexpr size_t kPoolSpan = 1 << 20;
  uint64_t Key(uint64_t id, uint32_t version) const;

  uint64_t seed_;
  std::vector<uint8_t> pool_;  // kPoolSpan + kMaxFileBytes random bytes
};

// splitmix64 finalizer: a well-mixed 64-bit hash of `x`.
uint64_t Mix(uint64_t x);

// Lowercase name prefix of 0..max_len letters drawn from `rng`.
std::string RandomPrefix(Rng* rng, int max_len);

// Starts and stops the measured region: host time is summed over the
// measured segments, and the tracer attributes self time only inside them.
class MeasuredRegion {
 public:
  MeasuredRegion(RoundResult* r, Tracer* t) : r_(r), t_(t) {}
  void Start() {
    t_->set_measuring(true);
    start_ns_ = HostNowNs();
  }
  void Stop() {
    r_->measured_host_s += (HostNowNs() - start_ns_) / 1e9;
    t_->set_measuring(false);
  }

 private:
  RoundResult* r_;
  Tracer* t_;
  int64_t start_ns_ = 0;
};

// --- shared measurement helpers -------------------------------------------

// FNV-1a over every written chunk of the device's backing store.
uint64_t DiskImageHash(sim::SimEnv& env);

// Blocks in use by file data and directories (everything but the static
// metadata the format reserves).
Result<uint64_t> UsedBlocks(sim::SimEnv& env);

// Per-layer values every single-machine or sharded run reports, from one
// snapshot per device over the measured region. `ops` is the number of
// benchmark-level operations in that region.
void AddLayerCounters(const std::vector<stats::MetricsSnapshot>& snaps,
                      uint64_t ops, std::map<std::string, double>* layer);

// Remounts the machine (dropping all in-memory state), runs the C-FFS
// checker and appends every problem to `problems`.
Status RemountAndFsck(sim::SimEnv& env, const std::string& label,
                      std::vector<std::string>* problems);
// Appends every cross-layer counter invariant violation.
void CheckInvariants(const stats::MetricsSnapshot& snap,
                     const std::string& label,
                     std::vector<std::string>* problems);

// Drains the machine's TraceRecorder ring once it is half full, counting
// the events; a dropped event is a failed check. No-op without a recorder.
void DrainTrace(sim::SimEnv& env, RoundResult* r, bool force = false);

// --- the paper's small-file phases ----------------------------------------

// A seeded small-file set: `files` files of `file_bytes` bytes over `dirs`
// directories, listed directory by directory (the paper's creation order).
// Per-directory counts and name lengths vary with the seed; file i's
// content id is first_id + i.
struct SmallFileSet {
  std::vector<std::string> dirs;
  std::vector<std::string> paths;
  uint64_t first_id = 0;
  uint32_t file_bytes = 1024;
};
SmallFileSet MakeSmallFileSet(Rng* rng, const std::string& dir_prefix,
                              uint32_t dirs, uint32_t files,
                              uint64_t first_id);

struct SmallFilePhases {
  PhaseWindow create, read, overwrite, remove;
  uint64_t read_phase_read_cmds = 0;
  uint64_t used_blocks_after_create = 0;
  uint64_t bytes_written = 0;  // file data the phases wrote
};

// Paper §4.2 on `env`: create+write every file, read them, overwrite them,
// delete them, in the same order, with a forced write-back ending each
// phase and a cold cache before the next. Every read is verified against
// the seeded content; the overwritten content is verified (outside the
// measured region) before the delete phase. The measured region must be
// running on entry and is running on return.
Status RunSmallFilePhases(sim::SimEnv& env, const SmallFileSet& set,
                          const RoundContext& ctx, MeasuredRegion* region,
                          OpSamples* samples, RoundResult* r,
                          SmallFilePhases* out);

// --- workloads -------------------------------------------------------------

RoundResult RunSmallfile(const RoundContext& ctx);
RoundResult RunAged(const RoundContext& ctx);
RoundResult RunTenants(const RoundContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
