// Group-granular readahead with a sequential ramp.
//
// Two prefetch shapes, both staged through the IoEngine and inserted into
// the buffer cache by physical identity (paper §3: group blocks enter the
// cache "with an invalid file/offset identity" and are claimed later):
//
//   - StageGroup: C-FFS stage-on-miss. A data-block miss inside a live
//     group fetches the WHOLE group extent with one disk command — the
//     paper's group read, routed through the engine instead of issued
//     inline by the file system.
//   - StageRun: sequential ramp for large files. A miss at the next
//     expected file block doubles the cluster window (min_window up to
//     max_window, FreeBSD cluster_read-style); any non-sequential miss
//     resets it. min_window defaults to the legacy inline cluster size, so
//     with the ramp a sequential scan is never worse than the old code —
//     it just grows past 64 KB once a streak is established.
//
// Accuracy is accounted in the cache, which owns block lifetime: every
// staged block is eventually a hit (first demand access found it) or
// wasted (evicted/invalidated untouched) — see CacheStats.
#ifndef CFFS_IO_READAHEAD_H_
#define CFFS_IO_READAHEAD_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/io/io_engine.h"
#include "src/io/io_stats.h"
#include "src/obs/trace.h"
#include "src/util/status.h"

namespace cffs::io {

struct ReadaheadOptions {
  bool ramp = true;          // sequential window doubling on streaks
  uint32_t min_window = 16;  // initial cluster window (blocks; legacy 64 KB)
  uint32_t max_window = 64;  // ramp ceiling (blocks)
};

class Readahead {
 public:
  Readahead(cache::BufferCache* cache, IoEngine* engine,
            ReadaheadOptions options);

  ReadaheadStats& stats() { return stats_; }
  const ReadaheadOptions& options() const { return options_; }
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  // Cluster-window cap for a miss at file block `idx`, updating the ramp
  // state: a miss at the stream's expected next block doubles the window,
  // anything else resets it to min_window.
  uint32_t WindowFor(uint64_t file, uint64_t idx);

  // Record the run actually fetched for the miss at `idx`, so the next
  // miss at idx + run is recognized as sequential.
  void NoteRun(uint64_t file, uint64_t idx, uint32_t run);

  // Fetch a whole group extent with one command and stage it; the demanded
  // block is inserted un-staged (it is about to be accessed).
  Status StageGroup(uint64_t extent_start, uint32_t count, uint64_t demand_bno);

  // Fetch a physically contiguous run starting at the demanded block.
  Status StageRun(uint64_t start_bno, uint32_t count, uint64_t demand_bno);

  // Forget all per-file stream state (remount, crash, cold cache).
  void Reset() { streams_.clear(); }

 private:
  struct Stream {
    uint64_t next_idx = 0;  // file block a sequential miss would hit next
    uint32_t window = 0;
  };

  Status Stage(uint64_t start_bno, uint32_t count, uint64_t demand_bno,
               bool group);

  cache::BufferCache* cache_;
  IoEngine* engine_;
  ReadaheadOptions options_;
  ReadaheadStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  std::unordered_map<uint64_t, Stream> streams_;
  // Landing area for a stage's device read, reused across stages.
  std::vector<uint8_t> scratch_;
};

}  // namespace cffs::io

#endif  // CFFS_IO_READAHEAD_H_
