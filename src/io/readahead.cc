#include "src/io/readahead.h"

#include <algorithm>
#include <span>

namespace cffs::io {

Readahead::Readahead(cache::BufferCache* cache, IoEngine* engine,
                     ReadaheadOptions options)
    : cache_(cache), engine_(engine), options_(options) {}

uint32_t Readahead::WindowFor(uint64_t file, uint64_t idx) {
  if (!options_.ramp) return options_.min_window;
  if (streams_.size() > 256) streams_.clear();  // bound per-file state
  auto [it, inserted] = streams_.try_emplace(file);
  Stream& s = it->second;
  if (inserted) {
    s.window = options_.min_window;
  } else if (idx == s.next_idx) {
    s.window = std::min(s.window * 2, options_.max_window);
  } else {
    if (s.window != options_.min_window) ++stats_.ramp_resets;
    s.window = options_.min_window;
  }
  return s.window;
}

void Readahead::NoteRun(uint64_t file, uint64_t idx, uint32_t run) {
  if (!options_.ramp) return;
  streams_[file].next_idx = idx + run;
}

Status Readahead::StageGroup(uint64_t extent_start, uint32_t count,
                             uint64_t demand_bno) {
  ++stats_.group_stages;
  return Stage(extent_start, count, demand_bno, /*group=*/true);
}

Status Readahead::StageRun(uint64_t start_bno, uint32_t count,
                           uint64_t demand_bno) {
  ++stats_.ramp_stages;
  return Stage(start_bno, count, demand_bno, /*group=*/false);
}

Status Readahead::Stage(uint64_t start_bno, uint32_t count,
                        uint64_t demand_bno, bool group) {
  if (count == 0) return InvalidArgument("empty readahead stage");
  stats_.blocks_requested += count;
  const size_t bytes = static_cast<size_t>(count) * blk::kBlockSize;
  if (scratch_.size() < bytes) scratch_.resize(bytes);
  const std::span<uint8_t> raw(scratch_.data(), bytes);
  engine_->SubmitRead(start_bno, count, raw);
  RETURN_IF_ERROR(engine_->Drain());
  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kReadaheadStage;
    e.ts_ns = engine_->device()->disk()->now().nanos();
    e.a = start_bno;
    e.b = count;
    e.flag = group;
    trace_->Record(e);
  }
  // Inserted like a group read (shared flush unit, group counters) so the
  // engine-staged path is stat-for-stat comparable with the legacy inline
  // ReadGroup it replaces.
  return cache_->InsertRun(start_bno, count, raw, demand_bno,
                           /*count_as_group=*/true);
}

}  // namespace cffs::io
