#include "src/cache/buffer_cache.h"

#include <algorithm>
#include <cstring>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace cffs::cache {

BufferRef& BufferRef::operator=(BufferRef&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = other.cache_;
    buf_ = other.buf_;
    other.cache_ = nullptr;
    other.buf_ = nullptr;
  }
  return *this;
}

BufferRef::~BufferRef() { Release(); }

void BufferRef::Release() {
  if (buf_ != nullptr) {
    cache_->Unpin(buf_);
    buf_ = nullptr;
    cache_ = nullptr;
  }
}

BufferCache::BufferCache(blk::BlockDevice* dev, size_t capacity_blocks)
    : dev_(dev),
      capacity_(capacity_blocks),
      by_bno_(capacity_blocks),
      by_lid_(capacity_blocks) {
  assert(capacity_ >= 8);
}

BufferCache::~BufferCache() {
  for (Buffer* buf = free_; buf != nullptr; buf = buf->lru_next_) {
    ASAN_UNPOISON_MEMORY_REGION(buf->data_.get(), blk::kBlockSize);
  }
}

Buffer* BufferCache::InsertNew(uint64_t bno) {
  Buffer* buf = free_;
  if (buf != nullptr) {
    free_ = buf->lru_next_;
    ASAN_UNPOISON_MEMORY_REGION(buf->data_.get(), blk::kBlockSize);
    // Rebuilding from the constructor resets every field to its default.
    *buf = Buffer(bno, std::move(buf->data_));
  } else {
    pool_.push_back(std::unique_ptr<Buffer>(
        new Buffer(bno, std::make_unique<uint8_t[]>(blk::kBlockSize))));
    buf = pool_.back().get();
  }
  by_bno_.Put(bno, buf);
  lru_.PushFront(buf);
  return buf;
}

void BufferCache::PushFree(Buffer* buf) {
  assert(buf->pins_ == 0);
  buf->lru_next_ = free_;
  free_ = buf;
  ASAN_POISON_MEMORY_REGION(buf->data_.get(), blk::kBlockSize);
}

void BufferCache::Remove(Buffer* buf) {
  if (buf->has_lid_) by_lid_.EraseIf(buf->lid_, buf);
  by_bno_.EraseIf(buf->bno_, buf);
  lru_.Remove(buf);
  PushFree(buf);
}

void BufferCache::RemoveAll() {
  for (Buffer* buf = lru_.front(); buf != nullptr;) {
    Buffer* older = buf->lru_next_;
    NoteStagedDropped(buf);
    PushFree(buf);
    buf = older;
  }
  lru_.Clear();
  by_bno_.Clear();
  by_lid_.Clear();
  dirty_fifo_.clear();
  dirty_.clear();
}

BufferRef BufferCache::Pin(Buffer* buf) {
  ++buf->pins_;
  Touch(buf);
  return BufferRef(this, buf);
}

void BufferCache::Unpin(Buffer* buf) {
  assert(buf->pins_ > 0);
  --buf->pins_;
}

void BufferCache::NoteLookup(uint64_t bno, bool hit) {
  ++stats_.lookups;
  if (hit) {
    ++stats_.hits;
    if (spans_) spans_->CountHit();
  } else {
    ++stats_.misses;
  }
  if (trace_) {
    obs::TraceEvent e;
    e.kind = hit ? obs::EventKind::kCacheHit : obs::EventKind::kCacheMiss;
    e.ts_ns = dev_->disk()->now().nanos();
    e.a = bno;
    trace_->Record(e);
  }
}

void BufferCache::SetDirty(Buffer* buf, bool dirty) {
  if (buf->dirty_ == dirty) return;
  buf->dirty_ = dirty;
  if (dirty) {
    buf->dirty_since_ns_ = dev_->disk()->now().nanos();
    dirty_fifo_.emplace_back(buf->bno_, buf->dirty_since_ns_);
    buf->dirty_pos_ = dirty_.size();
    dirty_.push_back(buf);
  } else {
    Buffer* last = dirty_.back();
    last->dirty_pos_ = buf->dirty_pos_;
    dirty_[buf->dirty_pos_] = last;
    dirty_.pop_back();
  }
}

void BufferCache::NoteDemand(Buffer* buf) {
  if (!buf->staged_) return;
  buf->staged_ = false;
  ++stats_.readahead_hits;
}

void BufferCache::NoteStagedDropped(Buffer* buf) {
  if (!buf->staged_) return;
  buf->staged_ = false;
  ++stats_.readahead_wasted;
}

int64_t BufferCache::oldest_dirty_ns() {
  while (!dirty_fifo_.empty()) {
    const auto& [bno, since] = dirty_fifo_.front();
    Buffer* buf = FindResident(bno);
    // The entry is live only if that buffer is still dirty from the same
    // transition; otherwise it was cleaned (possibly re-dirtied later, in
    // which case a younger entry exists further back).
    if (buf != nullptr && buf->dirty_ && buf->dirty_since_ns_ == since) {
      return since;
    }
    dirty_fifo_.pop_front();
  }
  return -1;
}

Status BufferCache::EvictIfNeeded(std::span<uint8_t> run,
                                  uint64_t run_start) {
  // High-watermark write-back (the role of the update daemon): when a
  // quarter of the cache is dirty and we need space, flush everything in
  // one scheduled, clustered batch instead of dribbling single-block
  // eviction writes.
  if (size() >= capacity_ && dirty_count() >= capacity_ / 4) {
    RETURN_IF_ERROR(SyncAll());
  }
  while (size() >= capacity_) {
    // Walk from the LRU end for an unpinned victim.
    Buffer* victim = lru_.back();
    while (victim != nullptr && victim->pins_ != 0) {
      victim = lru_.Newer(victim);
    }
    if (victim == nullptr) {
      // Everything pinned: allow temporary over-capacity rather than fail.
      return OkStatus();
    }
    if (trace_) {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kCacheEvict;
      e.ts_ns = dev_->disk()->now().nanos();
      e.a = victim->bno_;
      e.flag = victim->dirty_;
      trace_->Record(e);
    }
    if (victim->dirty_) {
      RETURN_IF_ERROR(dev_->WriteBlock(victim->bno_, victim->data()));
      ++stats_.writebacks;
      SetDirty(victim, false);
    }
    // A run being inserted was read before this victim's newer contents
    // reached the disk; keep them for when the run reaches this block.
    if (victim->bno_ >= run_start &&
        victim->bno_ - run_start < run.size() / blk::kBlockSize) {
      std::memcpy(run.data() + (victim->bno_ - run_start) * blk::kBlockSize,
                  victim->data_.get(), blk::kBlockSize);
    }
    NoteStagedDropped(victim);
    ++stats_.evictions;
    Remove(victim);
  }
  return OkStatus();
}

Result<BufferRef> BufferCache::Get(uint64_t bno) {
  if (bno >= dev_->block_count()) {
    return OutOfRange("cache get past device end: block " +
                      std::to_string(bno));
  }
  if (Buffer* buf = FindResident(bno)) {
    NoteLookup(bno, /*hit=*/true);
    NoteDemand(buf);
    return Pin(buf);
  }
  NoteLookup(bno, /*hit=*/false);
  RETURN_IF_ERROR(EvictIfNeeded());
  Buffer* buf = InsertNew(bno);
  Status s = dev_->ReadBlock(bno, buf->data());
  if (!s.ok()) {
    Remove(buf);
    return s;
  }
  return Pin(buf);
}

Result<BufferRef> BufferCache::GetZero(uint64_t bno) {
  if (bno >= dev_->block_count()) {
    return OutOfRange("cache getzero past device end: block " +
                      std::to_string(bno));
  }
  if (Buffer* buf = FindResident(bno)) {
    NoteLookup(bno, /*hit=*/true);
    // The caller is (re)initializing this block: any resident contents are
    // stale (e.g. inserted by a group read while the block was still
    // free) and must not leak into the fresh block — zero unconditionally.
    // A staged buffer's prefetched contents were therefore never used.
    NoteStagedDropped(buf);
    std::memset(buf->data().data(), 0, blk::kBlockSize);
    return Pin(buf);
  }
  NoteLookup(bno, /*hit=*/false);
  RETURN_IF_ERROR(EvictIfNeeded());
  Buffer* buf = InsertNew(bno);
  std::memset(buf->data().data(), 0, blk::kBlockSize);
  return Pin(buf);
}

Result<BufferRef> BufferCache::Lookup(uint64_t bno) {
  if (Buffer* buf = FindResident(bno)) {
    NoteLookup(bno, /*hit=*/true);
    NoteDemand(buf);
    return Pin(buf);
  }
  NoteLookup(bno, /*hit=*/false);
  return NotFound("block not resident");
}

Result<BufferRef> BufferCache::LookupLogical(LogicalId id) {
  Buffer* buf = by_lid_.Find(id);
  if (buf == nullptr) return NotFound("logical id not resident");
  ++stats_.logical_hits;
  return Pin(buf);
}

void BufferCache::Bind(BufferRef& ref, LogicalId id) {
  Buffer* buf = ref.buf_;
  assert(buf != nullptr);
  if (buf->has_lid_) {
    if (buf->lid_ == id) return;
    by_lid_.EraseIf(buf->lid_, buf);
  }
  buf->lid_ = id;
  buf->has_lid_ = true;
  if (Buffer* old = by_lid_.Put(id, buf)) old->has_lid_ = false;
}

Status BufferCache::ReadGroup(uint64_t start_bno, uint32_t count) {
  if (count == 0) return InvalidArgument("empty group read");
  const size_t bytes = static_cast<size_t>(count) * blk::kBlockSize;
  if (group_scratch_.size() < bytes) group_scratch_.resize(bytes);
  const std::span<uint8_t> raw(group_scratch_.data(), bytes);
  if (trace_) {
    obs::TraceEvent e;
    e.kind = obs::EventKind::kGroupRead;
    e.ts_ns = dev_->disk()->now().nanos();
    e.a = start_bno;
    e.b = count;
    trace_->Record(e);
  }
  RETURN_IF_ERROR(dev_->ReadRun(start_bno, count, raw));
  ++stats_.group_reads;
  return InsertBlocks(start_bno, count, raw, /*group=*/true,
                      /*stage=*/false, /*demand_bno=*/0);
}

void BufferCache::MarkDirty(BufferRef& ref) {
  assert(ref.buf_ != nullptr);
  SetDirty(ref.buf_, true);
}

void BufferCache::SetFlushUnit(BufferRef& ref, uint64_t unit) {
  assert(ref.buf_ != nullptr);
  ref.buf_->flush_unit_ = unit;
}

Status BufferCache::SyncBlock(uint64_t bno) {
  Buffer* buf = FindResident(bno);
  if (buf == nullptr || !buf->dirty_) return OkStatus();
  RETURN_IF_ERROR(dev_->WriteBlock(bno, buf->data()));
  ++stats_.writebacks;
  SetDirty(buf, false);
  return OkStatus();
}

std::vector<blk::WriteOp> BufferCache::BuildFlushPlan() {
  std::vector<blk::WriteOp> ops;
  if (dirty_.empty()) return ops;
  ops.reserve(dirty_.size());
  for (const Buffer* buf : dirty_) {
    ops.push_back({buf->bno_, buf->data_.get(), buf->flush_unit_});
  }
  std::sort(ops.begin(), ops.end(),
            [](const blk::WriteOp& a, const blk::WriteOp& b) {
              return a.bno < b.bno;
            });

  // Group write units go to disk whole: when two dirty blocks of the same
  // unit have a small gap between them and every gap block is resident
  // (clean), rewrite the gap blocks too so the unit stays one command.
  const size_t dirty_end = ops.size();
  std::vector<blk::WriteOp> fills;
  for (size_t i = 0; i + 1 < dirty_end; ++i) {
    if (ops[i].unit == kNoFlushUnit || ops[i].unit != ops[i + 1].unit ||
        ops[i + 1].bno - ops[i].bno > 64) {
      continue;
    }
    const size_t mark = fills.size();
    for (uint64_t b = ops[i].bno + 1; b < ops[i + 1].bno; ++b) {
      Buffer* gap = FindResident(b);
      if (gap == nullptr) {
        fills.resize(mark);
        break;
      }
      // Strictly between two consecutive dirty blocks, so clean.
      assert(!gap->dirty_);
      fills.push_back({b, gap->data().data(), ops[i].unit});
    }
  }
  if (fills.empty()) return ops;
  // Both runs ascend, and every filler lies strictly inside a gap between
  // dirty blocks, so one merge yields the block-number order.
  ops.insert(ops.end(), fills.begin(), fills.end());
  std::inplace_merge(ops.begin(), ops.begin() + dirty_end, ops.end(),
                     [](const blk::WriteOp& a, const blk::WriteOp& b) {
                       return a.bno < b.bno;
                     });
  return ops;
}

size_t BufferCache::NoteFlushed(const std::vector<blk::WriteOp>& plan) {
  size_t cleaned = 0;
  for (const blk::WriteOp& op : plan) {
    Buffer* buf = FindResident(op.bno);
    if (buf == nullptr || !buf->dirty_) continue;  // clean gap-filler
    ++stats_.writebacks;
    SetDirty(buf, false);
    ++cleaned;
  }
  return cleaned;
}

Status BufferCache::SyncAll() {
  std::vector<blk::WriteOp> ops = BuildFlushPlan();
  if (ops.empty()) return OkStatus();
  RETURN_IF_ERROR(dev_->WriteBatch(ops));
  NoteFlushed(ops);
  return OkStatus();
}

std::vector<BufferCache::DirtyBlock> BufferCache::FlushPlanBlocks() {
  std::vector<blk::WriteOp> plan = BuildFlushPlan();
  std::vector<disk::PendingRequest> reqs;
  reqs.reserve(plan.size());
  for (const blk::WriteOp& op : plan) {
    reqs.push_back({op.bno * blk::kSectorsPerBlock, blk::kSectorsPerBlock});
  }
  std::vector<size_t> order =
      disk::ScheduleOrder(reqs, dev_->head_lba(), dev_->policy());
  std::vector<DirtyBlock> out;
  out.reserve(plan.size());
  for (size_t idx : order) {
    DirtyBlock d;
    d.bno = plan[idx].bno;
    d.data.assign(plan[idx].data, plan[idx].data + blk::kBlockSize);
    out.push_back(std::move(d));
  }
  return out;
}

Status BufferCache::InsertRun(uint64_t start_bno, uint32_t count,
                              std::span<uint8_t> data, uint64_t demand_bno,
                              bool count_as_group) {
  if (count == 0) return InvalidArgument("empty run insert");
  if (data.size() < static_cast<size_t>(count) * blk::kBlockSize) {
    return InvalidArgument("run insert data too short");
  }
  if (count_as_group) ++stats_.group_reads;
  return InsertBlocks(start_bno, count,
                      data.first(static_cast<size_t>(count) * blk::kBlockSize),
                      count_as_group, /*stage=*/true, demand_bno);
}

Status BufferCache::InsertBlocks(uint64_t start_bno, uint32_t count,
                                 std::span<uint8_t> data, bool group,
                                 bool stage, uint64_t demand_bno) {
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t bno = start_bno + i;
    if (FindResident(bno) != nullptr) {
      continue;  // resident copy is as new or newer (possibly dirty)
    }
    RETURN_IF_ERROR(EvictIfNeeded(data, start_bno));
    Buffer* buf = InsertNew(bno);
    std::memcpy(buf->data().data(),
                data.data() + static_cast<size_t>(i) * blk::kBlockSize,
                blk::kBlockSize);
    if (group) {
      // Blocks fetched as a group also flush as that group.
      buf->flush_unit_ = start_bno;
      ++stats_.group_blocks;
    }
    if (stage && bno != demand_bno) {
      buf->staged_ = true;
      ++stats_.readahead_staged;
    }
  }
  return OkStatus();
}

void BufferCache::Invalidate(uint64_t bno) {
  Buffer* buf = FindResident(bno);
  if (buf == nullptr) return;
  assert(buf->pins_ == 0 && "cannot invalidate a pinned buffer");
  NoteStagedDropped(buf);
  if (buf->dirty_) SetDirty(buf, false);
  Remove(buf);
}

size_t BufferCache::CrashDropAll() {
  const size_t lost = dirty_count();
  RemoveAll();
  return lost;
}

std::vector<BufferCache::DirtyBlock> BufferCache::DirtyBlocks() const {
  std::vector<DirtyBlock> out;
  out.reserve(dirty_.size());
  for (const Buffer* buf : dirty_) {
    DirtyBlock d;
    d.bno = buf->bno_;
    d.data.assign(buf->data_.get(), buf->data_.get() + blk::kBlockSize);
    out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(),
            [](const DirtyBlock& a, const DirtyBlock& b) {
              return a.bno < b.bno;
            });
  return out;
}

void BufferCache::InvalidateAll() {
  assert(dirty_.empty() && "sync before invalidating the whole cache");
  RemoveAll();
}

}  // namespace cffs::cache
