// Buffer cache, dual-indexed by physical and logical identity.
//
// Paper §3: "our file cache is indexed by both disk address, like the
// original UNIX buffer cache, and higher-level identities, like the SunOS
// integrated caching and virtual memory system [Gingell87, Moran87]. C-FFS
// uses physical identities to insert newly-read blocks of a group into the
// cache without back-translating to discover their file/offset identities."
//
// ReadGroup() implements exactly that: one scatter/gather disk command for a
// whole group, with every sibling block inserted under its physical address
// and "an invalid file/offset identity"; the logical identity is bound later
// when some file lookup touches the block.
//
// Buffers are pinned through the RAII BufferRef handle; unpinned buffers are
// evicted in LRU order, writing dirty victims back first. Evicted and
// dropped buffers are recycled, 4 KB array included, so once the cache has
// filled, a hit, a miss or a group read allocates nothing.
#ifndef CFFS_CACHE_BUFFER_CACHE_H_
#define CFFS_CACHE_BUFFER_CACHE_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <span>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/cache/buffer_table.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/util/intrusive_lru.h"
#include "src/util/status.h"

namespace cffs::cache {

// Logical identity: which file (by file-system-assigned id) and which
// block-sized piece of it this buffer holds.
struct LogicalId {
  uint64_t file = 0;
  uint64_t block_index = 0;

  bool operator==(const LogicalId&) const = default;
};

struct LogicalIdHash {
  size_t operator()(const LogicalId& id) const {
    return std::hash<uint64_t>()(id.file * 0x9e3779b97f4a7c15ULL ^
                                 id.block_index);
  }
};

struct BnoHash {
  size_t operator()(uint64_t bno) const { return bno; }
};

// Counter invariants (checked by stats::MetricsSnapshot::CheckInvariants):
// every lookup is either a hit or a miss, so hits + misses == lookups; and
// every staged block is eventually demanded or wasted, so
// readahead_hits + readahead_wasted <= readahead_staged (the remainder is
// still resident, awaiting its first demand access).
struct CacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t logical_hits = 0;
  uint64_t group_reads = 0;       // group fetch commands (ReadGroup/staged)
  uint64_t group_blocks = 0;      // blocks inserted by group fetches
  uint64_t writebacks = 0;        // blocks written by Sync*/eviction
  uint64_t evictions = 0;
  // Readahead accuracy (see io/readahead.h). Staged = inserted ahead of
  // demand; hit = first demand access found it resident; wasted = evicted,
  // invalidated or overwritten before any demand access.
  uint64_t readahead_staged = 0;
  uint64_t readahead_hits = 0;
  uint64_t readahead_wasted = 0;
  void Reset() { *this = CacheStats{}; }
};

class BufferCache;

// Buffers with the same flush unit that are physically adjacent may be
// written with one disk command at flush time. The file systems tag data
// blocks with their write-clustering unit: FFS uses the owning file (within-
// file clustering only, as 4.4BSD did); C-FFS uses the group extent, which
// is what lets a whole group of small files go to disk as a single command.
inline constexpr uint64_t kNoFlushUnit = UINT64_MAX;

class Buffer {
 public:
  uint64_t bno() const { return bno_; }
  uint64_t flush_unit() const { return flush_unit_; }
  std::span<uint8_t> data() { return {data_.get(), blk::kBlockSize}; }
  std::span<const uint8_t> data() const { return {data_.get(), blk::kBlockSize}; }
  bool dirty() const { return dirty_; }
  bool has_logical_id() const { return has_lid_; }
  LogicalId logical_id() const { return lid_; }
  // When this buffer last transitioned clean -> dirty (sim ns); meaningful
  // only while dirty(). The syncer ages dirty buffers off this.
  int64_t dirty_since_ns() const { return dirty_since_ns_; }
  // True for a readahead-staged block that no demand access has touched yet.
  bool staged() const { return staged_; }

 private:
  friend class BufferCache;
  Buffer(uint64_t bno, std::unique_ptr<uint8_t[]> data)
      : bno_(bno), data_(std::move(data)) {}

  uint64_t bno_;
  std::unique_ptr<uint8_t[]> data_;
  LogicalId lid_;
  uint64_t flush_unit_ = kNoFlushUnit;
  int64_t dirty_since_ns_ = 0;
  bool has_lid_ = false;
  bool dirty_ = false;
  bool staged_ = false;
  int pins_ = 0;
  size_t dirty_pos_ = 0;  // index in the cache's dirty set while dirty
  // Links in the cache's LRU list while resident; lru_next_ also chains
  // the free list.
  Buffer* lru_prev_ = nullptr;
  Buffer* lru_next_ = nullptr;
};

// RAII pin on a cached buffer. While a BufferRef is live the buffer cannot
// be evicted. Move-only.
class BufferRef {
 public:
  BufferRef() = default;
  BufferRef(BufferRef&& other) noexcept { *this = std::move(other); }
  BufferRef& operator=(BufferRef&& other) noexcept;
  BufferRef(const BufferRef&) = delete;
  BufferRef& operator=(const BufferRef&) = delete;
  ~BufferRef();

  Buffer* operator->() { return buf_; }
  const Buffer* operator->() const { return buf_; }
  Buffer& operator*() { return *buf_; }
  bool valid() const { return buf_ != nullptr; }
  std::span<uint8_t> data() { return buf_->data(); }
  std::span<const uint8_t> data() const {
    return static_cast<const Buffer*>(buf_)->data();
  }
  void Release();

 private:
  friend class BufferCache;
  BufferRef(BufferCache* cache, Buffer* buf) : cache_(cache), buf_(buf) {}
  BufferCache* cache_ = nullptr;
  Buffer* buf_ = nullptr;
};

class BufferCache {
 public:
  BufferCache(blk::BlockDevice* dev, size_t capacity_blocks);
  ~BufferCache();
  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  blk::BlockDevice* device() { return dev_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return by_bno_.size(); }
  size_t dirty_count() const { return dirty_.size(); }
  CacheStats& stats() { return stats_; }

  // Emits hit/miss/eviction/group-read trace events. nullptr disables.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  // Counts buffer hits against the operation in flight (the work-avoided
  // column of the span attribution). nullptr disables.
  void set_spans(obs::SpanTracker* spans) { spans_ = spans; }

  // Fetch by physical address, reading from disk on a miss.
  Result<BufferRef> Get(uint64_t bno);

  // Fetch by physical address without any disk read: on a miss the buffer
  // is created zero-filled (for freshly allocated blocks that will be fully
  // overwritten).
  Result<BufferRef> GetZero(uint64_t bno);

  // Lookup by physical address; kNotFound if not resident (no I/O).
  Result<BufferRef> Lookup(uint64_t bno);

  // Lookup by logical identity; kNotFound if not resident (no I/O).
  Result<BufferRef> LookupLogical(LogicalId id);

  // Attach a logical identity to a resident buffer (see file comment). An
  // identity names one buffer at a time: a buffer that held `id` before
  // loses it.
  void Bind(BufferRef& ref, LogicalId id);

  // Read `count` blocks starting at start_bno with ONE disk command and
  // insert every block by physical identity. Blocks already resident keep
  // their cached (possibly dirty, newer) contents.
  Status ReadGroup(uint64_t start_bno, uint32_t count);

  // Insert `count` blocks of already-read data (count * kBlockSize bytes,
  // e.g. from an IoEngine read completion) by physical identity. Blocks
  // already resident keep their cached contents, also when an eviction
  // made for an earlier block of the run drops them: their cached contents
  // are copied over the stale read data in `data` first. Inserted blocks
  // other than `demand_bno` are marked staged for readahead accuracy
  // accounting. When count_as_group is set the insertion is counted like a
  // ReadGroup (one group fetch command) in stats().
  Status InsertRun(uint64_t start_bno, uint32_t count, std::span<uint8_t> data,
                   uint64_t demand_bno, bool count_as_group);

  void MarkDirty(BufferRef& ref);

  // Tags the buffer's write-clustering unit (see kNoFlushUnit above).
  void SetFlushUnit(BufferRef& ref, uint64_t unit);

  // Write one dirty block through to disk immediately (synchronous
  // metadata update). No-op if the block is clean or not resident.
  Status SyncBlock(uint64_t bno);

  // Flush every dirty block, scheduler-ordered and run-coalesced.
  // Equivalent to WriteBatch(BuildFlushPlan()) + NoteFlushed(plan).
  Status SyncAll();

  // The write plan covering every dirty resident block: dirty blocks plus
  // clean gap-fillers that bridge small same-flush-unit gaps (so physically
  // near writes coalesce into one disk command), sorted by block number.
  // Shared by SyncAll() and the syncer's engine-submitted flush epochs.
  // Costs O(d log d) in the d dirty blocks plus the gap probes, whatever
  // the number of resident clean blocks (it sorts the dirty set).
  // The WriteOps alias buffer memory: the plan is invalidated by any cache
  // mutation and must be issued (or dropped) before the next operation.
  std::vector<blk::WriteOp> BuildFlushPlan();

  // Mark the dirty blocks covered by an issued plan clean and count the
  // writebacks. Returns how many dirty buffers were cleaned.
  size_t NoteFlushed(const std::vector<blk::WriteOp>& plan);

  // Sim time at which the oldest currently-dirty buffer became dirty, or
  // -1 if nothing is dirty. Drives the syncer's age deadline.
  int64_t oldest_dirty_ns();

  // Drop a resident block (when its disk space is freed). Dirty contents
  // are discarded. The block must not be pinned.
  void Invalidate(uint64_t bno);

  // Drop everything resident. All dirty data must have been synced first
  // (asserts). Used to make benchmark phases cold-cache.
  void InvalidateAll();

  // Simulates power loss: every buffer (dirty or clean) vanishes without
  // reaching the disk. Nothing may be pinned. Returns how many dirty
  // blocks were lost. Used by the crash-consistency harness.
  size_t CrashDropAll();

  // Snapshot of one dirty block: its address and a copy of its contents.
  struct DirtyBlock {
    uint64_t bno = 0;
    std::vector<uint8_t> data;  // kBlockSize bytes
  };

  // Copies of every dirty resident block, sorted by block number. Used by
  // the crash-state enumerator to materialize "these updates reached the
  // disk, those didn't" images without disturbing the cache.
  std::vector<DirtyBlock> DirtyBlocks() const;

  // Copies of the blocks a syncer flush epoch would write (BuildFlushPlan,
  // gap-fillers included), in the device scheduler's service order — i.e.
  // the order the blocks would reach the platter if the epoch's command
  // queue were interrupted mid-flight. Crash-enumerator input for
  // syncer-generated dirty queues.
  std::vector<DirtyBlock> FlushPlanBlocks();

 private:
  Buffer* FindResident(uint64_t bno) const { return by_bno_.Find(bno); }
  // Ensures capacity for one more buffer; evicts LRU unpinned buffers.
  // While a run is inserted, `run` holds its read data (first block
  // run_start), and a victim inside the run has its contents, newer than
  // the read, copied over its slot.
  Status EvictIfNeeded(std::span<uint8_t> run = {}, uint64_t run_start = 0);
  // The insert loop of ReadGroup and InsertRun: inserts the blocks of
  // `data` that are not resident, tagging them with the group's flush unit
  // when `group`, and marking all but demand_bno staged when `stage`.
  Status InsertBlocks(uint64_t start_bno, uint32_t count,
                      std::span<uint8_t> data, bool group, bool stage,
                      uint64_t demand_bno);
  // A resident buffer for `bno` with every field reset, taken from the
  // free list when it has one. Its data is unspecified (a recycled buffer
  // keeps its last contents); the caller fills all of it.
  Buffer* InsertNew(uint64_t bno);
  // Takes a resident buffer out of both indexes and the LRU and puts it on
  // the free list. Its contents are dropped.
  void Remove(Buffer* buf);
  // Drops every resident buffer (counting staged ones as wasted) and
  // empties both indexes, the LRU and the dirty tracking.
  void RemoveAll();
  // Puts an unlinked buffer on the free list; its array is poisoned for
  // AddressSanitizer until InsertNew takes it back.
  void PushFree(Buffer* buf);
  void Touch(Buffer* buf) { lru_.MoveToFront(buf); }
  void Unpin(Buffer* buf);
  BufferRef Pin(Buffer* buf);
  void SetDirty(Buffer* buf, bool dirty);
  // Counts the hit/miss in stats_ and emits the matching trace instant.
  void NoteLookup(uint64_t bno, bool hit);
  // Demand access touched this buffer: clear staged, count the hit.
  void NoteDemand(Buffer* buf);
  // Buffer is leaving the cache (or being zero-overwritten) while still
  // staged: its prefetched contents were never used.
  void NoteStagedDropped(Buffer* buf);

  friend class BufferRef;

  blk::BlockDevice* dev_;
  size_t capacity_;
  CacheStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::SpanTracker* spans_ = nullptr;

  // Every buffer the cache ever created; each is resident or free.
  std::vector<std::unique_ptr<Buffer>> pool_;
  Buffer* free_ = nullptr;  // singly linked through lru_next_
  // The dual index: every resident buffer by block number, and every
  // bound one by its logical identity.
  BufferTable<uint64_t, BnoHash> by_bno_;
  BufferTable<LogicalId, LogicalIdHash> by_lid_;
  IntrusiveLru<Buffer, &Buffer::lru_prev_, &Buffer::lru_next_> lru_;
  // ReadGroup's landing area for the device read, reused across calls.
  std::vector<uint8_t> group_scratch_;
  // Clean->dirty transitions in order, drained lazily by oldest_dirty_ns():
  // an entry is stale if its buffer is gone, clean, or re-dirtied later.
  std::deque<std::pair<uint64_t, int64_t>> dirty_fifo_;
  // Every dirty resident buffer, unordered; each knows its slot
  // (dirty_pos_), so SetDirty adds and removes in O(1) without allocating.
  // SetDirty is its only writer besides RemoveAll, so it always equals the
  // set of dirty resident buffers; the flush paths sort it by block number
  // instead of walking the whole cache.
  std::vector<Buffer*> dirty_;
};

}  // namespace cffs::cache

#endif  // CFFS_CACHE_BUFFER_CACHE_H_
