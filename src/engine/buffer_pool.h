// BufferPool: main-memory page cache with an optional SSD second tier —
// the RBPEX resilient buffer pool extension (paper §3.3).
//
// Both Compute nodes and Page Servers use this class; only the *policy*
// differs (paper §4.6): Compute nodes run it sparse (hot pages only),
// Page Servers run it covering (ssd_pages >= partition size, so nothing
// is ever evicted from the SSD tier).
//
// Key behaviours reproduced:
//  * two-tier LRU: memory evicts to local SSD, SSD evicts to nothing
//    (the page's home is a Page Server / XStore — Compute nodes never
//    write pages back; the log is the only write path).
//  * every departure from the memory tier reports (page, pageLSN) to the
//    eviction callback — that is how the Primary maintains the
//    evicted-LSN hash map that makes GetPage@LSN safe (§4.4).
//  * RBPEX recoverability: the SSD index survives Crash() and holds each
//    slot's pageLSN, so Recover() is one pass over the index, reading no
//    slot: it drops pages newer than the durable log end, and promotion
//    verifies every image it reads — a warm cache survives short
//    failures at once, which is the point of §3.3.
//  * misses go to a PageFetcher (the owner's GetPage@LSN client); in-
//    flight fetches are deduplicated.
//  * prefetch pipeline: Prefetch() issues fire-and-forget fetches that
//    install into a probationary *cold* LRU segment, so scan readahead
//    can never flush the hot working set; StartWarmup() promotes the
//    recovered SSD tier's MRU prefix back into memory after a failover
//    (§3.3's warm-cache-survives-restart claim, made operational).

#pragma once

#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/cpu.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/block_device.h"
#include "storage/page.h"

namespace socrates {
namespace engine {

/// Source of truth for pages this node does not have cached.
class PageFetcher {
 public:
  virtual ~PageFetcher() = default;
  virtual sim::Task<Result<storage::Page>> FetchPage(PageId page_id) = 0;
};

struct BufferPoolOptions {
  size_t mem_pages = 1024;
  size_t ssd_pages = 0;  // 0 disables the SSD tier
  bool ssd_recoverable = true;  // RBPEX; false = plain BPE lost on crash
};

struct BufferPoolStats {
  uint64_t mem_hits = 0;
  uint64_t ssd_hits = 0;
  uint64_t misses = 0;
  uint64_t mem_evictions = 0;
  uint64_t ssd_evictions = 0;
  // Data-page (B-tree leaf) accesses only: upper index levels are almost
  // always resident, so the leaf-only rate is the harsher cache metric.
  uint64_t leaf_hits = 0;
  uint64_t leaf_misses = 0;
  // PageRef::EnsureChecksum outcomes: recomputes (frame dirtied since the
  // last checksum) vs skips (frame still clean — the CRC pass avoided).
  uint64_t checksum_recomputes = 0;
  uint64_t checksum_skips = 0;
  // Prefetch pipeline. `issued` counts speculative loads started (and
  // range-readahead installs); `hits` counts the first demand access that
  // found a prefetched frame; `wasted` counts prefetched frames evicted
  // before any demand access touched them. Prefetch promotions do NOT
  // count toward mem_hits/ssd_hits/misses — those track demand accesses.
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;
  // Eviction passes that spilled more than one victim with overlapped
  // SSD writes.
  uint64_t spill_batches = 0;

  uint64_t accesses() const { return mem_hits + ssd_hits + misses; }
  /// Local hit rate (memory + SSD), over all page accesses.
  double LocalHitRate() const {
    uint64_t a = accesses();
    return a == 0 ? 0.0
                  : static_cast<double>(mem_hits + ssd_hits) / a;
  }
  /// Hit rate over data (leaf) pages only.
  double LeafHitRate() const {
    uint64_t a = leaf_hits + leaf_misses;
    return a == 0 ? 0.0 : static_cast<double>(leaf_hits) / a;
  }
};

class BufferPool;

/// Pin handle; the frame cannot be evicted while referenced.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& o) noexcept;
  PageRef& operator=(PageRef&& o) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef();

  storage::Page* page() const;
  storage::Page* operator->() const { return page(); }
  bool valid() const { return frame_ != nullptr; }

  /// Mark the frame dirty (checkpointing on Page Servers scans these).
  /// Also invalidates the frame's cached checksum.
  void MarkDirty();

  /// Bring the in-frame checksum up to date, recomputing only if the
  /// frame was dirtied since the last recompute. Serving a clean frame
  /// repeatedly (the GetPage@LSN hot path) skips the CRC pass.
  void EnsureChecksum();

  void Release();

 private:
  friend class BufferPool;
  struct Frame;
  PageRef(BufferPool* pool, Frame* frame);

  BufferPool* pool_ = nullptr;
  Frame* frame_ = nullptr;
};

class BufferPool {
 public:
  using EvictionCallback = std::function<void(PageId, Lsn)>;

  BufferPool(sim::Simulator& sim, const BufferPoolOptions& options,
             PageFetcher* fetcher, uint64_t seed = 1);
  ~BufferPool();

  /// Called whenever a page leaves the memory tier (with its pageLSN at
  /// that moment). The Primary uses this to maintain the evicted-LSN map.
  void set_eviction_callback(EvictionCallback cb) {
    eviction_cb_ = std::move(cb);
  }

  /// Get a page, fetching through the PageFetcher on a local miss.
  sim::Task<Result<PageRef>> GetPage(PageId page_id);

  /// Get a page only if locally cached (memory or SSD); NotFound
  /// otherwise. Secondaries use this for their ignore-uncached-pages
  /// log-apply policy (§4.5).
  sim::Task<Result<PageRef>> GetIfCached(PageId page_id);

  /// Create a frame for a brand-new page (formatting path). Fails with
  /// InvalidArgument if the page is already cached.
  Result<PageRef> NewPage(PageId page_id);

  /// Fire-and-forget readahead: start loading each page that is not
  /// already resident or in flight (SSD promotion or remote fetch),
  /// installing it unpinned into the *cold* LRU segment. Demand fetches
  /// of the same page dedup against these via the in-flight map, and
  /// concurrent remote prefetches coalesce into RBIO batch frames
  /// downstream. Failures are dropped — prefetch is best-effort.
  void Prefetch(const std::vector<PageId>& pages);

  /// Background warm-cache promotion (§3.3): walk the SSD tier's MRU
  /// prefix and promote up to memory capacity into memory via the
  /// prefetch machinery, in small windows so demand traffic is not
  /// starved. Stops early if memory fills with demand-loaded pages.
  void StartWarmup();
  bool warmup_done() const { return warmup_done_; }
  uint64_t warmup_promoted() const { return warmup_promoted_; }

  /// Drop a page from all tiers without reporting an eviction (PITR /
  /// partition reassignment housekeeping). A slot whose spill write is
  /// still in flight returns to the free list when that write lands.
  void Purge(PageId page_id);

  /// True if present in memory or the SSD tier.
  bool Contains(PageId page_id) const;
  /// True if resident in the memory tier (either LRU segment).
  bool InMemory(PageId page_id) const { return frames_.count(page_id) > 0; }

  /// Page ids of all dirty pages (memory-tier dirty frames plus SSD-tier
  /// images evicted dirty and not currently resident). Served from a
  /// maintained dirty index — O(dirty set), not O(resident frames) — so
  /// a checkpoint round's scan cost no longer grows with pool size.
  /// Checkpointing clears dirty bits via ClearDirtyIfUnchanged once the
  /// page is safely in XStore.
  std::vector<PageId> DirtyPages() const;

  /// Brute-force recomputation of DirtyPages() by scanning both tiers
  /// (the pre-index implementation). Kept as a crosscheck: tests assert
  /// the incremental index and the full scan always agree.
  std::vector<PageId> DirtyPagesByScan() const;

  /// Size of the maintained dirty index. May transiently over-count by
  /// pages whose dirty frame is mid-spill (extracted from memory, SSD
  /// write still in flight) — good enough for pacing decisions and
  /// metrics; DirtyPages() filters exactly.
  size_t dirty_count() const { return dirty_index_.size(); }
  uint64_t dirty_bytes() const { return dirty_index_.size() * kPageSize; }

  /// Monotonic capture generation for checkpointing: the generation
  /// stamped by the page's most recent MarkDirty (across both tiers);
  /// 0 if clean. A checkpointer captures the page image and its
  /// generation in the same synchronous stretch, then clears with
  /// ClearDirtyIfUnchanged — a page re-dirtied by concurrent log apply
  /// after the capture keeps its dirty bit (no lost update).
  uint64_t DirtyGen(PageId page_id) const;

  /// Unconditional clear (both tiers).
  void ClearDirty(PageId page_id);

  /// Clear the dirty bit only where the page was not re-dirtied after
  /// `capture_gen` (per tier: a bit stamped with a newer generation is
  /// left set).
  void ClearDirtyIfUnchanged(PageId page_id, uint64_t capture_gen);

  /// Simulate a process/VM crash: the memory tier is lost. If the SSD
  /// tier is not recoverable, its index is lost too (plain BPE). In-
  /// flight background tasks (eviction spills, prefetches, warmup) are
  /// fenced by an epoch bump: they complete their device I/O but stop
  /// touching pool state. A spill still writing a slot the index keeps
  /// keeps its in-flight barrier, so no read of that page can overtake
  /// the write and promote the slot's previous image.
  void Crash();

  /// RBPEX recovery: purge the index entries whose pageLSN exceeds
  /// `durable_end_lsn` (they reflect log that never hardened). Reads no
  /// slot: the index kept each pageLSN as its spill wrote it, and every
  /// promotion verifies checksum and page id. Returns the number of
  /// pages kept.
  size_t Recover(Lsn durable_end_lsn);

  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats(); }
  size_t mem_resident() const { return frames_.size(); }
  size_t mem_cold_resident() const { return mem_cold_.size(); }
  size_t ssd_resident() const { return ssd_meta_.size(); }
  /// The RBPEX device (null without an SSD tier). Detached spills and
  /// prefetches share it, so it can outlive the pool.
  std::shared_ptr<const storage::SimBlockDevice> ssd_device() const {
    return ssd_;
  }

 private:
  friend class PageRef;
  using Frame = PageRef::Frame;

  // Detached background tasks (eviction, prefetch, warmup) hold this
  // token instead of trusting a raw BufferPool*: destruction clears
  // `alive`, Crash() bumps `epoch`, and every task re-checks after each
  // suspension point before touching pool state. The SSD device is held
  // by shared_ptr so a spill suspended in a Write outlives the pool.
  struct LifeToken {
    bool alive = true;
    uint64_t epoch = 0;
  };
  using LifePtr = std::shared_ptr<LifeToken>;
  using SsdPtr = std::shared_ptr<storage::SimBlockDevice>;

  sim::Task<Result<PageRef>> GetPageInternal(PageId page_id,
                                             bool fetch_on_miss);

  // Install a page into the memory tier (evicting as needed) and pin it.
  // `checksum_valid` is true only for images that just passed
  // VerifyChecksum (SSD promotion).
  sim::Task<Result<PageRef>> InstallAndPin(PageId page_id,
                                           storage::Page page, bool dirty,
                                           uint64_t dirty_gen,
                                           bool checksum_valid);

  // Install an unpinned frame into the cold LRU segment (prefetch path).
  void InstallCold(storage::Page page, bool dirty, uint64_t dirty_gen,
                   bool checksum_valid);

  // Kick the background evictor if the memory tier is over capacity.
  void ScheduleEviction();

  // Background drain: evict victim batches until within capacity.
  sim::Task<> EvictionLoop(LifePtr life, uint64_t epoch, SsdPtr ssd);

  // Pop up to `want` unpinned frames off the LRU tails (cold segment
  // first). Pinned frames encountered rotate to the segment front —
  // pinned means in active use — which keeps the tail unpinned-dense so
  // repeated passes never re-walk a pinned prefix (the old reverse scan
  // was O(tail) per victim under a pinned-heavy pool).
  std::vector<std::unique_ptr<Frame>> CollectVictims(size_t want);

  // Spill one evicted frame to SSD under its in-flight barrier.
  sim::Task<> SpillOne(std::unique_ptr<Frame> frame,
                       std::shared_ptr<sim::Event> barrier, LifePtr life,
                       uint64_t epoch, SsdPtr ssd);

  // Write a checksummed page image into the SSD tier (allocating /
  // recycling slots). The device keeps `page` by reference.
  sim::Task<> SpillToSsd(PageId page_id, const storage::Page& page,
                         LifePtr life, SsdPtr ssd);

  // Load one prefetched page (SSD promotion or remote fetch) and install
  // it cold; `barrier` is this page's in-flight event.
  sim::Task<> PrefetchOne(PageId page_id,
                          std::shared_ptr<sim::Event> barrier, LifePtr life,
                          uint64_t epoch, SsdPtr ssd);

  sim::Task<> WarmupTask(std::vector<PageId> ids, LifePtr life,
                         uint64_t epoch);

  void TouchMem(Frame* f);
  void TouchSsd(PageId page_id);
  void ReportEviction(PageId page_id, Lsn lsn);

  struct SsdMeta {
    uint64_t slot = 0;
    Lsn page_lsn = kInvalidLsn;
    bool dirty = false;  // dirty when evicted from memory, not yet checkpointed
    uint64_t dirty_gen = 0;  // capture generation carried from the frame
    int readers = 0;  // in-flight promotion reads pin the slot
    int writers = 0;  // in-flight spill writes pin the slot
    std::list<PageId>::iterator lru_it;
  };

  sim::Simulator& sim_;
  BufferPoolOptions opts_;
  PageFetcher* fetcher_;
  EvictionCallback eviction_cb_;

  std::unordered_map<PageId, std::unique_ptr<Frame>> frames_;
  // Pinned frames orphaned by Crash(); freed once their pins drop.
  std::vector<std::unique_ptr<Frame>> zombies_;
  // Two-segment LRU: demand-loaded frames live in the hot segment;
  // prefetched frames start in the cold segment and are promoted only on
  // their second demand touch. Eviction drains the cold tail first, so a
  // scan's readahead stream can only displace itself, never the hot set.
  std::list<PageId> mem_lru_;   // hot segment, front = most recent
  std::list<PageId> mem_cold_;  // cold (probationary) segment

  SsdPtr ssd_;
  std::unordered_map<PageId, SsdMeta> ssd_meta_;
  std::list<PageId> ssd_lru_;
  std::vector<uint64_t> ssd_free_slots_;
  uint64_t ssd_next_slot_ = 0;
  // Slots purged while spill writes were still in flight -> writes left;
  // each returns to the free list when its last write lands.
  std::unordered_map<uint64_t, int> ssd_unlanded_;

  // In-flight fetch deduplication. The hot miss paths recycle both the
  // completion events (event_pool_) and the map's nodes (spare_node_),
  // so a pool miss registers and clears its inflight entry without
  // touching the heap in the steady state.
  std::unordered_map<PageId, std::shared_ptr<sim::Event>> inflight_;
  std::vector<std::shared_ptr<sim::Event>> event_pool_;
  std::unordered_map<PageId, std::shared_ptr<sim::Event>>::node_type
      spare_node_;

  std::shared_ptr<sim::Event> AcquireEvent();
  void ReleaseEvent(std::shared_ptr<sim::Event> event);
  void InflightInsert(PageId page_id, std::shared_ptr<sim::Event> event);
  void InflightErase(PageId page_id);
  // Incremental dirty index: superset of the ids DirtyPages() returns
  // (a page mid-spill, or resident clean over a dirty SSD image, stays
  // tracked until it is definitively clean). Mutable: DirtyPages()
  // lazily prunes entries that became clean. kInvalidPageId never enters.
  mutable std::unordered_set<PageId> dirty_index_;
  // Generation source for MarkDirty capture stamps.
  uint64_t dirty_gen_counter_ = 0;
  bool evicting_ = false;
  bool warmup_done_ = true;
  uint64_t warmup_promoted_ = 0;

  LifePtr life_;
  BufferPoolStats stats_;
};

}  // namespace engine
}  // namespace socrates
