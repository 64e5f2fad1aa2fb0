#include "engine/buffer_pool.h"

#include <algorithm>
#include <cassert>

namespace socrates {
namespace engine {

struct PageRef::Frame {
  PageId page_id = kInvalidPageId;
  storage::Page page;
  int pins = 0;
  bool dirty = false;
  // Capture generation of the most recent MarkDirty (checkpoint
  // lost-update guard; see BufferPool::DirtyGen).
  uint64_t dirty_gen = 0;
  // True while the in-frame checksum matches the payload. Set by
  // EnsureChecksum and by promotion from the SSD tier (the image has just
  // passed VerifyChecksum); any MarkDirty clears it. Fetched pages start
  // false: they may be legitimately mutated after the client-side verify
  // (the Secondary's pending-fetch drain).
  bool checksum_valid = false;
  // Cold (probationary) LRU segment membership; prefetched frames start
  // cold and are promoted to the hot segment on their second demand
  // touch. `prefetched` is cleared by the first demand touch — a frame
  // evicted with it still set was speculation that never paid off.
  bool cold = false;
  bool prefetched = false;
  std::list<PageId>::iterator lru_it;
};

PageRef::PageRef(BufferPool* pool, Frame* frame)
    : pool_(pool), frame_(frame) {
  frame_->pins++;
}

PageRef::PageRef(PageRef&& o) noexcept
    : pool_(std::exchange(o.pool_, nullptr)),
      frame_(std::exchange(o.frame_, nullptr)) {}

PageRef& PageRef::operator=(PageRef&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = std::exchange(o.pool_, nullptr);
    frame_ = std::exchange(o.frame_, nullptr);
  }
  return *this;
}

PageRef::~PageRef() { Release(); }

void PageRef::Release() {
  if (frame_ != nullptr) {
    assert(frame_->pins > 0);
    frame_->pins--;
    frame_ = nullptr;
    pool_ = nullptr;
  }
}

storage::Page* PageRef::page() const { return &frame_->page; }

void PageRef::MarkDirty() {
  frame_->dirty = true;
  frame_->dirty_gen = ++pool_->dirty_gen_counter_;
  pool_->dirty_index_.insert(frame_->page_id);
  frame_->checksum_valid = false;
}

void PageRef::EnsureChecksum() {
  if (frame_->checksum_valid) {
    pool_->stats_.checksum_skips++;
    return;
  }
  frame_->page.UpdateChecksum();
  frame_->checksum_valid = true;
  pool_->stats_.checksum_recomputes++;
}

BufferPool::BufferPool(sim::Simulator& sim,
                       const BufferPoolOptions& options,
                       PageFetcher* fetcher, uint64_t seed)
    : sim_(sim),
      opts_(options),
      fetcher_(fetcher),
      life_(std::make_shared<LifeToken>()) {
  if (opts_.ssd_pages > 0) {
    ssd_ = std::make_shared<storage::SimBlockDevice>(
        sim, sim::DeviceProfile::LocalSsd(), seed);
  }
}

BufferPool::~BufferPool() {
  life_->alive = false;
  // A detached spill or prefetch can still hold the SSD device; drop its
  // page images now so a frame that never resumes pins none of them.
  if (ssd_ != nullptr) ssd_->Discard(0, UINT64_MAX);
}

sim::Task<Result<PageRef>> BufferPool::GetPage(PageId page_id) {
  return GetPageInternal(page_id, /*fetch_on_miss=*/true);
}

sim::Task<Result<PageRef>> BufferPool::GetIfCached(PageId page_id) {
  return GetPageInternal(page_id, /*fetch_on_miss=*/false);
}

std::shared_ptr<sim::Event> BufferPool::AcquireEvent() {
  if (!event_pool_.empty()) {
    std::shared_ptr<sim::Event> event = std::move(event_pool_.back());
    event_pool_.pop_back();
    return event;
  }
  return std::make_shared<sim::Event>(sim_);
}

void BufferPool::ReleaseEvent(std::shared_ptr<sim::Event> event) {
  // Pool only when no waiter still holds a reference (the sim is
  // single-threaded, so use_count is exact); a pooled event is re-armed
  // here so AcquireEvent hands out ready-to-wait events.
  if (event.use_count() == 1 && event_pool_.size() < 8) {
    event->Reset();
    event_pool_.push_back(std::move(event));
  }
}

void BufferPool::InflightInsert(PageId page_id,
                                std::shared_ptr<sim::Event> event) {
  if (spare_node_) {
    spare_node_.key() = page_id;
    spare_node_.mapped() = std::move(event);
    inflight_.insert(std::move(spare_node_));
  } else {
    inflight_.emplace(page_id, std::move(event));
  }
}

void BufferPool::InflightErase(PageId page_id) {
  auto node = inflight_.extract(page_id);
  if (node && !spare_node_) {
    // Drop the stashed node's event reference — otherwise it would keep
    // the event's use_count above 1 and defeat ReleaseEvent's pooling.
    node.mapped().reset();
    spare_node_ = std::move(node);
  }
}

sim::Task<Result<PageRef>> BufferPool::GetPageInternal(PageId page_id,
                                                       bool fetch_on_miss) {
  while (true) {
    auto it = frames_.find(page_id);
    if (it != frames_.end()) {
      Frame* f = it->second.get();
      stats_.mem_hits++;
      if (f->page.type() == storage::PageType::kBTreeLeaf) {
        stats_.leaf_hits++;
      }
      TouchMem(f);
      PageRef ref(this, f);
      // Eviction happens in the background: a hit on a cached page must
      // not suspend (a mid-read suspension would let concurrent commits
      // mutate the tree under the reader and force fence-key retries).
      ScheduleEviction();
      co_return std::move(ref);
    }
    auto inflight = inflight_.find(page_id);
    if (inflight != inflight_.end()) {
      // Someone is already loading this page; wait and re-check.
      auto event = inflight->second;
      co_await event->Wait();
      continue;
    }

    auto meta = ssd_meta_.find(page_id);
    if (meta != ssd_meta_.end()) {
      // RBPEX hit: read the image from local SSD and promote to memory.
      // Pin the slot so concurrent SSD-tier eviction cannot recycle it
      // for another page mid-read.
      auto event = AcquireEvent();
      InflightInsert(page_id, event);
      meta->second.readers++;
      uint64_t slot = meta->second.slot;
      // The promoted frame shares the SSD image until its first write
      // detaches it (copy-on-write), so promotion copies no bytes.
      storage::Page page;
      const uint64_t epoch = life_->epoch;
      Status s = co_await ssd_->ReadPage(slot * kPageSize, &page);
      auto meta2 = ssd_meta_.find(page_id);
      if (meta2 != ssd_meta_.end()) meta2->second.readers--;
      InflightErase(page_id);
      event->Set();
      ReleaseEvent(std::move(event));
      // A crash meanwhile may have purged the image (speculative state):
      // look the page up again.
      if (life_->epoch != epoch) continue;
      if (!s.ok()) co_return Result<PageRef>(s);
      if (Status cs = page.VerifyChecksum(); !cs.ok()) {
        co_return Result<PageRef>(cs);
      }
      if (page.page_id() != page_id) {
        co_return Result<PageRef>(Status::Corruption(
            "SSD slot returned the wrong page (slot recycled)"));
      }
      stats_.ssd_hits++;
      if (page.type() == storage::PageType::kBTreeLeaf) {
        stats_.leaf_hits++;
      }
      TouchSsd(page_id);
      // Keep the SSD copy (inclusive tiers); a newer image is spilled on
      // the next memory eviction. The promoted frame keeps its dirty
      // state (and capture generation) if a checkpoint has not persisted
      // it yet.
      bool dirty = false;
      uint64_t gen = 0;
      auto m2 = ssd_meta_.find(page_id);
      if (m2 != ssd_meta_.end()) {
        dirty = m2->second.dirty;
        gen = m2->second.dirty_gen;
      }
      co_return co_await InstallAndPin(page_id, std::move(page), dirty,
                                       gen, /*checksum_valid=*/true);
    }

    if (!fetch_on_miss) {
      co_return Result<PageRef>(Status::NotFound("page not cached"));
    }
    if (fetcher_ == nullptr) {
      co_return Result<PageRef>(
          Status::NotFound("page miss and no fetcher"));
    }

    // Per-page dedup composes with RBIO batching downstream: same-page
    // concurrent misses collapse here (one FetchPage), while
    // distinct-page misses suspend on the fetcher in the same tick and
    // get packed into one kGetPageBatch frame by the RBIO client.
    auto event = AcquireEvent();
    InflightInsert(page_id, event);
    Result<storage::Page> fetched = co_await fetcher_->FetchPage(page_id);
    InflightErase(page_id);
    event->Set();
    ReleaseEvent(std::move(event));
    if (!fetched.ok()) co_return Result<PageRef>(fetched.status());
    stats_.misses++;
    if (fetched->type() == storage::PageType::kBTreeLeaf) {
      stats_.leaf_misses++;
    }
    co_return co_await InstallAndPin(page_id, std::move(fetched).value(),
                                     /*dirty=*/false, /*dirty_gen=*/0,
                                     /*checksum_valid=*/false);
  }
}

Result<PageRef> BufferPool::NewPage(PageId page_id) {
  if (Contains(page_id)) {
    return Result<PageRef>(
        Status::InvalidArgument("page already cached"));
  }
  auto frame = std::make_unique<Frame>();
  frame->page_id = page_id;
  mem_lru_.push_front(page_id);
  frame->lru_it = mem_lru_.begin();
  Frame* raw = frame.get();
  frames_.emplace(page_id, std::move(frame));
  PageRef ref(this, raw);
  ScheduleEviction();
  return ref;
}

void BufferPool::InstallCold(storage::Page page, bool dirty,
                             uint64_t dirty_gen, bool checksum_valid) {
  PageId page_id = page.page_id();
  auto frame = std::make_unique<Frame>();
  frame->page_id = page_id;
  frame->page = std::move(page);
  frame->dirty = dirty;
  frame->dirty_gen = dirty_gen;
  frame->checksum_valid = checksum_valid;
  frame->cold = true;
  frame->prefetched = true;
  if (dirty) dirty_index_.insert(page_id);
  mem_cold_.push_front(page_id);
  frame->lru_it = mem_cold_.begin();
  frames_.emplace(page_id, std::move(frame));
}

void BufferPool::Prefetch(const std::vector<PageId>& pages) {
  for (PageId id : pages) {
    if (id == kInvalidPageId) continue;
    if (frames_.count(id) > 0 || inflight_.count(id) > 0) continue;
    if (ssd_meta_.count(id) == 0 && fetcher_ == nullptr) continue;
    stats_.prefetch_issued++;
    // Register the in-flight barrier synchronously: later ids in this
    // call and concurrent demand fetches dedup against it immediately.
    std::shared_ptr<sim::Event> barrier = AcquireEvent();
    InflightInsert(id, barrier);
    sim::Spawn(sim_,
               PrefetchOne(id, std::move(barrier), life_, life_->epoch,
                           ssd_));
  }
}

sim::Task<> BufferPool::PrefetchOne(PageId page_id,
                                    std::shared_ptr<sim::Event> barrier,
                                    LifePtr life, uint64_t epoch,
                                    SsdPtr ssd) {
  auto meta = ssd_meta_.find(page_id);
  if (meta != ssd_meta_.end() && ssd != nullptr) {
    // SSD promotion, installed cold without a pin.
    meta->second.readers++;
    uint64_t slot = meta->second.slot;
    storage::Page page;
    Status s = co_await ssd->ReadPage(slot * kPageSize, &page);
    if (!life->alive) {
      barrier->Set();
      co_return;
    }
    auto m2 = ssd_meta_.find(page_id);
    if (m2 != ssd_meta_.end() && m2->second.slot == slot) {
      m2->second.readers--;
    }
    if (life->epoch == epoch && s.ok() && page.VerifyChecksum().ok() &&
        page.page_id() == page_id && frames_.count(page_id) == 0) {
      bool dirty = m2 != ssd_meta_.end() ? m2->second.dirty : false;
      uint64_t gen = m2 != ssd_meta_.end() ? m2->second.dirty_gen : 0;
      TouchSsd(page_id);
      InstallCold(std::move(page), dirty, gen, /*checksum_valid=*/true);
    }
  } else if (fetcher_ != nullptr) {
    Result<storage::Page> fetched = co_await fetcher_->FetchPage(page_id);
    if (!life->alive) {
      barrier->Set();
      co_return;
    }
    if (life->epoch == epoch && fetched.ok() &&
        frames_.count(page_id) == 0) {
      InstallCold(std::move(fetched).value(), /*dirty=*/false,
                  /*dirty_gen=*/0, /*checksum_valid=*/false);
    }
  }
  if (life->alive && life->epoch == epoch) {
    auto inf = inflight_.find(page_id);
    if (inf != inflight_.end() && inf->second == barrier) {
      InflightErase(page_id);
    }
    ScheduleEviction();
  }
  barrier->Set();
  if (life->alive) ReleaseEvent(std::move(barrier));
}

void BufferPool::StartWarmup() {
  if (ssd_ == nullptr || ssd_meta_.empty()) {
    warmup_done_ = true;
    return;
  }
  const size_t max_pages = opts_.mem_pages;
  // Snapshot the MRU prefix now; the order reflects pre-crash heat.
  std::vector<PageId> ids;
  ids.reserve(std::min(max_pages, ssd_lru_.size()));
  for (PageId id : ssd_lru_) {
    if (ids.size() >= max_pages) break;
    ids.push_back(id);
  }
  warmup_done_ = false;
  warmup_promoted_ = 0;
  sim::Spawn(sim_, WarmupTask(std::move(ids), life_, life_->epoch));
}

sim::Task<> BufferPool::WarmupTask(std::vector<PageId> ids, LifePtr life,
                                   uint64_t epoch) {
  // Promote in small windows so warmup shares the SSD with demand
  // traffic instead of monopolizing it.
  constexpr size_t kWindow = 16;
  for (size_t i = 0; i < ids.size(); i += kWindow) {
    if (!life->alive || life->epoch != epoch) co_return;
    if (frames_.size() + kWindow > opts_.mem_pages) break;
    size_t end = std::min(i + kWindow, ids.size());
    std::vector<PageId> win(ids.begin() + i, ids.begin() + end);
    Prefetch(win);
    for (PageId id : win) {
      auto it = inflight_.find(id);
      if (it == inflight_.end()) continue;
      auto event = it->second;
      co_await event->Wait();
      if (!life->alive || life->epoch != epoch) co_return;
    }
    for (PageId id : win) {
      if (frames_.count(id) > 0) warmup_promoted_++;
    }
  }
  warmup_done_ = true;
}

void BufferPool::Purge(PageId page_id) {
  auto it = frames_.find(page_id);
  if (it != frames_.end()) {
    assert(it->second->pins == 0);
    (it->second->cold ? mem_cold_ : mem_lru_).erase(it->second->lru_it);
    frames_.erase(it);
  }
  auto meta = ssd_meta_.find(page_id);
  if (meta != ssd_meta_.end()) {
    ssd_lru_.erase(meta->second.lru_it);
    // A spill given the slot now could land before the one in flight,
    // which would then overwrite it.
    if (meta->second.writers > 0) {
      ssd_unlanded_[meta->second.slot] = meta->second.writers;
    } else {
      ssd_free_slots_.push_back(meta->second.slot);
    }
    ssd_meta_.erase(meta);
  }
  dirty_index_.erase(page_id);
}

bool BufferPool::Contains(PageId page_id) const {
  return frames_.count(page_id) > 0 || ssd_meta_.count(page_id) > 0;
}

std::vector<PageId> BufferPool::DirtyPages() const {
  // Walk the maintained index (O(dirty set)) instead of every resident
  // frame. Entries that turned out clean are pruned lazily — except
  // pages with an in-flight barrier (a dirty frame mid-spill is in
  // neither tier yet; its entry must survive until the spill lands and
  // re-marks the SSD image dirty).
  std::vector<PageId> out;
  out.reserve(dirty_index_.size());
  std::vector<PageId> prune;
  for (PageId id : dirty_index_) {
    auto fit = frames_.find(id);
    bool frame_dirty = fit != frames_.end() && fit->second->dirty;
    auto mit = ssd_meta_.find(id);
    bool meta_dirty = mit != ssd_meta_.end() && mit->second.dirty;
    if (frame_dirty || (meta_dirty && fit == frames_.end())) {
      out.push_back(id);
      continue;
    }
    // A resident-but-clean frame over a dirty SSD image stays tracked
    // (not reported — the memory image is the newer truth — but the
    // dirtiness re-surfaces if the clean frame is evicted first).
    if (!meta_dirty && inflight_.count(id) == 0) prune.push_back(id);
  }
  for (PageId id : prune) dirty_index_.erase(id);
  return out;
}

std::vector<PageId> BufferPool::DirtyPagesByScan() const {
  std::vector<PageId> out;
  for (const auto& [id, f] : frames_) {
    if (f->dirty) out.push_back(id);
  }
  for (const auto& [id, m] : ssd_meta_) {
    if (m.dirty && frames_.count(id) == 0) out.push_back(id);
  }
  return out;
}

uint64_t BufferPool::DirtyGen(PageId page_id) const {
  uint64_t gen = 0;
  auto fit = frames_.find(page_id);
  if (fit != frames_.end() && fit->second->dirty) {
    gen = std::max(gen, fit->second->dirty_gen);
  }
  auto mit = ssd_meta_.find(page_id);
  if (mit != ssd_meta_.end() && mit->second.dirty) {
    gen = std::max(gen, mit->second.dirty_gen);
  }
  return gen;
}

void BufferPool::ClearDirty(PageId page_id) {
  ClearDirtyIfUnchanged(page_id, UINT64_MAX);
}

void BufferPool::ClearDirtyIfUnchanged(PageId page_id,
                                       uint64_t capture_gen) {
  auto fit = frames_.find(page_id);
  if (fit != frames_.end() && fit->second->dirty &&
      fit->second->dirty_gen <= capture_gen) {
    fit->second->dirty = false;
  }
  auto mit = ssd_meta_.find(page_id);
  if (mit != ssd_meta_.end() && mit->second.dirty &&
      mit->second.dirty_gen <= capture_gen) {
    mit->second.dirty = false;
  }
  bool still_dirty = (fit != frames_.end() && fit->second->dirty) ||
                     (mit != ssd_meta_.end() && mit->second.dirty);
  if (!still_dirty && inflight_.count(page_id) == 0) {
    dirty_index_.erase(page_id);
  }
}

void BufferPool::Crash() {
  // Frames still pinned by in-flight coroutines (e.g. a redo apply that
  // was suspended mid-I/O when the process "died") must stay alive until
  // unpinned; their contents are discarded state, but freeing them under
  // a live PageRef would be a use-after-free. Park them as zombies.
  for (auto& [id, frame] : frames_) {
    if (frame->pins > 0) zombies_.push_back(std::move(frame));
  }
  frames_.clear();
  mem_lru_.clear();
  mem_cold_.clear();
  // Fence detached background tasks (eviction spills, prefetches,
  // warmup): they observe the epoch change at their next suspension
  // point and stop touching pool state.
  life_->epoch++;
  evicting_ = false;
  warmup_done_ = true;
  // Sweep zombies from previous crashes that have since been released.
  std::erase_if(zombies_,
                [](const std::unique_ptr<Frame>& f) { return f->pins == 0; });
  if (!opts_.ssd_recoverable) {
    // Plain buffer-pool extension: the SSD index does not survive, but a
    // slot still being written stays taken until its write lands.
    while (!ssd_lru_.empty()) Purge(ssd_lru_.back());
  }
  // In-flight loads die with the process. A spill still writing a slot
  // that the index keeps holds its barrier until the write lands: a read
  // issued now could overtake the write and promote the slot's previous
  // image.
  std::erase_if(inflight_, [&](const auto& entry) {
    auto meta = ssd_meta_.find(entry.first);
    return meta == ssd_meta_.end() || meta->second.writers == 0;
  });
  // Rebuild the dirty index: memory-tier dirtiness died with the
  // frames (log replay from the restart LSN re-creates it); what
  // survives is the recoverable SSD tier's dirty bits.
  dirty_index_.clear();
  for (const auto& [id, m] : ssd_meta_) {
    if (m.dirty) dirty_index_.insert(id);
  }
}

size_t BufferPool::Recover(Lsn durable_end_lsn) {
  // Drop the images that reflect log which never hardened (speculative
  // state, §4.3). SpillToSsd records each pageLSN in the index before
  // its write, so no slot is read here.
  std::vector<PageId> speculative;
  for (const auto& [id, meta] : ssd_meta_) {
    if (meta.page_lsn > durable_end_lsn) speculative.push_back(id);
  }
  for (PageId id : speculative) Purge(id);
  return ssd_meta_.size();
}

sim::Task<Result<PageRef>> BufferPool::InstallAndPin(PageId page_id,
                                                     storage::Page page,
                                                     bool dirty,
                                                     uint64_t dirty_gen,
                                                     bool checksum_valid) {
  // A concurrent installer may have won the race while we were reading.
  auto it = frames_.find(page_id);
  if (it == frames_.end()) {
    auto frame = std::make_unique<Frame>();
    frame->page_id = page_id;
    frame->page = std::move(page);
    frame->dirty = dirty;
    frame->dirty_gen = dirty_gen;
    frame->checksum_valid = checksum_valid;
    if (dirty) dirty_index_.insert(page_id);
    mem_lru_.push_front(page_id);
    frame->lru_it = mem_lru_.begin();
    it = frames_.emplace(page_id, std::move(frame)).first;
  }
  PageRef ref(this, it->second.get());
  ScheduleEviction();
  co_return std::move(ref);
}

void BufferPool::ScheduleEviction() {
  if (evicting_ || frames_.size() <= opts_.mem_pages) return;
  evicting_ = true;
  sim::Spawn(sim_, EvictionLoop(life_, life_->epoch, ssd_));
}

auto BufferPool::CollectVictims(size_t want)
    -> std::vector<std::unique_ptr<Frame>> {
  std::vector<std::unique_ptr<Frame>> out;
  for (std::list<PageId>* seg : {&mem_cold_, &mem_lru_}) {
    // Each tail element is examined at most once per pass: extracted as
    // a victim, or rotated to the segment front if pinned.
    size_t scanned = 0;
    const size_t limit = seg->size();
    while (out.size() < want && scanned < limit && !seg->empty()) {
      scanned++;
      PageId id = seg->back();
      auto fit = frames_.find(id);
      assert(fit != frames_.end());
      Frame* f = fit->second.get();
      if (f->pins > 0) {
        seg->splice(seg->begin(), *seg, std::prev(seg->end()));
        continue;
      }
      seg->pop_back();
      out.push_back(std::move(fit->second));
      frames_.erase(fit);
    }
    if (out.size() >= want) break;
  }
  return out;
}

// Max victims spilled per eviction pass; their SSD writes overlap.
constexpr size_t kSpillBatchPages = 8;

sim::Task<> BufferPool::EvictionLoop(LifePtr life, uint64_t epoch,
                                     SsdPtr ssd) {
  while (life->alive && life->epoch == epoch &&
         frames_.size() > opts_.mem_pages) {
    size_t want = std::min(kSpillBatchPages, frames_.size() - opts_.mem_pages);
    std::vector<std::unique_ptr<Frame>> victims = CollectVictims(want);
    if (victims.empty()) break;  // everything pinned: transient overflow
    stats_.mem_evictions += victims.size();
    for (const auto& f : victims) {
      if (f->prefetched) stats_.prefetch_wasted++;
    }
    if (ssd == nullptr) {
      for (const auto& f : victims) {
        ReportEviction(f->page_id, f->page.page_lsn());
      }
      continue;
    }
    if (victims.size() > 1) stats_.spill_batches++;
    // Block readers of each victim until its spill lands: otherwise a
    // concurrent GetPage would promote the *previous* (stale) SSD image
    // while the fresh one is still in flight — lost updates. The writes
    // themselves overlap across the batch.
    std::vector<sim::Task<>> spills;
    spills.reserve(victims.size());
    for (auto& f : victims) {
      auto barrier = std::make_shared<sim::Event>(sim_);
      inflight_.emplace(f->page_id, barrier);
      spills.push_back(
          SpillOne(std::move(f), std::move(barrier), life, epoch, ssd));
    }
    co_await sim::Gather(sim_, std::move(spills));
  }
  if (life->alive && life->epoch == epoch) evicting_ = false;
}

sim::Task<> BufferPool::SpillOne(std::unique_ptr<Frame> frame,
                                 std::shared_ptr<sim::Event> barrier,
                                 LifePtr life, uint64_t epoch, SsdPtr ssd) {
  PageId page_id = frame->page_id;
  // Stamp in place only when the frame changed since its last checksum:
  // a clean frame promoted from SSD goes back by reference, with no copy
  // and no CRC pass.
  if (!frame->checksum_valid) frame->page.UpdateChecksum();
  co_await SpillToSsd(page_id, frame->page, life, ssd);
  if (life->alive && life->epoch == epoch) {
    if (frame->dirty) {
      auto meta = ssd_meta_.find(page_id);
      if (meta != ssd_meta_.end()) {
        meta->second.dirty = true;
        meta->second.dirty_gen =
            std::max(meta->second.dirty_gen, frame->dirty_gen);
      }
    }
    // The page has left memory: if its SSD image is dirty (from this
    // spill or an earlier one masked by a clean resident frame), keep
    // it visible to the checkpointer.
    auto meta2 = ssd_meta_.find(page_id);
    if (meta2 != ssd_meta_.end() && meta2->second.dirty) {
      dirty_index_.insert(page_id);
    }
  }
  // The barrier may have outlived a crash (see Crash()).
  if (life->alive) {
    auto inf = inflight_.find(page_id);
    if (inf != inflight_.end() && inf->second == barrier) {
      inflight_.erase(inf);
    }
  }
  barrier->Set();
}

sim::Task<> BufferPool::SpillToSsd(PageId page_id,
                                   const storage::Page& page, LifePtr life,
                                   SsdPtr ssd) {
  uint64_t slot;
  auto meta = ssd_meta_.find(page_id);
  if (meta != ssd_meta_.end()) {
    slot = meta->second.slot;
    TouchSsd(page_id);
  } else {
    if (!ssd_free_slots_.empty()) {
      slot = ssd_free_slots_.back();
      ssd_free_slots_.pop_back();
    } else if (ssd_next_slot_ < opts_.ssd_pages) {
      slot = ssd_next_slot_++;
    } else {
      // SSD tier full: evict its LRU page — that page now leaves the
      // node entirely, so report it for the evicted-LSN map. Skip
      // entries with in-flight promotion reads or spill writes (their
      // slot is pinned; recycling it mid-I/O would corrupt the image).
      PageId ssd_victim = kInvalidPageId;
      for (auto rit = ssd_lru_.rbegin(); rit != ssd_lru_.rend(); ++rit) {
        auto cand = ssd_meta_.find(*rit);
        if (cand != ssd_meta_.end() && cand->second.readers == 0 &&
            cand->second.writers == 0) {
          ssd_victim = *rit;
          break;
        }
      }
      if (ssd_victim == kInvalidPageId) {
        // Every SSD entry is being read or written: allow transient
        // overflow by growing into a fresh slot.
        slot = ssd_next_slot_++;
      } else {
        auto vmeta = ssd_meta_.find(ssd_victim);
        slot = vmeta->second.slot;
        Lsn vlsn = vmeta->second.page_lsn;
        ssd_lru_.erase(vmeta->second.lru_it);
        ssd_meta_.erase(vmeta);
        // The victim left the node entirely; drop its dirty-index entry
        // unless a dirty frame for it is (still) resident.
        auto vfit = frames_.find(ssd_victim);
        if (vfit == frames_.end() || !vfit->second->dirty) {
          dirty_index_.erase(ssd_victim);
        }
        stats_.ssd_evictions++;
        ReportEviction(ssd_victim, vlsn);
      }
    }
    ssd_lru_.push_front(page_id);
    SsdMeta m;
    m.slot = slot;
    m.page_lsn = page.page_lsn();
    m.lru_it = ssd_lru_.begin();
    ssd_meta_.emplace(page_id, m);
  }
  // Pin the slot for the duration of the write so concurrent batched
  // spills cannot recycle it out from under this I/O.
  ssd_meta_[page_id].page_lsn = page.page_lsn();
  ssd_meta_[page_id].writers++;
  co_await ssd->WritePage(slot * kPageSize, page);
  if (!life->alive) {
    // The pool died while this write was in flight: nobody will read
    // the slot again.
    ssd->Discard(slot * kPageSize, kPageSize);
    co_return;
  }
  // The SSD index survives Crash() (RBPEX), so release the slot pin as
  // long as the pool object itself is alive — even across an epoch bump.
  auto m2 = ssd_meta_.find(page_id);
  if (m2 != ssd_meta_.end() && m2->second.slot == slot) {
    m2->second.writers--;
  } else if (auto u = ssd_unlanded_.find(slot);
             u != ssd_unlanded_.end() && --u->second == 0) {
    // Purged mid-write: the slot is free once its last write lands.
    ssd_unlanded_.erase(u);
    ssd_free_slots_.push_back(slot);
  }
}

void BufferPool::TouchMem(Frame* f) {
  // splice() relinks the existing node — no allocation on the hit path.
  if (!f->cold) {
    mem_lru_.splice(mem_lru_.begin(), mem_lru_, f->lru_it);
    f->lru_it = mem_lru_.begin();
    return;
  }
  if (f->prefetched) {
    // First demand touch of a prefetched frame: the speculation paid
    // off, but the frame stays probationary so a one-pass scan stream
    // can only displace itself, never the hot set.
    f->prefetched = false;
    stats_.prefetch_hits++;
    mem_cold_.splice(mem_cold_.begin(), mem_cold_, f->lru_it);
    f->lru_it = mem_cold_.begin();
    return;
  }
  // Second demand touch: genuine reuse, promote to the hot segment.
  f->cold = false;
  mem_lru_.splice(mem_lru_.begin(), mem_cold_, f->lru_it);
  f->lru_it = mem_lru_.begin();
}

void BufferPool::TouchSsd(PageId page_id) {
  auto meta = ssd_meta_.find(page_id);
  if (meta == ssd_meta_.end()) return;
  ssd_lru_.splice(ssd_lru_.begin(), ssd_lru_, meta->second.lru_it);
  meta->second.lru_it = ssd_lru_.begin();
}

void BufferPool::ReportEviction(PageId page_id, Lsn lsn) {
  if (eviction_cb_) eviction_cb_(page_id, lsn);
}

}  // namespace engine
}  // namespace socrates
