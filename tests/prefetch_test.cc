// Prefetch-pipeline correctness: dedup against in-flight demand fetches,
// the eviction in-flight barrier (a prefetch must never resurrect a stale
// RBPEX image while the fresh spill is still in the air), scan resistance
// of the cold LRU segment, wasted-prefetch accounting, and warm-cache
// promotion after Crash()+Recover().

#include <gtest/gtest.h>

#include "engine/btree_page.h"
#include "engine/buffer_pool.h"

namespace socrates {
namespace engine {
namespace {

using sim::Simulator;
using sim::Spawn;
using sim::Task;

// Fetcher serving freshly formatted pages stamped with their id; tracks
// how many times each page was fetched.
class FreshFetcher : public PageFetcher {
 public:
  explicit FreshFetcher(Simulator& sim) : sim_(sim) {}

  Task<Result<storage::Page>> FetchPage(PageId page_id) override {
    co_await sim::Delay(sim_, 250);
    fetches_++;
    storage::Page p;
    BTreePage::Format(&p, page_id, 0, kMinKey, kMaxKey, kInvalidPageId);
    p.set_page_lsn(1);
    p.UpdateChecksum();
    co_return p;
  }

  int fetches_ = 0;

 private:
  Simulator& sim_;
};

TEST(PrefetchTest, DedupsAgainstInflightDemandFetch) {
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPoolOptions opts;
  opts.mem_pages = 16;
  BufferPool pool(sim, opts, &fetcher);

  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, FreshFetcher& f,
                bool* done) -> Task<> {
    // Demand fetch in flight first, prefetch second: the prefetch must
    // fold into the existing in-flight entry (no second FetchPage).
    bool demand_done = false;
    Spawn(s, [](BufferPool& p, bool* dd) -> Task<> {
      Result<PageRef> ref = co_await p.GetPage(5);
      EXPECT_TRUE(ref.ok());
      *dd = true;
    }(p, &demand_done));
    co_await sim::Yield(s);  // let the demand fetch register in-flight
    p.Prefetch({5});
    EXPECT_EQ(p.stats().prefetch_issued, 0u);  // deduped, not issued
    co_await sim::Delay(s, 1000);
    EXPECT_TRUE(demand_done);
    EXPECT_EQ(f.fetches_, 1);

    // Prefetch in flight first, demand second: one fetch total, and the
    // demand access scores a prefetch hit.
    p.Prefetch({7});
    EXPECT_EQ(p.stats().prefetch_issued, 1u);
    Result<PageRef> ref = co_await p.GetPage(7);
    EXPECT_TRUE(ref.ok());
    EXPECT_EQ(ref->page()->page_id(), 7u);
    EXPECT_EQ(f.fetches_, 2);
    EXPECT_EQ(p.stats().prefetch_hits, 1u);
    // Same page again: still one fetch (now a plain mem hit).
    ref = co_await p.GetPage(7);
    EXPECT_TRUE(ref.ok());
    EXPECT_EQ(f.fetches_, 2);
    *done = true;
  }(sim, pool, fetcher, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(PrefetchTest, InstallsColdAndPromotesOnSecondTouch) {
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPoolOptions opts;
  opts.mem_pages = 16;
  BufferPool pool(sim, opts, &fetcher);

  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, bool* done) -> Task<> {
    p.Prefetch({1, 2, 3});
    EXPECT_EQ(p.stats().prefetch_issued, 3u);
    co_await sim::Delay(s, 1000);
    EXPECT_EQ(p.mem_resident(), 3u);
    EXPECT_EQ(p.mem_cold_resident(), 3u);  // all probationary
    // First demand touch: prefetch hit, but stays cold.
    (void)co_await p.GetPage(1);
    EXPECT_EQ(p.stats().prefetch_hits, 1u);
    EXPECT_EQ(p.mem_cold_resident(), 3u);
    // Second demand touch: genuine reuse, promoted to the hot segment.
    (void)co_await p.GetPage(1);
    EXPECT_EQ(p.mem_cold_resident(), 2u);
    EXPECT_EQ(p.mem_resident(), 3u);
    *done = true;
  }(sim, pool, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(PrefetchTest, NeverPromotesStaleImagePastInflightBarrier) {
  // Dirty page 0 is evicted; while its fresh image is still spilling to
  // SSD, a prefetch + demand read of page 0 must observe the fresh
  // image, not promote the stale SSD copy from the previous spill.
  Simulator sim;
  BufferPoolOptions opts;
  opts.mem_pages = 2;
  opts.ssd_pages = 64;
  BufferPool pool(sim, opts, nullptr);

  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, bool* done) -> Task<> {
    // Materialize pages 0..3; page 0 counter = 1.
    for (PageId id = 0; id < 4; id++) {
      Result<PageRef> ref = p.NewPage(id);
      EXPECT_TRUE(ref.ok());
      ref->page()->Format(id, storage::PageType::kBTreeLeaf);
      EncodeFixed64(ref->page()->data() + 100, id == 0 ? 1 : 0);
      ref->page()->set_page_lsn(1);
      ref.value().MarkDirty();
    }
    co_await sim::Delay(s, 2000);  // page 0 spilled (stale-to-be image)

    // Rewrite page 0 (counter = 2) and push it out again.
    {
      Result<PageRef> ref = co_await p.GetPage(0);
      EXPECT_TRUE(ref.ok());
      EncodeFixed64(ref->page()->data() + 100, 2);
      ref->page()->set_page_lsn(2);
      ref.value().MarkDirty();
    }
    (void)co_await p.GetPage(1);
    (void)co_await p.GetPage(2);
    (void)co_await p.GetPage(3);
    // The eviction of page 0 (fresh image) is now either queued or in
    // flight. Prefetch + read it back immediately: the in-flight barrier
    // must serialize us behind the spill.
    p.Prefetch({0});
    Result<PageRef> ref = co_await p.GetPage(0);
    EXPECT_TRUE(ref.ok());
    EXPECT_EQ(DecodeFixed64(ref->page()->data() + 100), 2u)
        << "stale SSD image promoted past the in-flight spill barrier";
    *done = true;
  }(sim, pool, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(PrefetchTest, ScanResistanceHotSetSurvivesColdScan) {
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPoolOptions opts;
  opts.mem_pages = 64;
  BufferPool pool(sim, opts, &fetcher);

  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, bool* done) -> Task<> {
    // Establish a hot set: pages 0..15, touched twice (demand installs
    // are hot already; the second touch mirrors real reuse).
    for (int round = 0; round < 2; round++) {
      for (PageId id = 0; id < 16; id++) {
        Result<PageRef> ref = co_await p.GetPage(id);
        EXPECT_TRUE(ref.ok());
      }
    }
    // Cold full-table scan, prefetch-driven: 304 pages through a 64-page
    // pool. Each page is prefetched, then demand-read exactly once.
    for (PageId base = 100; base < 404; base += 8) {
      std::vector<PageId> window;
      for (PageId id = base; id < base + 8; id++) window.push_back(id);
      p.Prefetch(window);
      for (PageId id = base; id < base + 8; id++) {
        Result<PageRef> ref = co_await p.GetPage(id);
        EXPECT_TRUE(ref.ok());
        EXPECT_EQ(ref->page()->page_id(), id);
      }
    }
    co_await sim::Delay(s, 2000);  // drain background eviction
    // The scan displaced only itself: the hot set is fully resident.
    for (PageId id = 0; id < 16; id++) {
      EXPECT_TRUE(p.InMemory(id)) << "hot page " << id << " was flushed";
    }
    EXPECT_LE(p.mem_resident(), 64u);
    // Every scan page was prefetched and demand-read once.
    EXPECT_EQ(p.stats().prefetch_issued, 304u);
    EXPECT_EQ(p.stats().prefetch_hits, 304u);
    *done = true;
  }(sim, pool, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(PrefetchTest, WastedCountsPagesEvictedUnused) {
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPoolOptions opts;
  opts.mem_pages = 8;
  BufferPool pool(sim, opts, &fetcher);

  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, bool* done) -> Task<> {
    p.Prefetch({1, 2, 3, 4, 5, 6, 7, 8});
    co_await sim::Delay(s, 1000);
    EXPECT_EQ(p.mem_resident(), 8u);
    // Demand-load 8 distinct pages: the unused prefetched frames drain
    // off the cold tail, each counted as wasted speculation.
    for (PageId id = 100; id < 108; id++) {
      Result<PageRef> ref = co_await p.GetPage(id);
      EXPECT_TRUE(ref.ok());
    }
    co_await sim::Delay(s, 1000);
    EXPECT_EQ(p.stats().prefetch_wasted, 8u);
    EXPECT_EQ(p.stats().prefetch_hits, 0u);
    for (PageId id = 100; id < 108; id++) {
      EXPECT_TRUE(p.InMemory(id));
    }
    *done = true;
  }(sim, pool, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(PrefetchTest, WarmupPromotesMruPrefixAfterRecover) {
  Simulator sim;
  BufferPoolOptions opts;
  opts.mem_pages = 16;
  opts.ssd_pages = 128;
  BufferPool pool(sim, opts, nullptr);

  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, bool* done) -> Task<> {
    // Materialize 48 pages; with 16 memory frames, at least 32 spill.
    for (PageId id = 0; id < 48; id++) {
      Result<PageRef> ref = p.NewPage(id);
      EXPECT_TRUE(ref.ok());
      ref->page()->Format(id, storage::PageType::kBTreeLeaf);
      ref->page()->set_page_lsn(1);
      ref.value().MarkDirty();
      co_await sim::Delay(s, 100);
    }
    co_await sim::Delay(s, 5000);
    // Touch an SSD-resident working set to stamp the SSD MRU order.
    size_t before = p.stats().ssd_hits;
    for (PageId id = 0; id < 8; id++) {
      Result<PageRef> ref = co_await p.GetPage(id);
      EXPECT_TRUE(ref.ok());
    }
    EXPECT_GT(p.stats().ssd_hits, before);  // they did come from SSD
    co_await sim::Delay(s, 5000);

    p.Crash();
    EXPECT_EQ(p.mem_resident(), 0u);
    EXPECT_GT(p.Recover(/*durable_end_lsn=*/100), 0u);

    p.StartWarmup();
    EXPECT_FALSE(p.warmup_done());
    while (!p.warmup_done()) co_await sim::Delay(s, 500);
    EXPECT_GT(p.warmup_promoted(), 0u);
    EXPECT_GT(p.mem_resident(), 0u);
    EXPECT_LE(p.mem_resident(), 16u);
    // The most recently used SSD pages were promoted first; with 16
    // frames the 8-page working set fits entirely.
    size_t mru_resident = 0;
    for (PageId id = 0; id < 8; id++) {
      if (p.InMemory(id)) mru_resident++;
    }
    EXPECT_EQ(mru_resident, 8u);
    *done = true;
  }(sim, pool, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace engine
}  // namespace socrates
