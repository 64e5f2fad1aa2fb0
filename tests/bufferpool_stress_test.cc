// Stress/regression tests for BufferPool concurrency: these pin down
// real races found during development —
//  (1) SSD slot recycling while a promotion read was in flight delivered
//      another page's image under the wrong page id;
//  (2) a reader promoting the *stale* SSD image while the eviction spill
//      of the fresh image was still in flight lost updates;
//  (3) a spill still writing its slot at a crash: a read issued after
//      Recover() could overtake the write and promote the slot's previous
//      image, and a speculative spill's slot, freed at once, could be
//      overwritten by its late write after another page took it.
// They manifest only under concurrent access with tiny cache tiers. The
// RBPEX by-reference tests pin the ownership rules of the SSD tier: a
// promoted frame shares the SSD image until its first write, and the
// checksum is recomputed only for frames changed since the last one.

#include <gtest/gtest.h>

#include <map>

#include "chaos/chaos.h"
#include "engine/buffer_pool.h"
#include "engine/btree_page.h"

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

TEST(BufferPoolStressTest, ConcurrentReadersNeverSeeWrongPage) {
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPoolOptions opts;
  opts.mem_pages = 4;
  opts.ssd_pages = 8;  // heavy slot recycling
  BufferPool pool(sim, opts, &fetcher);

  const PageId kPages = 64;
  int errors = 0;
  int wrong_page = 0;
  int completed = 0;
  for (int r = 0; r < 8; r++) {
    Spawn(sim, [](Simulator& s, BufferPool& p, int seed, int* errs,
                  int* wrong, int* done) -> Task<> {
      Random rng(seed);
      for (int i = 0; i < 1500; i++) {
        PageId want = rng.Uniform(kPages);
        Result<PageRef> ref = co_await p.GetPage(want);
        if (!ref.ok()) {
          (*errs)++;
        } else if (ref->page()->page_id() != want) {
          (*wrong)++;
        }
        if (i % 7 == 0) co_await sim::Delay(s, rng.Uniform(50));
      }
      (*done)++;
    }(sim, pool, 100 + r, &errors, &wrong_page, &completed));
  }
  sim.Run();
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(errors, 0);      // no Corruption statuses (race detected)
  EXPECT_EQ(wrong_page, 0);  // and certainly no wrong images delivered
}

TEST(BufferPoolStressTest, EvictionNeverLosesUpdates) {
  // Writers bump a per-page counter stored in the page body; constant
  // eviction/promotion churn must never regress any counter.
  Simulator sim;
  BufferPoolOptions opts;
  opts.mem_pages = 3;
  opts.ssd_pages = 256;  // covering SSD: full evictions never happen
  BufferPool pool(sim, opts, nullptr);

  const PageId kPages = 32;
  // Materialize pages.
  bool init_done = false;
  Spawn(sim, [](BufferPool& p, bool* done) -> Task<> {
    for (PageId id = 0; id < kPages; id++) {
      Result<PageRef> ref = p.NewPage(id);
      EXPECT_TRUE(ref.ok());
      ref->page()->Format(id, storage::PageType::kBTreeLeaf);
      EncodeFixed64(ref->page()->data() + 100, 0);  // counter
      ref.value().MarkDirty();
    }
    *done = true;
    co_return;
  }(pool, &init_done));
  sim.Run();
  ASSERT_TRUE(init_done);

  std::map<PageId, uint64_t> model;
  int violations = 0;
  int done_workers = 0;
  for (int w = 0; w < 6; w++) {
    Spawn(sim, [](Simulator& s, BufferPool& p,
                  std::map<PageId, uint64_t>* m, int seed, int* viol,
                  int* done) -> Task<> {
      Random rng(seed);
      for (int i = 0; i < 1200; i++) {
        PageId id = rng.Uniform(kPages);
        Result<PageRef> ref = co_await p.GetPage(id);
        if (!ref.ok()) {
          (*viol)++;
          continue;
        }
        uint64_t stored = DecodeFixed64(ref->page()->data() + 100);
        uint64_t expect = (*m)[id];
        if (stored < expect) (*viol)++;  // lost update!
        // Synchronous read-modify-write while pinned.
        EncodeFixed64(ref->page()->data() + 100, stored + 1);
        ref->page()->set_page_lsn(stored + 2);
        ref.value().MarkDirty();
        if (stored + 1 > (*m)[id]) (*m)[id] = stored + 1;
        if (i % 5 == 0) co_await sim::Delay(s, rng.Uniform(30));
      }
      (*done)++;
    }(sim, pool, &model, 7 + w, &violations, &done_workers));
  }
  sim.Run();
  EXPECT_EQ(done_workers, 6);
  EXPECT_EQ(violations, 0);
}

TEST(BufferPoolStressTest, CrashDuringEvictionSpillIsSafe) {
  // Regression: eviction used to run as a detached coroutine holding a
  // raw BufferPool*; a Crash() while a spill was suspended in the SSD
  // write left it to resume against torn state. The life-token fence
  // must let in-flight spills finish their I/O without touching the
  // pool, and the pool must recover cleanly afterwards.
  Simulator sim;
  BufferPoolOptions opts;
  opts.mem_pages = 2;
  opts.ssd_pages = 16;
  BufferPool pool(sim, opts, nullptr);

  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, bool* done) -> Task<> {
    for (PageId id = 0; id < 8; id++) {
      Result<PageRef> ref = p.NewPage(id);
      EXPECT_TRUE(ref.ok());
      ref->page()->Format(id, storage::PageType::kBTreeLeaf);
      ref->page()->set_page_lsn(1);
      ref.value().MarkDirty();
    }
    // Eviction spills are now queued/in flight. Crash before they land.
    co_await sim::Yield(s);
    p.Crash();
    co_await sim::Delay(s, 5000);  // drain the fenced background tasks
    p.Recover(/*durable_end_lsn=*/100);
    // Whatever survived must be self-consistent and servable.
    for (PageId id = 0; id < 8; id++) {
      Result<PageRef> ref = co_await p.GetIfCached(id);
      if (ref.ok()) {
        EXPECT_EQ(ref->page()->page_id(), id);
      }
    }
    // And the pool is still fully functional after the crash.
    Result<PageRef> fresh = p.NewPage(100);
    EXPECT_TRUE(fresh.ok());
    *done = true;
  }(sim, pool, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(BufferPoolStressTest, DestroyPoolWithInflightSpillIsSafe) {
  // Destroying the pool while spills/prefetches are suspended must not
  // leave detached coroutines resuming into freed memory (the SSD
  // device is kept alive by shared ownership; pool state is fenced by
  // the life token). ASan in CI is the real assertion here.
  Simulator sim;
  FreshFetcher fetcher(sim);
  {
    BufferPoolOptions opts;
    opts.mem_pages = 2;
    opts.ssd_pages = 16;
    auto pool = std::make_unique<BufferPool>(sim, opts, &fetcher);
    for (PageId id = 0; id < 8; id++) {
      Result<PageRef> ref = pool->NewPage(id);
      EXPECT_TRUE(ref.ok());
      ref->page()->Format(id, storage::PageType::kBTreeLeaf);
      ref->page()->set_page_lsn(1);
      ref.value().MarkDirty();
    }
    pool->Prefetch({50, 51, 52});  // remote prefetches also in flight
    for (int i = 0; i < 4; i++) sim.Step();
    // Spills are suspended inside SSD writes; destroy the pool now.
  }
  sim.Run();  // drain the orphaned coroutines — must not crash
}

TEST(BufferPoolStressTest, DestroyedPoolLeavesItsSsdDeviceEmpty) {
  // A spill suspended in its SSD write keeps the device alive past the
  // pool. The page images on it must not stay with it: neither those
  // spilled before the pool died nor the one whose write lands after.
  Simulator sim;
  std::shared_ptr<const storage::SimBlockDevice> ssd;
  {
    BufferPoolOptions opts;
    opts.mem_pages = 2;
    opts.ssd_pages = 16;
    BufferPool pool(sim, opts, nullptr);
    for (PageId id = 0; id < 8; id++) {
      Result<PageRef> ref = pool.NewPage(id);
      ASSERT_TRUE(ref.ok());
      ref->page()->Format(id, storage::PageType::kBTreeLeaf);
      ref->page()->set_page_lsn(1);
      ref.value().MarkDirty();
    }
    ssd = pool.ssd_device();
    // Let some spills land and leave others suspended in their writes.
    auto some_landed_some_inflight = [&] {
      const uint64_t landed = ssd->allocated_bytes() / kPageSize;
      return landed > 0 && pool.ssd_resident() > landed;
    };
    while (!some_landed_some_inflight() && sim.Step()) {
    }
    ASSERT_TRUE(some_landed_some_inflight());
  }
  EXPECT_GT(ssd.use_count(), 1);  // still held by a suspended spill
  EXPECT_EQ(ssd->allocated_bytes(), 0u);
  sim.Run();  // the suspended writes land on the orphaned device
  EXPECT_EQ(ssd->allocated_bytes(), 0u);
}

TEST(BufferPoolStressTest, CrashCancelsInflightPrefetch) {
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPoolOptions opts;
  opts.mem_pages = 16;
  BufferPool pool(sim, opts, &fetcher);

  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, bool* done) -> Task<> {
    p.Prefetch({1, 2, 3, 4});
    co_await sim::Yield(s);
    p.Crash();  // fetches still in flight
    co_await sim::Delay(s, 2000);
    // The fetched images must NOT have been installed into the
    // post-crash pool (they reflect pre-crash speculation).
    EXPECT_EQ(p.mem_resident(), 0u);
    // The pool remains usable for demand traffic.
    Result<PageRef> ref = co_await p.GetPage(1);
    EXPECT_TRUE(ref.ok());
    *done = true;
  }(sim, pool, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

// Loads page 1 through the fetcher, pushes it out to SSD by touching
// pages 2..5 (4 memory frames), then promotes it back from SSD.
Task<Result<PageRef>> PromoteFromSsd(Simulator& s, BufferPool& p) {
  (void)co_await p.GetPage(1);
  for (PageId id = 2; id <= 5; id++) (void)co_await p.GetPage(id);
  co_await sim::Delay(s, 5000);  // let the spills land
  EXPECT_FALSE(p.InMemory(1));
  EXPECT_TRUE(p.Contains(1));
  uint64_t ssd_hits = p.stats().ssd_hits;
  Result<PageRef> ref = co_await p.GetPage(1);
  EXPECT_EQ(p.stats().ssd_hits, ssd_hits + 1);
  co_return ref;
}

BufferPoolOptions RbpexOptions() {
  BufferPoolOptions opts;
  opts.mem_pages = 4;
  opts.ssd_pages = 16;
  return opts;
}

TEST(RbpexByReferenceTest, PromotedFrameWriteLeavesSsdImageIntact) {
  // The promoted frame shares the SSD image; a write must detach it, so
  // after a crash the SSD still holds the pre-mutation bytes, verified.
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPool pool(sim, RbpexOptions(), &fetcher);
  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, FreshFetcher& f,
                bool* done) -> Task<> {
    Result<PageRef> ref = co_await PromoteFromSsd(s, p);
    EXPECT_TRUE(ref.ok());
    EXPECT_FALSE(ref->page()->unique());  // shared with the SSD image
    const char before = ref->page()->cdata()[kPageSize - 1];
    ref->page()->data()[kPageSize - 1] = 'M';
    ref.value().MarkDirty();
    ref.value().Release();
    p.Crash();  // before the dirtied frame is ever spilled
    p.Recover(/*durable_end_lsn=*/100);
    EXPECT_TRUE(p.Contains(1));  // the SSD image still verifies
    int fetches = f.fetches_;
    uint64_t ssd_hits = p.stats().ssd_hits;
    ref = co_await p.GetPage(1);
    EXPECT_TRUE(ref.ok());
    EXPECT_EQ(p.stats().ssd_hits, ssd_hits + 1);
    EXPECT_EQ(f.fetches_, fetches);
    EXPECT_EQ(ref->page()->cdata()[kPageSize - 1], before);
    EXPECT_TRUE(ref->page()->VerifyChecksum().ok());
    *done = true;
  }(sim, pool, fetcher, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(RbpexByReferenceTest, PromotedFrameSkipsChecksumUntilDirtied) {
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPool pool(sim, RbpexOptions(), &fetcher);
  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, bool* done) -> Task<> {
    Result<PageRef> ref = co_await PromoteFromSsd(s, p);
    EXPECT_TRUE(ref.ok());
    p.ResetStats();
    // Promotion verified the image, so serving it needs no CRC pass.
    ref.value().EnsureChecksum();
    EXPECT_EQ(p.stats().checksum_skips, 1u);
    EXPECT_EQ(p.stats().checksum_recomputes, 0u);
    ref->page()->data()[kPageSize - 1] = 'M';
    ref.value().MarkDirty();
    ref.value().EnsureChecksum();
    EXPECT_EQ(p.stats().checksum_skips, 1u);
    EXPECT_EQ(p.stats().checksum_recomputes, 1u);
    EXPECT_TRUE(ref->page()->VerifyChecksum().ok());
    *done = true;
  }(sim, pool, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(RbpexByReferenceTest, DirtiedPromotedFrameRespillsWithFreshStamp) {
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPool pool(sim, RbpexOptions(), &fetcher);
  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, FreshFetcher& f,
                bool* done) -> Task<> {
    Result<PageRef> ref = co_await PromoteFromSsd(s, p);
    EXPECT_TRUE(ref.ok());
    ref->page()->data()[kPageSize - 1] = 'M';
    ref.value().MarkDirty();
    ref.value().Release();
    // Evict it again: the spill must checksum the changed image.
    for (PageId id = 6; id <= 9; id++) (void)co_await p.GetPage(id);
    co_await sim::Delay(s, 5000);
    EXPECT_FALSE(p.InMemory(1));
    int fetches = f.fetches_;
    ref = co_await p.GetPage(1);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(f.fetches_, fetches);  // promoted, not refetched
    if (ref.ok()) {
      EXPECT_EQ(ref->page()->cdata()[kPageSize - 1], 'M');
      EXPECT_TRUE(ref->page()->VerifyChecksum().ok());
    }
    *done = true;
  }(sim, pool, fetcher, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

// A dirty formatted page `id` at `lsn`, installed and released.
void InstallDirty(BufferPool& p, PageId id, Lsn lsn) {
  Result<PageRef> ref = p.NewPage(id);
  EXPECT_TRUE(ref.ok());
  BTreePage::Format(ref->page(), id, 0, kMinKey, kMaxKey, kInvalidPageId);
  ref->page()->set_page_lsn(lsn);
  ref.value().MarkDirty();
}

// Attaches the pool's RBPEX device to `hub` under "rbpex", so a gray
// delay can slow its writes. The accessor is const; the device is not.
void AttachRbpexChaos(BufferPool& p, chaos::Injector* hub) {
  std::const_pointer_cast<storage::SimBlockDevice>(p.ssd_device())
      ->AttachChaos(hub, "rbpex");
}

constexpr Lsn kDurableEnd = 500;
constexpr PageId kOldPages = 12;  // pages 0..11 sit in SSD at the crash
constexpr PageId kFresh = 200;    // pages 200.. spill after Recover
constexpr PageId kNumFresh = 48;

TEST(BufferPoolStressTest, RecoverKeepsHardenedImagesAndFreesEachSlotOnce) {
  // Every valid pre-crash image must be kept, every speculative one
  // dropped exactly once, and no slot freed twice: fresh pages that
  // spill into the freed slots afterwards each promote as themselves.
  Simulator sim;
  BufferPoolOptions opts;
  opts.mem_pages = 4;
  opts.ssd_pages = 256;
  BufferPool pool(sim, opts, nullptr);
  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, bool* done) -> Task<> {
    // Even pages hardened; odd pages reflect log past the durable end.
    for (PageId id = 0; id < kOldPages; id++) {
      InstallDirty(p, id, id % 2 == 0 ? 10 : 1000);
    }
    for (PageId id = 100; id < 104; id++) InstallDirty(p, id, 1);
    co_await sim::Delay(s, 5000);
    for (PageId id = 0; id < kOldPages; id++) EXPECT_FALSE(p.InMemory(id));
    EXPECT_EQ(p.ssd_resident(), kOldPages);
    p.Crash();

    EXPECT_EQ(p.Recover(kDurableEnd), kOldPages / 2);
    EXPECT_EQ(p.Recover(kDurableEnd), kOldPages / 2);  // nothing left
    for (PageId i = 0; i < kNumFresh; i++) {
      InstallDirty(p, kFresh + i, 20);
      co_await sim::Delay(s, 15);
    }
    co_await sim::Delay(s, 5000);

    for (PageId id = 0; id < kOldPages; id++) {
      EXPECT_EQ(p.Contains(id), id % 2 == 0) << id;
    }
    size_t fresh_on_ssd = 0;
    for (PageId i = 0; i < kNumFresh; i++) {
      EXPECT_TRUE(p.Contains(kFresh + i)) << kFresh + i;
      if (!p.InMemory(kFresh + i)) fresh_on_ssd++;
    }
    EXPECT_GT(fresh_on_ssd, kOldPages);  // the freed slots were reused
    EXPECT_EQ(p.ssd_resident(),
              kOldPages / 2 + kNumFresh - p.mem_resident());
    for (PageId id = 0; id < kOldPages; id += 2) {
      Result<PageRef> ref = co_await p.GetIfCached(id);
      EXPECT_TRUE(ref.ok()) << id;
      if (ref.ok()) {
        EXPECT_EQ(ref->page()->page_id(), id);
      }
    }
    for (PageId i = 0; i < kNumFresh; i++) {
      Result<PageRef> ref = co_await p.GetIfCached(kFresh + i);
      EXPECT_TRUE(ref.ok()) << kFresh + i;
      if (ref.ok()) {
        EXPECT_EQ(ref->page()->page_id(), kFresh + i);
      }
    }
    *done = true;
  }(sim, pool, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(BufferPoolStressTest, SpeculativeSpillInFlightAtCrashFreesItsSlotLate) {
  // Page 1 is spilled past the durable end with a slow write, and the
  // node crashes before it lands. Recover() drops the page, but its slot
  // must stay taken until the write lands: a spill given the slot at
  // once lands first and is then overwritten with page 1's image.
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPoolOptions opts;
  opts.mem_pages = 2;
  opts.ssd_pages = 2;
  BufferPool pool(sim, opts, &fetcher);
  chaos::Injector hub;
  AttachRbpexChaos(pool, &hub);
  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, chaos::Injector& hub,
                bool* done) -> Task<> {
    hub.SetGrayDelay("rbpex", 2000);
    InstallDirty(p, 1, 1000);
    InstallDirty(p, 2, 10);
    InstallDirty(p, 3, 10);
    co_await sim::Delay(s, 10);  // page 1's spill write is issued
    hub.SetGrayDelay("rbpex", 0);
    EXPECT_FALSE(p.InMemory(1));
    EXPECT_TRUE(p.Contains(1));
    p.Crash();
    EXPECT_EQ(p.Recover(kDurableEnd), 0u);
    EXPECT_FALSE(p.Contains(1));

    // Page 10 spills while page 1's write is still in flight.
    InstallDirty(p, 10, 10);
    InstallDirty(p, 11, 10);
    InstallDirty(p, 12, 10);
    co_await sim::Delay(s, 5000);  // every write has landed
    // Page 1's slot came back when its write landed: page 11 takes it
    // without evicting page 10 from the two-slot SSD tier.
    InstallDirty(p, 13, 10);
    co_await sim::Delay(s, 5000);
    EXPECT_FALSE(p.InMemory(10));
    EXPECT_FALSE(p.InMemory(11));
    EXPECT_TRUE(p.Contains(11));
    EXPECT_EQ(p.stats().ssd_evictions, 0u);
    Result<PageRef> ref = co_await p.GetPage(10);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    if (ref.ok()) {
      EXPECT_EQ(ref->page()->page_id(), 10u);
      EXPECT_EQ(ref->page()->page_lsn(), 10u);
      ref.value().Release();
    }
    // The speculative image is never served: page 1 comes from the
    // fetcher.
    ref = co_await p.GetPage(1);
    EXPECT_TRUE(ref.ok());
    if (ref.ok()) {
      EXPECT_EQ(ref->page()->page_lsn(), 1u);
    }
    *done = true;
  }(sim, pool, hub, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(BufferPoolStressTest, PlainBpeCrashKeepsASlotUntilItsWriteLands) {
  // The plain BPE loses its index at a crash, but not the writes still in
  // flight: a slot handed out again at once is overwritten when page 1's
  // late write lands, and page 10 then reads back as page 1.
  Simulator sim;
  BufferPoolOptions opts;
  opts.mem_pages = 2;
  opts.ssd_pages = 2;
  opts.ssd_recoverable = false;
  BufferPool pool(sim, opts, nullptr);
  chaos::Injector hub;
  AttachRbpexChaos(pool, &hub);
  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, chaos::Injector& hub,
                bool* done) -> Task<> {
    hub.SetGrayDelay("rbpex", 2000);
    InstallDirty(p, 1, 10);
    InstallDirty(p, 2, 10);
    InstallDirty(p, 3, 10);
    co_await sim::Delay(s, 10);  // page 1's spill write is issued
    hub.SetGrayDelay("rbpex", 0);
    EXPECT_FALSE(p.InMemory(1));
    p.Crash();
    EXPECT_EQ(p.ssd_resident(), 0u);
    InstallDirty(p, 10, 10);
    InstallDirty(p, 11, 10);
    InstallDirty(p, 12, 10);
    co_await sim::Delay(s, 5000);  // every write has landed
    EXPECT_FALSE(p.InMemory(10));
    Result<PageRef> ref = co_await p.GetPage(10);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    if (ref.ok()) {
      EXPECT_EQ(ref->page()->page_id(), 10u);
    }
    *done = true;
  }(sim, pool, hub, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(BufferPoolStressTest, SpillInFlightAtCrashIsNeverOvertakenByARead) {
  // Page 1 sits in its slot at LSN 10, is promoted, updated to LSN 20
  // and spilled back to the same slot with a slow write; the node
  // crashes before it lands. A read issued after Recover() pays ~85 us
  // and would return the slot's LSN 10 image if it did not wait for the
  // write (~2000 us).
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPoolOptions opts;
  opts.mem_pages = 2;
  opts.ssd_pages = 16;
  BufferPool pool(sim, opts, &fetcher);
  chaos::Injector hub;
  AttachRbpexChaos(pool, &hub);
  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, chaos::Injector& hub,
                bool* done) -> Task<> {
    InstallDirty(p, 1, 10);
    InstallDirty(p, 2, 10);
    InstallDirty(p, 3, 10);
    co_await sim::Delay(s, 5000);
    EXPECT_FALSE(p.InMemory(1));
    Result<PageRef> ref = co_await p.GetPage(1);
    EXPECT_TRUE(ref.ok());
    if (!ref.ok()) co_return;
    ref->page()->set_page_lsn(20);
    ref.value().MarkDirty();
    ref.value().Release();
    co_await sim::Delay(s, 5000);

    hub.SetGrayDelay("rbpex", 2000);
    InstallDirty(p, 4, 10);
    InstallDirty(p, 5, 10);
    // Leaving memory, page 1 issued its spill write.
    while (p.InMemory(1)) co_await sim::Delay(s, 10);
    hub.SetGrayDelay("rbpex", 0);
    p.Crash();
    p.Recover(kDurableEnd);
    EXPECT_TRUE(p.Contains(1));

    const int fetches = static_cast<int>(p.stats().misses);
    ref = co_await p.GetPage(1);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    if (ref.ok()) {
      EXPECT_EQ(ref->page()->page_lsn(), 20u);
    }
    EXPECT_EQ(static_cast<int>(p.stats().misses), fetches);  // from SSD
    *done = true;
  }(sim, pool, hub, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(BufferPoolStressTest, ReadSpanningACrashNeverInstallsASpeculativeImage) {
  // A promotion read of page 1 (LSN past the durable end) is in flight
  // when the node crashes, and Recover() drops the page before the read
  // lands. The read must look the page up again instead of installing
  // the speculative image it read.
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPoolOptions opts;
  opts.mem_pages = 2;
  opts.ssd_pages = 16;
  BufferPool pool(sim, opts, &fetcher);
  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, bool* done) -> Task<> {
    InstallDirty(p, 1, 1000);
    InstallDirty(p, 2, 10);
    InstallDirty(p, 3, 10);
    co_await sim::Delay(s, 5000);
    EXPECT_FALSE(p.InMemory(1));
    Lsn read_lsn = kInvalidLsn;
    bool read_done = false;
    Spawn(s, [](BufferPool& p, Lsn* lsn, bool* fin) -> Task<> {
      Result<PageRef> ref = co_await p.GetPage(1);
      EXPECT_TRUE(ref.ok());
      if (ref.ok()) *lsn = ref->page()->page_lsn();
      *fin = true;
    }(p, &read_lsn, &read_done));
    co_await sim::Delay(s, 10);  // the SSD read is in flight
    EXPECT_FALSE(read_done);
    p.Crash();
    p.Recover(kDurableEnd);
    EXPECT_FALSE(p.Contains(1));
    while (!read_done) co_await sim::Delay(s, 100);
    EXPECT_EQ(read_lsn, 1u);  // fetched, not the LSN 1000 image
    *done = true;
  }(sim, pool, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace engine
}  // namespace socrates
