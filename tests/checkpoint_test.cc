// Checkpoint pipeline tests (§4.6): the parallel paced write-back path
// on Page Servers. Covers the capture-generation lost-update guard,
// byte-equality of the pipelined path against the serial order,
// crash-mid-checkpoint recovery, checkpoint-vs-concurrent-apply
// interleavings, copy-on-write of the page frames a checkpoint blob
// maps, per-server interval jitter, XStore outage insulation, and the
// Backup() checkpoint/snapshot latency split.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "service/deployment.h"

namespace socrates {
namespace service {
namespace {

using engine::Engine;
using engine::MakeKey;
using sim::Simulator;
using sim::Spawn;
using sim::Task;

Task<> Wrap(Task<> inner, bool* done) {
  co_await std::move(inner);
  *done = true;
}

// Run events until the driver coroutine finishes (periodic service
// loops keep scheduling timers forever, so Simulator::Run won't stop).
template <typename Fn>
void RunSim(Simulator& s, Fn&& fn) {
  bool done = false;
  Spawn(s, Wrap(fn(), &done));
  int guard = 0;
  while (!done && s.Step()) {
    if (++guard > 200000000) break;
  }
  ASSERT_TRUE(done) << "driver task did not finish";
}

// Deployment sized so the dirty working set spans many pages, with the
// periodic checkpoint loop pushed out of the way: each test drives
// Checkpoint() explicitly unless it is testing the loop itself.
DeploymentOptions CheckpointDeployment(int page_servers = 1) {
  DeploymentOptions o;
  o.partition_map.pages_per_partition = 256;
  o.num_page_servers = page_servers;
  o.num_secondaries = 0;
  o.compute.mem_pages = 64;
  o.compute.ssd_pages = 256;
  o.page_server.mem_pages = 64;
  o.page_server.checkpoint_interval_us = 3600ull * 1000 * 1000;
  o.page_server.checkpoint_jitter_frac = 0;
  return o;
}

// Prefix taken by value: coroutine parameters are copied into the
// frame, so a spawned (not awaited) load can't dangle on a temporary.
Task<> LoadRows(Engine* e, uint64_t start, uint64_t n,
                std::string prefix) {
  for (uint64_t i = start; i < start + n; i += 8) {
    auto txn = e->Begin();
    for (uint64_t k = i; k < std::min(start + n, i + 8); k++) {
      (void)e->Put(txn.get(), MakeKey(1, k), prefix + std::to_string(k));
    }
    Status s = co_await e->Commit(txn.get());
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

Task<> VerifyRows(Engine* e, uint64_t start, uint64_t n,
                  std::string prefix) {
  auto txn = e->Begin(true);
  for (uint64_t k = start; k < start + n; k++) {
    auto v = co_await e->Get(txn.get(), MakeKey(1, k));
    EXPECT_TRUE(v.ok()) << "key " << k << ": " << v.status().ToString();
    if (v.ok()) {
      EXPECT_EQ(*v, prefix + std::to_string(k));
    }
  }
  (void)co_await e->Commit(txn.get());
}

bool Contains(const std::vector<PageId>& v, PageId id) {
  return std::find(v.begin(), v.end(), id) != v.end();
}

// The maintained dirty index must agree with a brute-force frame +
// SSD-metadata scan at any quiescent point.
void ExpectDirtyIndexConsistent(engine::BufferPool* pool) {
  std::vector<PageId> fast = pool->DirtyPages();
  std::vector<PageId> slow = pool->DirtyPagesByScan();
  std::sort(fast.begin(), fast.end());
  std::sort(slow.begin(), slow.end());
  EXPECT_EQ(fast, slow);
}

Task<> RunCheckpoint(pageserver::PageServer* ps, Status* st, bool* done) {
  *st = co_await ps->Checkpoint();
  *done = true;
}

// Satellite (a): a page re-dirtied by concurrent activity between image
// capture and the XStore write completion must stay dirty — the blob
// holds the stale image. On the pre-generation code ClearDirty wiped the
// bit unconditionally and the update was lost from the checkpoint.
TEST(CheckpointTest, RedirtyDuringCheckpointIsNotLost) {
  Simulator s;
  DeploymentOptions o = CheckpointDeployment();
  Deployment d(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 200, "v");
    auto* ps = d.page_server(0);
    co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());
    std::vector<PageId> dirty = ps->pool()->DirtyPages();
    EXPECT_FALSE(dirty.empty());
    if (dirty.empty()) co_return;
    PageId victim = dirty.front();
    EXPECT_TRUE((co_await ps->Checkpoint()).ok());
    EXPECT_TRUE(ps->pool()->DirtyPages().empty());

    // Dirty the victim with marker 'A', start a checkpoint, then
    // re-dirty with 'B' while the XStore write (~12 ms) is in flight.
    {
      auto ref = co_await ps->pool()->GetPage(victim);
      EXPECT_TRUE(ref.ok()) << ref.status().ToString();
      if (!ref.ok()) co_return;
      memset(ref->page()->data() + storage::kPageHeaderSize, 'A', 64);
      ref->MarkDirty();
    }
    Status cp_status;
    bool cp_done = false;
    Spawn(s, RunCheckpoint(ps, &cp_status, &cp_done));
    co_await sim::Delay(s, 2000);
    {
      auto ref = co_await ps->pool()->GetPage(victim);
      EXPECT_TRUE(ref.ok()) << ref.status().ToString();
      if (!ref.ok()) co_return;
      memset(ref->page()->data() + storage::kPageHeaderSize, 'B', 64);
      ref->MarkDirty();
    }
    while (!cp_done) co_await sim::Delay(s, 1000);
    EXPECT_TRUE(cp_status.ok()) << cp_status.ToString();

    // The blob image is the stale 'A'; the page must still be dirty.
    PageId first = o.partition_map.FirstPage(0);
    std::string raw = d.xstore().ReadRaw(
        ps->data_blob(), (victim - first) * kPageSize, kPageSize);
    EXPECT_EQ(raw[storage::kPageHeaderSize], 'A');
    EXPECT_TRUE(Contains(ps->pool()->DirtyPages(), victim));

    // The next round flushes 'B' and only then clears the page.
    EXPECT_TRUE((co_await ps->Checkpoint()).ok());
    EXPECT_FALSE(Contains(ps->pool()->DirtyPages(), victim));
    raw = d.xstore().ReadRaw(ps->data_blob(),
                             (victim - first) * kPageSize, kPageSize);
    EXPECT_EQ(raw[storage::kPageHeaderSize], 'B');
  });
  d.Stop();
}

// A checkpoint blob maps the captured page frames themselves, not copies.
// Log applied to a captured page while the XStore write is in flight must
// detach the pool's copy (copy-on-write), so the blob keeps exactly the
// captured image, checksum included, and the next round writes the new
// one.
TEST(CheckpointTest, ApplyDuringWriteDetachesFromTheCapturedFrame) {
  Simulator s;
  DeploymentOptions o = CheckpointDeployment();
  Deployment d(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 200, "v");
    auto* ps = d.page_server(0);
    co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());
    EXPECT_TRUE((co_await ps->Checkpoint()).ok());
    co_await LoadRows(d.primary_engine(), 40, 8, "w");
    co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());

    struct Captured {
      PageId id;
      Lsn lsn;
      const char* frame;
    };
    std::vector<Captured> captured;
    for (PageId id : ps->pool()->DirtyPages()) {
      auto ref = co_await ps->pool()->GetPage(id);
      EXPECT_TRUE(ref.ok()) << ref.status().ToString();
      if (!ref.ok()) co_return;
      captured.push_back({id, ref->page()->page_lsn(), ref->page()->cdata()});
    }
    EXPECT_FALSE(captured.empty());
    Status cp_status;
    bool cp_done = false;
    Spawn(s, RunCheckpoint(ps, &cp_status, &cp_done));
    co_await sim::Delay(s, 500);  // captured; the XStore write is in flight
    co_await LoadRows(d.primary_engine(), 40, 8, "x");
    co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());
    EXPECT_FALSE(cp_done) << "the apply did not overlap the write";

    std::vector<Captured> changed;
    for (const Captured& c : captured) {
      auto ref = co_await ps->pool()->GetPage(c.id);
      EXPECT_TRUE(ref.ok()) << ref.status().ToString();
      if (!ref.ok()) co_return;
      if (ref->page()->page_lsn() == c.lsn) continue;
      // The blob still holds the captured frame, so the apply detached.
      EXPECT_NE(ref->page()->cdata(), c.frame) << "page " << c.id;
      changed.push_back({c.id, ref->page()->page_lsn(), nullptr});
    }
    EXPECT_FALSE(changed.empty());
    while (!cp_done) co_await sim::Delay(s, 1000);
    EXPECT_TRUE(cp_status.ok()) << cp_status.ToString();

    const PageId first = o.partition_map.FirstPage(0);
    auto blob_image = [&](PageId id) {
      storage::Page img;
      EXPECT_TRUE(img.FromSlice(Slice(d.xstore().ReadRaw(
                                    ps->data_blob(),
                                    (id - first) * kPageSize, kPageSize)))
                      .ok());
      EXPECT_TRUE(img.VerifyChecksum().ok()) << "page " << id;
      return img;
    };
    for (const Captured& c : captured) {
      EXPECT_EQ(blob_image(c.id).page_lsn(), c.lsn) << "page " << c.id;
    }
    for (const Captured& c : changed) {
      EXPECT_TRUE(Contains(ps->pool()->DirtyPages(), c.id));
    }
    EXPECT_TRUE((co_await ps->Checkpoint()).ok());
    for (const Captured& c : changed) {
      EXPECT_FALSE(Contains(ps->pool()->DirtyPages(), c.id));
      EXPECT_EQ(blob_image(c.id).page_lsn(), c.lsn) << "page " << c.id;
    }
    co_await VerifyRows(d.primary_engine(), 40, 8, "x");
  });
  d.Stop();
}

// Acceptance: checkpoint_inflight_writes=1 must behave exactly like the
// old serial loop, and higher settings must produce byte-identical blob
// contents — concurrency reorders the writes, never the data.
TEST(CheckpointTest, InflightSettingsProduceIdenticalBlobBytes) {
  std::string blob_bytes[2];
  const int inflight[2] = {1, 8};
  for (int run = 0; run < 2; run++) {
    Simulator s;
    DeploymentOptions o = CheckpointDeployment();
    o.page_server.checkpoint_inflight_writes = inflight[run];
    Deployment d(s, o);
    RunSim(s, [&]() -> Task<> {
      EXPECT_TRUE((co_await d.Start()).ok());
      co_await LoadRows(d.primary_engine(), 0, 2000, "w");
      auto* ps = d.page_server(0);
      co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());
      EXPECT_GT(ps->pool()->dirty_count(), 4u);
      EXPECT_TRUE((co_await ps->Checkpoint()).ok());
      EXPECT_TRUE(ps->pool()->DirtyPages().empty());
      blob_bytes[run] = d.xstore().ReadRaw(
          ps->data_blob(), 0, d.xstore().BlobSize(ps->data_blob()));
    });
    d.Stop();
  }
  ASSERT_FALSE(blob_bytes[0].empty());
  EXPECT_EQ(blob_bytes[0].size(), blob_bytes[1].size());
  EXPECT_EQ(blob_bytes[0], blob_bytes[1]);
}

// Satellite (c): crash while extent writes are in flight — some batches
// land in the data blob, StoreMeta never runs. The restart must replay
// from the previous restart_lsn and reconstruct correct pages.
TEST(CheckpointTest, CrashMidCheckpointReplaysFromOldRestartLsn) {
  Simulator s;
  Deployment d(s, CheckpointDeployment());
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 150, "p");
    auto* ps = d.page_server(0);
    co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());
    EXPECT_TRUE((co_await ps->Checkpoint()).ok());
    Lsn restart_before = ps->restart_lsn();
    EXPECT_GT(restart_before, engine::kLogStreamStart);

    // New updates, then die 3 ms into the next round: the first XStore
    // write (~12 ms) is still in flight, so at most a partial batch set
    // reached the blob and the meta record was never stored.
    co_await LoadRows(d.primary_engine(), 0, 150, "q");
    co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());
    EXPECT_FALSE(ps->pool()->DirtyPages().empty());
    Status cp_status;
    bool cp_done = false;
    Spawn(s, RunCheckpoint(ps, &cp_status, &cp_done));
    co_await sim::Delay(s, 3000);
    ps->Crash();
    while (!cp_done) co_await sim::Delay(s, 1000);
    EXPECT_FALSE(cp_status.ok());

    EXPECT_TRUE((co_await ps->Start()).ok());
    EXPECT_EQ(ps->restart_lsn(), restart_before);
    co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());
    // Drop the compute cache so every read below is a real GetPage@LSN
    // against the recovered server.
    d.primary()->pool()->Crash();
    co_await VerifyRows(d.primary_engine(), 0, 150, "q");
  });
  d.Stop();
}

// Satellite (c): checkpoints racing a live apply stream. Every round
// must succeed, the dirty index must stay consistent with the
// brute-force scan, and after quiescing the final round must leave the
// blob byte-identical to the in-memory images.
TEST(CheckpointTest, ConcurrentApplyInterleavings) {
  Simulator s;
  DeploymentOptions o = CheckpointDeployment();
  Deployment d(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    auto* ps = d.page_server(0);
    bool load_done = false;
    Spawn(s, Wrap(LoadRows(d.primary_engine(), 0, 500, "c"), &load_done));
    for (int round = 0; round < 6; round++) {
      co_await sim::Delay(s, 4000);
      EXPECT_TRUE((co_await ps->Checkpoint()).ok());
      ExpectDirtyIndexConsistent(ps->pool());
    }
    while (!load_done) co_await sim::Delay(s, 1000);
    co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());

    std::vector<PageId> final_dirty = ps->pool()->DirtyPages();
    EXPECT_TRUE((co_await ps->Checkpoint()).ok());
    EXPECT_TRUE(ps->pool()->DirtyPages().empty());
    ExpectDirtyIndexConsistent(ps->pool());

    // Quiesced: for every page the last round wrote, the blob bytes
    // must equal the live image.
    PageId first = o.partition_map.FirstPage(0);
    for (PageId id : final_dirty) {
      auto ref = co_await ps->pool()->GetPage(id);
      EXPECT_TRUE(ref.ok()) << ref.status().ToString();
      if (!ref.ok()) continue;
      ref->EnsureChecksum();
      std::string raw = d.xstore().ReadRaw(
          ps->data_blob(), (id - first) * kPageSize, kPageSize);
      EXPECT_EQ(raw, std::string(ref->page()->data(), kPageSize))
          << "page " << id;
    }
    EXPECT_GT(ps->checkpoint_pages_written(), 0u);
    EXPECT_GT(ps->restart_lag_bytes().count(), 0u);
    EXPECT_GT(ps->checkpoint_duration_us().count(), 0u);
    co_await VerifyRows(d.primary_engine(), 0, 500, "c");
  });
  d.Stop();
}

// Satellite (b): with jitter enabled, replica Page Servers must not
// checkpoint in lockstep. Startup stagger already offsets the absolute
// round times, so compare each server\'s round-to-round gap: without
// jitter every server paces at exactly the same cadence; with jitter
// the (deterministically seeded) cadences diverge pairwise.
TEST(CheckpointTest, JitterDesynchronizesCheckpointRounds) {
  std::vector<SimTime> gaps[2];
  for (int run = 0; run < 2; run++) {
    Simulator s;
    DeploymentOptions o = CheckpointDeployment(/*page_servers=*/3);
    o.page_server.checkpoint_interval_us = 100 * 1000;
    o.page_server.checkpoint_jitter_frac = (run == 0) ? 0.5 : 0.0;
    Deployment d(s, o);
    RunSim(s, [&]() -> Task<> {
      EXPECT_TRUE((co_await d.Start()).ok());
      co_await sim::Delay(s, 600 * 1000);
      for (int p = 0; p < 3; p++) {
        const auto& starts = d.page_server(p)->checkpoint_starts();
        EXPECT_GE(starts.size(), 2u);
        if (starts.size() < 2) co_return;
        gaps[run].push_back(starts[1] - starts[0]);
      }
    });
    d.Stop();
  }
  ASSERT_EQ(gaps[0].size(), 3u);
  ASSERT_EQ(gaps[1].size(), 3u);
  auto spread = [](const std::vector<SimTime>& g) {
    return *std::max_element(g.begin(), g.end()) -
           *std::min_element(g.begin(), g.end());
  };
  // Control cadences differ only by per-round XStore latency noise
  // (a few ms); jittered cadences spread across a large slice of the
  // +/-50 ms window. Both runs are deterministic.
  EXPECT_GT(spread(gaps[0]), 2 * spread(gaps[1]));
  EXPECT_GT(spread(gaps[0]), 20 * 1000u);
}

// §4.6 outage insulation with the parallel writer: a failed round keeps
// every captured page dirty and the next round after recovery flushes
// them all.
TEST(CheckpointTest, XStoreOutageKeepsPagesDirtyAcrossParallelBatches) {
  Simulator s;
  Deployment d(s, CheckpointDeployment());
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 250, "o");
    auto* ps = d.page_server(0);
    co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());
    std::vector<PageId> dirty_before = ps->pool()->DirtyPages();
    std::sort(dirty_before.begin(), dirty_before.end());
    EXPECT_FALSE(dirty_before.empty());

    d.chaos().SetOutage("xstore", true);
    Status cp = co_await ps->Checkpoint();
    EXPECT_FALSE(cp.ok());
    EXPECT_GT(ps->checkpoint_failures(), 0u);
    std::vector<PageId> dirty_after = ps->pool()->DirtyPages();
    std::sort(dirty_after.begin(), dirty_after.end());
    EXPECT_EQ(dirty_before, dirty_after);

    d.chaos().SetOutage("xstore", false);
    EXPECT_TRUE((co_await ps->Checkpoint()).ok());
    EXPECT_TRUE(ps->pool()->DirtyPages().empty());
    co_await VerifyRows(d.primary_engine(), 0, 250, "o");
  });
  d.Stop();
}

// Satellite (f): Backup() reports its latency split. The snapshot part
// is the paper's constant-time claim: it must not grow with the dirty
// set, while the forced-checkpoint part does.
TEST(CheckpointTest, BackupReportsCheckpointVsSnapshotSplit) {
  Simulator s;
  Deployment d(s, CheckpointDeployment());
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 2000, "b");
    auto* ps = d.page_server(0);
    co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());
    EXPECT_GT(ps->pool()->dirty_count(), 4u);

    auto dirty_backup = co_await d.Backup();
    EXPECT_TRUE(dirty_backup.ok());
    if (!dirty_backup.ok()) co_return;
    // Immediately again: nothing dirty, the checkpoint part collapses
    // while the snapshot part stays put.
    auto clean_backup = co_await d.Backup();
    EXPECT_TRUE(clean_backup.ok());
    if (!clean_backup.ok()) co_return;

    EXPECT_GT(dirty_backup->snapshot_us, 0u);
    EXPECT_EQ(dirty_backup->snapshot_us, clean_backup->snapshot_us);
    EXPECT_GT(dirty_backup->checkpoint_us, clean_backup->checkpoint_us);
  });
  d.Stop();
}

}  // namespace
}  // namespace service
}  // namespace socrates
