// End-to-end cluster tests: the full Socrates deployment (Primary +
// Secondaries + XLOG + Page Servers + XStore), the distributed workflows
// (failover, warm restart, add-secondary, backup, PITR), the durability
// and freshness invariants, and the HADR baseline.

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "hadr/hadr.h"
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

// Run events until the driver coroutine finishes. Unlike Simulator::Run,
// this terminates even though background service loops (periodic
// checkpoints, destaging) keep scheduling timers forever.
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

DeploymentOptions SmallDeployment(int page_servers = 2,
                                  int secondaries = 1) {
  DeploymentOptions o;
  o.partition_map.pages_per_partition = 256;
  o.num_page_servers = page_servers;
  o.num_secondaries = secondaries;
  o.compute.mem_pages = 64;
  o.compute.ssd_pages = 256;
  o.page_server.mem_pages = 64;
  o.page_server.checkpoint_interval_us = 200 * 1000;
  return o;
}

// Commit `n` rows through the primary: key i -> value prefix+i.
Task<> LoadRows(Engine* e, uint64_t start, uint64_t n,
                const std::string& prefix) {
  for (uint64_t i = start; i < start + n; i += 8) {
    auto txn = e->Begin();
    for (uint64_t k = i; k < std::min(start + n, i + 8); k++) {
      (void)e->Put(txn.get(), MakeKey(1, k),
                   prefix + std::to_string(k));
    }
    Status s = co_await e->Commit(txn.get());
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

Task<> VerifyRows(Engine* e, uint64_t start, uint64_t n,
                  const std::string& prefix) {
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

TEST(ClusterTest, BootAndCommitThroughAllTiers) {
  Simulator s;
  Deployment d(s, SmallDeployment());
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 100, "v");
    co_await VerifyRows(d.primary_engine(), 0, 100, "v");
    // Let dissemination settle before asserting on XLOG state.
    co_await d.xlog().available().WaitFor(d.log_client().end_lsn());
  });
  // The log flowed: LZ hardened it, XLOG disseminated it, Page Servers
  // applied it.
  EXPECT_GT(d.durable_end(), engine::kLogStreamStart);
  EXPECT_EQ(d.xlog().available().value(), d.log_client().end_lsn());
  d.Stop();
}

TEST(ClusterTest, SecondaryServesSnapshotReads) {
  Simulator s;
  Deployment d(s, SmallDeployment(2, 2));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 120, "x");
    // Wait for the secondaries to catch up.
    co_await d.secondary(0)->applier()->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    co_await VerifyRows(d.secondary(0)->engine(), 0, 120, "x");
    co_await d.secondary(1)->applier()->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    co_await VerifyRows(d.secondary(1)->engine(), 0, 120, "x");
  });
  // Secondaries fetched pages from Page Servers (sparse caches).
  EXPECT_GT(d.secondary(0)->remote_fetches(), 0u);
  d.Stop();
}

TEST(ClusterTest, EvictionAndGetPageAtLsnFreshness) {
  // Tiny compute cache forces constant eviction + refetch through
  // GetPage@LSN; values must always be the latest committed ones.
  Simulator s;
  DeploymentOptions o = SmallDeployment(2, 0);
  o.compute.mem_pages = 8;
  o.compute.ssd_pages = 16;  // tiny RBPEX: pages leave the node
  Deployment d(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    // Several rounds of updates over enough keys to overflow the tiny
    // compute cache many times over.
    for (int round = 0; round < 3; round++) {
      co_await LoadRows(d.primary_engine(), 0, 5000,
                        "r" + std::to_string(round) + "-");
    }
    co_await VerifyRows(d.primary_engine(), 0, 5000, "r2-");
  });
  EXPECT_GT(d.primary()->remote_fetches(), 0u);  // evictions happened
  d.Stop();
}

TEST(ClusterTest, FailoverPromotesSecondaryWithoutDataLoss) {
  Simulator s;
  Deployment d(s, SmallDeployment(2, 1));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 150, "pre-");
    EXPECT_TRUE((co_await d.Failover()).ok());
    EXPECT_EQ(d.num_secondaries(), 0);
    // All pre-failover commits visible on the new primary.
    co_await VerifyRows(d.primary_engine(), 0, 150, "pre-");
    // And it accepts new writes.
    co_await LoadRows(d.primary_engine(), 150, 50, "post-");
    co_await VerifyRows(d.primary_engine(), 150, 50, "post-");
  });
  d.Stop();
}

// Commit one single-key transaction: a Put, or a Delete for "".
Task<> CommitOne(Engine* e, uint64_t key, const std::string& value) {
  auto txn = e->Begin();
  if (value.empty()) {
    EXPECT_TRUE(e->Delete(txn.get(), key).ok());
  } else {
    EXPECT_TRUE(e->Put(txn.get(), key, value).ok());
  }
  Status s = co_await e->Commit(txn.get());
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// Versions in an encoded chain; a malformed chain fails the test.
size_t ChainLength(Slice chain) {
  engine::ChainReader reader(chain);
  engine::VersionView v;
  size_t n = 0;
  while (reader.Next(&v)) n++;
  EXPECT_FALSE(reader.malformed());
  return n;
}

TEST(ClusterTest, LeafBytesEqualOnEveryTierAfterTrimCapAndTombstone) {
  // Leaf records carry only the new version, and every tier rebuilds
  // the chain itself. After updates that cap, trim and tombstone chains
  // (and the splits of the load), the Secondary's and the Page Servers'
  // pages must equal the Primary's byte for byte.
  Simulator s;
  Deployment d(s, SmallDeployment(2, 1));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    Engine* e = d.primary_engine();
    co_await LoadRows(e, 0, 300, "v");
    // The Secondary reads every row, so it caches the leaves and keeps
    // them fresh by redo.
    co_await d.secondary(0)->applier()->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    co_await VerifyRows(d.secondary(0)->engine(), 0, 300, "v");

    // A held snapshot stops trimming: key 1 grows to the cap, key 2 to
    // four versions.
    auto snapshot = e->Begin(true);
    for (int i = 0; i < 12; i++) {
      co_await CommitOne(e, MakeKey(1, 1), "capped" + std::to_string(i));
    }
    for (int i = 0; i < 3; i++) {
      co_await CommitOne(e, MakeKey(1, 2), "held" + std::to_string(i));
    }
    EXPECT_TRUE((co_await e->Commit(snapshot.get())).ok());
    // With the snapshot gone, the next write trims key 2 to two versions.
    co_await CommitOne(e, MakeKey(1, 2), "trimmed");
    co_await CommitOne(e, MakeKey(1, 3), "");  // tombstones
    co_await CommitOne(e, MakeKey(1, 250), "");
    auto capped = co_await e->btree()->Find(MakeKey(1, 1));
    auto trimmed = co_await e->btree()->Find(MakeKey(1, 2));
    auto deleted = co_await e->btree()->Find(MakeKey(1, 3));
    EXPECT_TRUE(capped.ok() && trimmed.ok() && deleted.ok());
    if (capped.ok() && trimmed.ok() && deleted.ok()) {
      EXPECT_EQ(ChainLength(capped->chain), engine::kMaxChainLength);
      EXPECT_EQ(ChainLength(trimmed->chain), 2u);
      engine::VersionView newest;
      EXPECT_EQ(engine::Newest(deleted->chain, &newest),
                engine::ChainLookup::kFound);
      EXPECT_TRUE(newest.tombstone);
    }

    const Lsn end = d.log_client().end_lsn();
    co_await d.secondary(0)->applier()->applied_lsn().WaitFor(end);
    for (int p = 0; p < 2; p++) {
      co_await d.page_server(p)->applied_lsn().WaitFor(end);
    }
    {
      // The load filled its leaves, so key 1's growth split one: read
      // every row again so the Secondary caches the new page as well.
      Engine* sec = d.secondary(0)->engine();
      auto txn = sec->Begin(true);
      for (uint64_t k = 0; k < 300; k++) {
        (void)co_await sec->Get(txn.get(), MakeKey(1, k));
      }
      (void)co_await sec->Commit(txn.get());
    }
    // Byte 0-3 hold the checksum, which each tier stamps when it needs.
    int secondary_pages = 0, page_server_pages = 0;
    const PageId next = e->btree()->next_page_id();
    for (PageId id = engine::kRootPageId; id < next; id++) {
      auto want = co_await d.primary()->pool()->GetIfCached(id);
      EXPECT_TRUE(want.ok()) << "page " << id;
      if (!want.ok()) continue;
      const char* bytes = want->page()->cdata() + 4;
      auto sec = co_await d.secondary(0)->pool()->GetIfCached(id);
      if (sec.ok()) {
        EXPECT_EQ(0, memcmp(bytes, sec->page()->cdata() + 4, kPageSize - 4))
            << "secondary page " << id;
        secondary_pages++;
      }
      for (int p = 0; p < 2; p++) {
        auto ps = co_await d.page_server(p)->pool()->GetIfCached(id);
        if (!ps.ok()) continue;
        EXPECT_EQ(0, memcmp(bytes, ps->page()->cdata() + 4, kPageSize - 4))
            << "page server " << p << " page " << id;
        page_server_pages++;
      }
    }
    EXPECT_GT(next, engine::kRootPageId + 2);  // the load split the root
    EXPECT_EQ(secondary_pages, static_cast<int>(next - engine::kRootPageId));
    EXPECT_EQ(page_server_pages,
              static_cast<int>(next - engine::kRootPageId));
  });
  d.Stop();
}

TEST(ClusterTest, PrimaryWarmRestartViaRbpex) {
  Simulator s;
  Deployment d(s, SmallDeployment(2, 0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 150, "a");
    EXPECT_TRUE((co_await d.Checkpoint()).ok());
    co_await LoadRows(d.primary_engine(), 150, 50, "a");  // after ckpt
    uint64_t fetches_before = d.primary()->remote_fetches();
    EXPECT_TRUE((co_await d.RestartPrimary()).ok());
    co_await VerifyRows(d.primary_engine(), 0, 200, "a");
    // The warm RBPEX kept most pages local: far fewer refetches than
    // pages in the database.
    EXPECT_LT(d.primary()->remote_fetches() - fetches_before, 100u);
  });
  d.Stop();
}

TEST(ClusterTest, WarmupAfterRestartRestoresHitRateSooner) {
  // Warm-cache promotion after recovery: with warmup_after_recovery the
  // RBPEX MRU prefix is promoted to memory in the background, so at a
  // fixed instant after restart a probe of the hot working set runs at
  // (>=90% of) the steady-state memory hit rate, while a cold restart
  // still pays an SSD promotion per hot leaf.
  //
  // The probe touches one key per distinct leaf region so each access
  // reflects residency of a different page (a dense pass would hide the
  // per-leaf promotion cost behind ~hundreds of same-leaf mem hits).
  constexpr uint64_t kDbRows = 16000;  // whole DB overflows memory
  constexpr uint64_t kHotRows = 3200;  // hot set fits in memory
  constexpr uint64_t kStride = 100;    // ~2 probes per leaf
  struct Outcome {
    double steady_rate = 0;   // probe mem hit rate before the restart
    double post_rate = 0;     // probe mem hit rate after restart+settle
    uint64_t post_us = 0;     // sim time the post-restart probe took
    uint64_t promoted = 0;
  };
  auto probe = [](Simulator& s, Deployment& d, double* rate,
                  uint64_t* us) -> Task<> {
    engine::BufferPoolStats b0 = d.primary()->pool()->stats();
    uint64_t t0 = s.now();
    auto txn = d.primary_engine()->Begin(true);
    for (uint64_t k = 0; k < kHotRows; k += kStride) {
      auto v = co_await d.primary_engine()->Get(txn.get(), MakeKey(1, k));
      EXPECT_TRUE(v.ok());
    }
    (void)co_await d.primary_engine()->Commit(txn.get());
    if (us != nullptr) *us = s.now() - t0;
    engine::BufferPoolStats b1 = d.primary()->pool()->stats();
    uint64_t acc = b1.accesses() - b0.accesses();
    *rate = acc == 0
                ? 0.0
                : static_cast<double>(b1.mem_hits - b0.mem_hits) / acc;
  };
  auto run = [&probe](bool warmup, Outcome* out) {
    Simulator s;
    DeploymentOptions o = SmallDeployment(2, 0);
    o.compute.mem_pages = 48;
    o.compute.ssd_pages = 512;
    o.compute.warmup_after_recovery = warmup;
    Deployment d(s, o);
    RunSim(s, [&]() -> Task<> {
      EXPECT_TRUE((co_await d.Start()).ok());
      // The load overflows the 24-frame memory tier many times over, so
      // every page also has an RBPEX copy.
      co_await LoadRows(d.primary_engine(), 0, kDbRows, "w");
      EXPECT_TRUE((co_await d.Checkpoint()).ok());
      // Reach steady state on the hot range: the first pass promotes hot
      // leaves from SSD (stamping the SSD MRU order), the second runs
      // from memory.
      co_await VerifyRows(d.primary_engine(), 0, kHotRows, "w");
      co_await VerifyRows(d.primary_engine(), 0, kHotRows, "w");
      co_await probe(s, d, &out->steady_rate, nullptr);

      EXPECT_TRUE((co_await d.RestartPrimary()).ok());
      // Identical settle budget for both configs: warmup spends it
      // promoting the RBPEX MRU prefix, the control spends it idle.
      co_await sim::Delay(s, 200 * 1000);
      out->promoted = d.primary()->pool()->warmup_promoted();
      co_await probe(s, d, &out->post_rate, &out->post_us);
    });
    d.Stop();
  };
  Outcome with, without;
  run(true, &with);
  run(false, &without);
  EXPECT_GT(with.promoted, 0u);
  EXPECT_EQ(without.promoted, 0u);
  // Warmup is back to >=90% of the steady-state hit rate at the fixed
  // settle point; the cold restart is still measurably behind.
  EXPECT_GE(with.post_rate, 0.9 * with.steady_rate)
      << "warmup did not restore the working set";
  EXPECT_LT(without.post_rate, 0.9 * with.steady_rate)
      << "control was already warm; the workload is not discriminating";
  EXPECT_LT(with.post_us, without.post_us)
      << "post-restart probe not faster with a warmed cache";
}

TEST(ClusterTest, CommitsDurableAcrossFullComputeLoss) {
  // Stateless compute invariant: kill the Primary (no failover target),
  // bring up a brand-new one, and every acked commit must be there —
  // reconstructed from XLOG + Page Servers alone.
  Simulator s;
  Deployment d(s, SmallDeployment(2, 1));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 100, "durable-");
    EXPECT_TRUE((co_await d.Failover()).ok());  // new compute, old dies
    co_await VerifyRows(d.primary_engine(), 0, 100, "durable-");
  });
  d.Stop();
}

TEST(ClusterTest, AddSecondaryIsConstantTime) {
  Simulator s;
  Deployment d(s, SmallDeployment(2, 0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 300, "s");
    SimTime t0 = s.now();
    auto sec = co_await d.AddSecondary();
    EXPECT_TRUE(sec.ok());
    SimTime spinup = s.now() - t0;
    // O(1): no data copy at creation (well under a millisecond of
    // simulated time).
    EXPECT_LT(spinup, 1000);
    // It can serve reads (fetching pages on demand).
    co_await (*sec)->applier()->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    co_await VerifyRows((*sec)->engine(), 0, 300, "s");
  });
  d.Stop();
}

TEST(ClusterTest, PageServerCrashRecoversFromRbpexAndLog) {
  Simulator s;
  Deployment d(s, SmallDeployment(2, 0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 200, "p");
    auto* ps = d.page_server(0);
    ps->Crash();
    EXPECT_TRUE((co_await ps->Start()).ok());
    co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());
    co_await VerifyRows(d.primary_engine(), 0, 200, "p");
  });
  d.Stop();
}

TEST(ClusterTest, BackupIsConstantTimeAndPitrRestoresExactState) {
  Simulator s;
  Deployment d(s, SmallDeployment(2, 0));
  std::unique_ptr<Deployment> restored;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 120, "epoch1-");

    auto backup = co_await d.Backup();
    EXPECT_TRUE(backup.ok());

    // More writes after the backup...
    co_await LoadRows(d.primary_engine(), 0, 120, "epoch2-");
    Lsn target = d.durable_end();
    co_await LoadRows(d.primary_engine(), 0, 120, "epoch3-");

    // ...and restore to the point between epoch2 and epoch3.
    auto r = co_await d.PointInTimeRestore(*backup, target);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) {
      restored = std::move(r).value();
      co_await VerifyRows(restored->primary_engine(), 0, 120, "epoch2-");
    }
    // The live database still has epoch3.
    co_await VerifyRows(d.primary_engine(), 0, 120, "epoch3-");
  });
  d.Stop();
}

TEST(ClusterTest, BackupLatencyIndependentOfDataSize) {
  Simulator s;
  Deployment d(s, SmallDeployment(2, 0));
  SimTime small_backup = 0, big_backup = 0;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 20, "b");
    SimTime t0 = s.now();
    auto b1 = co_await d.Backup();
    EXPECT_TRUE(b1.ok());
    small_backup = s.now() - t0;

    co_await LoadRows(d.primary_engine(), 20, 600, "b");
    t0 = s.now();
    auto b2 = co_await d.Backup();
    EXPECT_TRUE(b2.ok());
    big_backup = s.now() - t0;
  });
  // 30x the data, backup time within small constant factors (checkpoint
  // of the dirty tail dominates; the snapshot itself is O(1)).
  EXPECT_LT(big_backup, small_backup * 20);
  d.Stop();
}

TEST(ClusterTest, SecondaryTraversalRaceDetected) {
  // Aggressive updates while a secondary with a tiny cache reads: the
  // secondary must never return wrong data, and the fence-key retry
  // machinery should engage at least occasionally.
  Simulator s;
  DeploymentOptions o = SmallDeployment(2, 1);
  o.compute.mem_pages = 16;
  o.compute.ssd_pages = 32;
  Deployment d(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 50, "w0-");
  });
  bool writer_done = false;
  Spawn(s, Wrap([](Deployment* dp) -> Task<> {
          // One transaction per round: snapshot reads must then see a
          // single round atomically.
          for (int round = 1; round <= 6; round++) {
            Engine* e = dp->primary_engine();
            auto txn = e->Begin();
            for (uint64_t k = 0; k < 300; k++) {
              (void)e->Put(txn.get(), MakeKey(1, k),
                           "w" + std::to_string(round) + "-" +
                               std::to_string(k));
            }
            Status st = co_await e->Commit(txn.get());
            EXPECT_TRUE(st.ok());
          }
        }(&d),
        &writer_done));
  bool reader_done = false;
  Spawn(s, Wrap([](Simulator* sm, Deployment* dp) -> Task<> {
    Engine* e = dp->secondary(0)->engine();
    for (int i = 0; i < 40; i++) {
      auto txn = e->Begin(true);
      auto rows = co_await e->Scan(txn.get(), MakeKey(1, 0), 40);
      EXPECT_TRUE(rows.ok());
      if (rows.ok()) {
        // Snapshot consistency: all values from the same write round.
        std::string round;
        for (auto& [k, v] : *rows) {
          std::string r = v.substr(0, v.find('-') + 1);
          if (round.empty()) round = r;
          EXPECT_EQ(r, round) << "torn snapshot read";
        }
      }
      (void)co_await e->Commit(txn.get());
      co_await sim::Delay(*sm, 1500);
    }
  }(&s, &d),
        &reader_done));
  while (!(writer_done && reader_done) && s.Step()) {
  }
  EXPECT_TRUE(writer_done);
  EXPECT_TRUE(reader_done);
  d.Stop();
}


TEST(ClusterTest, GeoSecondaryLagsButStaysConsistent) {
  Simulator s;
  Deployment d(s, SmallDeployment(2, 0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 80, "geo-");
    // A replica across the planet: ~60 ms RTT (§6 geo-replication).
    auto geo = co_await d.AddGeoSecondary(60000);
    EXPECT_TRUE(geo.ok());
    co_await LoadRows(d.primary_engine(), 80, 40, "geo-");
    // It takes noticeably longer than intra-DC to catch up, but it does,
    // and serves the full consistent state.
    co_await (*geo)->applier()->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    co_await VerifyRows((*geo)->engine(), 0, 120, "geo-");
    EXPECT_GT((*geo)->remote_fetches(), 0u);
  });
  d.Stop();
}

TEST(ClusterTest, CrashedSecondaryStopsApplyingMidBatch) {
  // A Secondary that joins late pulls the whole backlog as one
  // multi-block batch. Crash it while it applies that batch: the block in
  // flight may finish, but no block starting after the crash point may
  // reach the crashed pool.
  Simulator s;
  Deployment d(s, SmallDeployment(2, 0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 400, "lag-");
    auto sec = co_await d.AddSecondary();
    EXPECT_TRUE(sec.ok());
    if (!sec.ok()) co_return;
    compute::ComputeNode* node = *sec;
    co_await node->applier()->applied_lsn().WaitFor(
        engine::kLogStreamStart + 1);
    node->Crash();
    const Lsn at_crash = node->applied_lsn();
    co_await LoadRows(d.primary_engine(), 400, 100, "lag-");
    co_await sim::Delay(s, 100 * 1000);

    // The block in flight at the crash: the one holding `at_crash`.
    Lsn in_flight_end = kInvalidLsn;
    size_t blocks_after = 0;
    Lsn pos = engine::kLogStreamStart;
    while (pos < d.log_client().end_lsn()) {
      auto blocks = co_await d.xlog().Pull(pos, std::nullopt,
                                           xlog::XLogProcess::kPullBytes);
      EXPECT_TRUE(blocks.ok());
      if (!blocks.ok() || blocks->empty()) break;
      for (const xlog::LogBlock& b : *blocks) {
        if (b.start_lsn <= at_crash && at_crash < b.end_lsn()) {
          in_flight_end = b.end_lsn();
        } else if (b.start_lsn > at_crash) {
          blocks_after++;
        }
      }
      pos = blocks->back().end_lsn();
    }
    EXPECT_NE(in_flight_end, kInvalidLsn);
    EXPECT_GT(blocks_after, 1u);  // the batch had more to apply
    EXPECT_LE(node->applied_lsn(), in_flight_end)
        << "crashed at " << at_crash << ", kept applying";
  });
  d.Stop();
}

TEST(ClusterTest, PageServerReplicaFailoverIsInstant) {
  Simulator s;
  Deployment d(s, SmallDeployment(2, 0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 150, "ps-");
    // Hot standby for partition 0 (§6 "second way to add a Page Server").
    EXPECT_TRUE((co_await d.AddPageServerReplica(0)).ok());
    co_await LoadRows(d.primary_engine(), 150, 50, "ps-");
    // Let the replica catch up, then kill the main server.
    co_await d.page_server_replica(0)->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    SimTime t0 = s.now();
    EXPECT_TRUE((co_await d.FailoverPageServer(0)).ok());
    SimTime failover_us = s.now() - t0;
    EXPECT_LT(failover_us, 1000);  // metadata-only rerouting
    // All reads still work — including pages in partition 0 that the
    // primary must refetch through the replica.
    d.primary()->pool()->Crash();
    d.primary()->pool()->Recover(d.durable_end());
    co_await VerifyRows(d.primary_engine(), 0, 200, "ps-");
  });
  d.Stop();
}

TEST(ClusterTest, ResizeComputeKeepsServingAndChangesCores) {
  Simulator s;
  Deployment d(s, SmallDeployment(2, 0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 100, "sz-");
    EXPECT_EQ(d.primary()->cpu().cores(), 8);
    SimTime t0 = s.now();
    EXPECT_TRUE((co_await d.ResizeCompute(32)).ok());
    SimTime resize_us = s.now() - t0;
    EXPECT_EQ(d.primary()->cpu().cores(), 32);
    co_await VerifyRows(d.primary_engine(), 0, 100, "sz-");
    co_await LoadRows(d.primary_engine(), 100, 20, "sz-");
    // O(1): no size-of-data step in the serverless resize (§5).
    EXPECT_LT(resize_us, 200000);
  });
  d.Stop();
}

TEST(ClusterTest, RecoveryBoundedDespiteLongRunningTransaction) {
  // The ADR property (§3.2): a long-running open transaction does NOT
  // lengthen recovery, because pages never contain uncommitted data and
  // recovery is pure redo from the last checkpoint.
  Simulator s;
  Deployment d(s, SmallDeployment(2, 0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 100, "adr-");
    EXPECT_TRUE((co_await d.Checkpoint()).ok());

    // Baseline: crash+restart right after a checkpoint.
    SimTime t0 = s.now();
    EXPECT_TRUE((co_await d.RestartPrimary()).ok());
    SimTime base_recovery = s.now() - t0;

    // Now with a long-running transaction that has been open across many
    // other commits (the classic unbounded-undo nightmare for ARIES).
    EXPECT_TRUE((co_await d.Checkpoint()).ok());
    auto long_txn = d.primary_engine()->Begin();
    (void)d.primary_engine()->Put(long_txn.get(),
                                  engine::MakeKey(3, 999), "uncommitted");
    co_await LoadRows(d.primary_engine(), 100, 60, "adr-");
    EXPECT_TRUE((co_await d.Checkpoint()).ok());

    t0 = s.now();
    EXPECT_TRUE((co_await d.RestartPrimary()).ok());
    SimTime long_txn_recovery = s.now() - t0;

    // Recovery with the long transaction open is within a small factor
    // of the baseline (both bounded by the checkpoint interval), and the
    // uncommitted write is simply gone.
    EXPECT_LT(long_txn_recovery, base_recovery * 5 + 50000);
    auto check = d.primary_engine()->Begin(true);
    auto gone = co_await d.primary_engine()->Get(
        check.get(), engine::MakeKey(3, 999));
    EXPECT_TRUE(gone.status().IsNotFound());
    (void)co_await d.primary_engine()->Commit(check.get());
    co_await VerifyRows(d.primary_engine(), 0, 160, "adr-");
  });
  d.Stop();
}


TEST(ClusterTest, DistributedCheckpointPersistsControlState) {
  Simulator s;
  Deployment d(s, SmallDeployment(3, 0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 120, "dc-");
    // All partitions checkpoint in parallel, then the control record.
    SimTime t0 = s.now();
    EXPECT_TRUE((co_await d.CheckpointAll()).ok());
    SimTime all_us = s.now() - t0;
    for (int p = 0; p < d.num_page_servers(); p++) {
      EXPECT_GT(d.page_server(p)->checkpoints_completed(), 0u);
    }
    // The replay point survives outside any compute node's memory.
    auto persisted = co_await d.LoadControlCheckpointLsn();
    EXPECT_TRUE(persisted.ok());
    if (persisted.ok()) {
      EXPECT_EQ(*persisted, d.last_checkpoint_lsn());
    }
    // Parallelism sanity: three partitions in parallel should not take
    // three times one partition's checkpoint (XStore round trips
    // overlap). Measure one serial round for comparison.
    co_await LoadRows(d.primary_engine(), 120, 60, "dc-");
    t0 = s.now();
    EXPECT_TRUE((co_await d.page_server(0)->Checkpoint()).ok());
    EXPECT_TRUE((co_await d.page_server(1)->Checkpoint()).ok());
    EXPECT_TRUE((co_await d.page_server(2)->Checkpoint()).ok());
    SimTime serial_us = s.now() - t0;
    EXPECT_LT(all_us, serial_us * 2);  // loose: parallel ≲ serial
    // Recovery through the persisted control point still works.
    EXPECT_TRUE((co_await d.RestartPrimary()).ok());
    co_await VerifyRows(d.primary_engine(), 0, 180, "dc-");
  });
  d.Stop();
}

// ------------------------------------------------------------------ HADR

// One snapshot-read transaction over a strided key slice; concurrent
// instances produce overlapping page misses for the RBIO batcher.
Task<> ReadSlice(Engine* e, uint64_t start, uint64_t n,
                 sim::WaitGroup* wg) {
  auto txn = e->Begin(true);
  for (uint64_t k = start; k < start + n; k++) {
    auto v = co_await e->Get(txn.get(), MakeKey(1, k));
    EXPECT_TRUE(v.ok()) << "key " << k << ": " << v.status().ToString();
  }
  (void)co_await e->Commit(txn.get());
  wg->Done();
}

TEST(ClusterTest, BatchAndWaiterCountersConsistent) {
  Simulator s;
  DeploymentOptions o = SmallDeployment(/*page_servers=*/1,
                                        /*secondaries=*/0);
  o.compute.mem_pages = 8;
  o.compute.ssd_pages = 0;  // no RBPEX: every capacity miss goes remote
  Deployment d(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    // Enough rows that the full leaves of an ascending load overflow
    // the 8-frame memory tier several times over.
    co_await LoadRows(d.primary_engine(), 0, 2400, "v");
    // Eight concurrent readers over disjoint slices: their misses
    // overlap in time and get multiplexed into batch frames.
    sim::WaitGroup wg(s);
    for (uint64_t r = 0; r < 8; r++) {
      wg.Add();
      Spawn(s, ReadSlice(d.primary_engine(), r * 300, 300, &wg));
    }
    co_await wg.Wait();
  });
  rbio::RbioClient& client = d.primary()->rbio_client();
  pageserver::PageServer* ps = d.page_server(0);
  // The concurrent miss streams actually multiplexed.
  EXPECT_GT(client.batches_sent(), 0u);
  EXPECT_GT(client.round_trips_saved(), 0u);
  // Counter consistency, client side: every wire request is a batch
  // frame, a lone miss being a frame of one (no retries in this run).
  EXPECT_EQ(client.retries(), 0u);
  EXPECT_EQ(client.requests_sent(), client.batches_sent());
  EXPECT_EQ(client.round_trips_saved(),
            client.batched_pages() - client.batches_sent());
  // Server side: GetPage@LSN requests == batch entries, and the two
  // tiers agree about what crossed the wire.
  EXPECT_EQ(ps->batch_requests(), client.batches_sent());
  EXPECT_EQ(ps->batch_subrequests(), client.batched_pages());
  EXPECT_EQ(ps->getpage_requests(), client.batched_pages());
  // Freshness waits were recorded (one per LSN group of each frame), and
  // event-driven wakes carry no poll-quantization lag.
  EXPECT_GT(ps->freshness_wait_us().count(), 0u);
  EXPECT_LE(ps->freshness_wait_us().count(), ps->getpage_requests());
  EXPECT_EQ(ps->waiter_wake_lag_us().max(), 0.0);
  d.Stop();
}

// Same-page misses collapse in the compute node's buffer pool before they
// reach RBIO: concurrent cold Gets of one key put one page on the wire,
// in one frame.
TEST(ClusterTest, ConcurrentColdGetsOfOneKeyFetchOnePage) {
  constexpr int kReaders = 5;
  Simulator s;
  DeploymentOptions o = SmallDeployment(/*page_servers=*/1,
                                        /*secondaries=*/0);
  o.compute.ssd_pages = 0;  // the purged leaf can only come back remotely
  Deployment d(s, o);
  uint64_t pages = 0;
  uint64_t frames = 0;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    Engine* e = d.primary_engine();
    co_await LoadRows(e, 0, 200, "v");
    co_await d.page_server(0)->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    // Only the key's leaf is cold; the pages above it stay resident.
    Result<PageId> leaf = co_await e->btree()->LeafIdFor(MakeKey(1, 100));
    EXPECT_TRUE(leaf.ok());
    if (!leaf.ok()) co_return;
    d.primary()->pool()->Purge(*leaf);
    rbio::RbioClient& client = d.primary()->rbio_client();
    pages = client.batched_pages();
    frames = client.batches_sent();
    sim::WaitGroup wg(s);
    for (int r = 0; r < kReaders; r++) {
      wg.Add();
      Spawn(s, ReadSlice(e, 100, 1, &wg));
    }
    co_await wg.Wait();
    pages = client.batched_pages() - pages;
    frames = client.batches_sent() - frames;
  });
  EXPECT_EQ(pages, 1u);
  EXPECT_EQ(frames, 1u);
  d.Stop();
}

TEST(ClusterTest, FreshnessWaitWakesExactlyOnApply) {
  Simulator s;
  Deployment d(s, SmallDeployment(/*page_servers=*/1, /*secondaries=*/0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 100, "v");
    pageserver::PageServer* ps = d.page_server(0);
    co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());
    // Park a GetPage@LSN probe beyond the applied watermark, then
    // advance the watermark at an instant that is NOT a multiple of the
    // old 300 µs poll quantum. The probe must complete at that instant.
    Lsn target = ps->applied_lsn().value() + 64;
    SimTime probe_done_at = 0;
    Status probe_status;
    Spawn(s, [](pageserver::PageServer* p, Simulator* sm, Lsn t,
                SimTime* at, Status* st) -> Task<> {
      auto r = co_await p->GetPageAtLsn(engine::kRootPageId, t);
      *at = sm->now();
      *st = r.status();
    }(ps, &s, target, &probe_done_at, &probe_status));
    co_await sim::Delay(s, 137);
    SimTime advanced_at = s.now();
    ps->applied_lsn().Advance(target);
    co_await sim::Delay(s, 1000);
    EXPECT_TRUE(probe_status.ok()) << probe_status.ToString();
    // Event-driven wake: the probe finished within CPU-cost distance of
    // the advance — far inside the old 300 µs poll floor.
    EXPECT_GE(probe_done_at, advanced_at);
    EXPECT_LT(probe_done_at - advanced_at, 50);
    EXPECT_GE(ps->waiter_wakes(), 1u);
    EXPECT_EQ(ps->waiter_wake_lag_us().max(), 0.0);
  });
  d.Stop();
}

TEST(ClusterTest, CrashDuringFreshnessWaitReturnsUnavailable) {
  Simulator s;
  Deployment d(s, SmallDeployment(/*page_servers=*/1, /*secondaries=*/0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 100, "v");
    pageserver::PageServer* ps = d.page_server(0);
    co_await ps->applied_lsn().WaitFor(d.log_client().end_lsn());
    // A probe waiting for log that will never arrive in this
    // incarnation...
    Lsn target = ps->applied_lsn().value() + 1000000;
    bool done = false;
    Status probe_status;
    Spawn(s, [](pageserver::PageServer* p, Lsn t, Status* st,
                bool* dn) -> Task<> {
      auto r = co_await p->GetPageAtLsn(engine::kRootPageId, t);
      *st = r.status();
      *dn = true;
    }(ps, target, &probe_status, &done));
    co_await sim::Delay(s, 500);
    EXPECT_FALSE(done);  // parked on the waiter heap
    // ...fails Unavailable the moment the server dies, instead of
    // leaking a suspended coroutine.
    ps->Crash();
    co_await sim::Delay(s, 10);
    EXPECT_TRUE(done);
    EXPECT_TRUE(probe_status.IsUnavailable())
        << probe_status.ToString();
    EXPECT_TRUE((co_await ps->Start()).ok());  // server restarts cleanly
  });
  d.Stop();
}

TEST(HadrTest, CommitAndReadBack) {
  Simulator s;
  xstore::XStore xs(s);
  hadr::HadrCluster cluster(s, &xs);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await cluster.Start()).ok());
    co_await LoadRows(cluster.primary_engine(), 0, 100, "h");
    co_await VerifyRows(cluster.primary_engine(), 0, 100, "h");
  });
  cluster.Stop();
  s.Run();
}

TEST(HadrTest, SecondariesReplicateEverything) {
  Simulator s;
  xstore::XStore xs(s);
  hadr::HadrCluster cluster(s, &xs);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await cluster.Start()).ok());
    co_await LoadRows(cluster.primary_engine(), 0, 80, "r");
    for (int i = 0; i < cluster.num_secondaries(); i++) {
      co_await cluster.secondary(i)->applier()->applied_lsn().WaitFor(
          cluster.sink()->hardened_lsn());
      co_await VerifyRows(cluster.secondary(i)->engine(), 0, 80, "r");
    }
  });
  cluster.Stop();
  s.Run();
}

TEST(HadrTest, SecondariesHoldThePrimarysPagesByteForByte) {
  // Blocks reach each Secondary with their own network delay, so a later
  // block can arrive first. Redo must still see every page's records in
  // LSN order: leaf records carry only the new version and a split's
  // left half is an operation on the page, so an out-of-order apply
  // would lose versions or fail the split. Eight concurrent writers
  // keep several blocks in flight.
  Simulator s;
  xstore::XStore xs(s);
  hadr::HadrCluster cluster(s, &xs);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await cluster.Start()).ok());
    const std::string prefix = "w";  // outlives the writers' frames
    std::vector<Task<>> writers;
    for (int w = 0; w < 8; w++) {
      writers.push_back(
          LoadRows(cluster.primary_engine(), w * 1000, 400, prefix));
    }
    co_await sim::Gather(s, std::move(writers));
    for (int w = 0; w < 8; w++) {
      co_await LoadRows(cluster.primary_engine(), w * 1000, 100, "update");
    }
    Engine* primary = cluster.primary_engine();
    const PageId next = primary->btree()->next_page_id();
    EXPECT_GT(next, engine::kRootPageId + 2);
    for (int i = 0; i < cluster.num_secondaries(); i++) {
      co_await cluster.secondary(i)->applier()->applied_lsn().WaitFor(
          cluster.sink()->hardened_lsn());
      for (PageId id = engine::kRootPageId; id < next; id++) {
        auto want = co_await primary->pool()->GetPage(id);
        auto got =
            co_await cluster.secondary(i)->engine()->pool()->GetPage(id);
        EXPECT_TRUE(want.ok() && got.ok()) << "page " << id;
        if (!want.ok() || !got.ok()) continue;
        EXPECT_EQ(0, memcmp(want->page()->cdata() + 4,
                            got->page()->cdata() + 4, kPageSize - 4))
            << "secondary " << i << " page " << id;
      }
    }
  });
  cluster.Stop();
  s.Run();
}

TEST(HadrTest, FailoverKeepsData) {
  Simulator s;
  xstore::XStore xs(s);
  hadr::HadrCluster cluster(s, &xs);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await cluster.Start()).ok());
    co_await LoadRows(cluster.primary_engine(), 0, 60, "f");
    EXPECT_TRUE((co_await cluster.Failover()).ok());
    co_await VerifyRows(cluster.primary_engine(), 0, 60, "f");
    co_await LoadRows(cluster.primary_engine(), 60, 30, "g");
    co_await VerifyRows(cluster.primary_engine(), 60, 30, "g");
  });
  cluster.Stop();
  s.Run();
}

TEST(HadrTest, SeedingIsSizeOfData) {
  Simulator s;
  xstore::XStore xs(s);
  hadr::HadrCluster cluster(s, &xs);
  SimTime small_seed = 0, big_seed = 0;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await cluster.Start()).ok());
    co_await LoadRows(cluster.primary_engine(), 0, 50, "s");
    auto r1 = co_await cluster.SeedNewSecondary();
    EXPECT_TRUE(r1.ok());
    small_seed = *r1;
    co_await LoadRows(cluster.primary_engine(), 50, 1500, "s");
    auto r2 = co_await cluster.SeedNewSecondary();
    EXPECT_TRUE(r2.ok());
    big_seed = *r2;
  });
  // O(size-of-data): 30x the data means much longer seeding (vs the
  // Socrates AddSecondary test above, which is O(1)).
  EXPECT_GT(big_seed, small_seed * 5);
  cluster.Stop();
  s.Run();
}

TEST(HadrTest, LogThroughputThrottledByBackup) {
  // With a tiny backup-lag allowance and slow XStore, log production
  // stalls; Socrates (snapshot backups) has no such coupling.
  Simulator s;
  xstore::XStore xs(s, sim::DeviceProfile::XStore(),
                    /*bandwidth_mb_s=*/2.0);
  hadr::HadrOptions opts;
  opts.max_backup_lag_bytes = 64 * KiB;
  hadr::HadrCluster cluster(s, &xs, opts);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await cluster.Start()).ok());
    // Write enough log to exceed the backup lag window.
    for (int i = 0; i < 80; i++) {
      auto txn = cluster.primary_engine()->Begin();
      (void)cluster.primary_engine()->Put(
          txn.get(), MakeKey(1, i), std::string(2048, 'x'));
      EXPECT_TRUE((co_await cluster.primary_engine()->Commit(txn.get()))
                      .ok());
    }
  });
  EXPECT_GT(cluster.sink()->backup_stalls(), 0u);
  cluster.Stop();
  s.Run();
}

}  // namespace
}  // namespace service
}  // namespace socrates
