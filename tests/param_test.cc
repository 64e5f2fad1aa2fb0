// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
//  * B-tree differential test across value-size / keyspace shapes
//  * buffer pool hit-rate & correctness across tier geometries
//  * snapshot-isolation visibility across version-chain depths
//  * log replay determinism across block sizes and loss rates
//  * Zipf skew across theta values

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "chaos/chaos.h"
#include "engine/btree.h"
#include "engine/buffer_pool.h"
#include "engine/log_sink.h"
#include "engine/redo.h"
#include "engine/txn_engine.h"
#include "xlog/landing_zone.h"
#include "xlog/xlog_client.h"
#include "xlog/xlog_process.h"
#include "xstore/xstore.h"

namespace socrates {
namespace {

using engine::BTree;
using engine::BufferPool;
using engine::BufferPoolOptions;
using engine::Engine;
using engine::MemLogSink;
using sim::Simulator;
using sim::Spawn;
using sim::Task;

Task<> Wrap(Task<> inner, bool* done) {
  co_await std::move(inner);
  *done = true;
}

template <typename Fn>
void RunSim(Simulator& s, Fn&& fn) {
  bool done = false;
  Spawn(s, Wrap(fn(), &done));
  while (!done && s.Step()) {
  }
  ASSERT_TRUE(done);
}

// ---------------------------------------------------- B-tree differential

// (value_size, keyspace, ops)
using BTreeParam = std::tuple<int, uint64_t, int>;

class BTreeSweep : public ::testing::TestWithParam<BTreeParam> {};

TEST_P(BTreeSweep, MatchesModel) {
  auto [value_size, keyspace, ops] = GetParam();
  Simulator sim;
  MemLogSink sink(sim);
  BufferPoolOptions po;
  po.mem_pages = 1 << 20;
  BufferPool pool(sim, po, nullptr);
  BTree tree(sim, &pool, &sink);
  std::map<uint64_t, std::string> model;
  RunSim(sim, [&]() -> Task<> {
    EXPECT_TRUE((co_await tree.Create()).ok());
    Random rng(keyspace * 31 + value_size);
    for (int i = 0; i < ops; i++) {
      uint64_t key = rng.Uniform(keyspace);
      if (rng.Bernoulli(0.8) || model.count(key) == 0) {
        std::string v(1 + rng.Uniform(value_size), 'a' + key % 26);
        // Trimming at the commit timestamp keeps only the new version.
        EXPECT_TRUE((co_await tree.Write(1, key, /*commit_ts=*/1, false,
                                         Slice(v), /*trim_ts=*/1))
                        .ok());
        model[key] = v;
      } else {
        EXPECT_TRUE((co_await tree.Erase(1, key)).ok());
        model.erase(key);
      }
    }
    // Full differential scan.
    auto mit = model.begin();
    size_t seen = 0;
    auto r = co_await tree.Scan(
        0, SIZE_MAX, [&](uint64_t k, Slice chain) {
          if (mit == model.end()) return false;
          EXPECT_EQ(k, mit->first);
          engine::VersionView newest;
          EXPECT_EQ(engine::Newest(chain, &newest),
                    engine::ChainLookup::kFound);
          EXPECT_EQ(newest.payload.ToString(), mit->second);
          ++mit;
          seen++;
          return true;
        });
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(seen, model.size());
    EXPECT_TRUE(mit == model.end());
    // Point lookups for absent keys.
    for (int i = 0; i < 50; i++) {
      uint64_t key = keyspace + rng.Uniform(1000);
      auto miss = co_await tree.Find(key);
      EXPECT_TRUE(miss.status().IsNotFound());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BTreeSweep,
    ::testing::Values(
        BTreeParam{16, 200, 2000},     // tiny values, dense keys
        BTreeParam{300, 500, 2000},    // medium values
        BTreeParam{1500, 300, 1200},   // large values: few per page
        BTreeParam{64, 1u << 30, 2000},  // sparse keyspace
        BTreeParam{700, 64, 3000}));   // heavy churn on few keys

// ------------------------------------------------- BufferPool geometries

// (mem_pages, ssd_pages, pages, accesses)
using PoolParam = std::tuple<size_t, size_t, PageId, int>;

class PoolGeometry : public ::testing::TestWithParam<PoolParam> {};

class StampFetcher : public engine::PageFetcher {
 public:
  explicit StampFetcher(Simulator& sim) : sim_(sim) {}
  Task<Result<storage::Page>> FetchPage(PageId id) override {
    co_await sim::Delay(sim_, 200);
    storage::Page p;
    p.Format(id, storage::PageType::kBTreeLeaf);
    p.set_page_lsn(id + 1);
    p.UpdateChecksum();
    co_return p;
  }

 private:
  Simulator& sim_;
};

TEST_P(PoolGeometry, AlwaysServesCorrectPage) {
  auto [mem, ssd, pages, accesses] = GetParam();
  Simulator sim;
  StampFetcher fetcher(sim);
  BufferPoolOptions opts;
  opts.mem_pages = mem;
  opts.ssd_pages = ssd;
  BufferPool pool(sim, opts, &fetcher);
  RunSim(sim, [&]() -> Task<> {
    Random rng(mem * 7 + ssd);
    for (int i = 0; i < accesses; i++) {
      PageId want = rng.Uniform(pages);
      auto ref = co_await pool.GetPage(want);
      EXPECT_TRUE(ref.ok());
      if (ref.ok()) {
        EXPECT_EQ(ref->page()->page_id(), want);
        EXPECT_EQ(ref->page()->page_lsn(), want + 1);
      }
    }
  });
  // Sanity on stats: hits + misses == accesses.
  EXPECT_EQ(pool.stats().accesses(), static_cast<uint64_t>(accesses));
  if (mem + ssd >= pages) {
    // Covering configuration: at most `pages` fetches ever.
    EXPECT_LE(pool.stats().misses, pages);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PoolGeometry,
    ::testing::Values(PoolParam{2, 0, 16, 2000},    // mem only, thrashing
                      PoolParam{4, 8, 64, 3000},    // tiny tiers
                      PoolParam{8, 64, 64, 3000},   // covering ssd
                      PoolParam{64, 0, 32, 2000},   // covering mem
                      PoolParam{3, 5, 200, 4000})); // deep thrash

// ------------------------------------------ Snapshot isolation sweeps

class ChainDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChainDepthSweep, EverySnapshotSeesItsVersion) {
  const int depth = GetParam();
  Simulator sim;
  MemLogSink sink(sim);
  BufferPoolOptions po;
  po.mem_pages = 1 << 16;
  BufferPool pool(sim, po, nullptr);
  Engine eng(sim, &pool, &sink);
  RunSim(sim, [&]() -> Task<> {
    EXPECT_TRUE((co_await eng.Bootstrap()).ok());
    // Keep `depth` snapshots open while writing depth+2 versions.
    std::vector<std::unique_ptr<engine::Transaction>> snaps;
    for (int v = 1; v <= depth; v++) {
      auto w = eng.Begin();
      (void)eng.Put(w.get(), 42, "v" + std::to_string(v));
      EXPECT_TRUE((co_await eng.Commit(w.get())).ok());
      snaps.push_back(eng.Begin(true));  // snapshot right after version v
    }
    // Each snapshot must see exactly its version (the open snapshots
    // hold Trim back).
    for (int v = 1; v <= depth; v++) {
      auto r = co_await eng.Get(snaps[v - 1].get(), 42);
      EXPECT_TRUE(r.ok()) << "snapshot " << v;
      if (r.ok()) {
        EXPECT_EQ(*r, "v" + std::to_string(v));
      }
    }
    for (auto& s : snaps) (void)co_await eng.Commit(s.get());
  });
}

INSTANTIATE_TEST_SUITE_P(Depths, ChainDepthSweep,
                         ::testing::Values(1, 2, 4, 7));

// -------------------------------------- Log pipeline block-size sweep

// (max_block_bytes, loss_prob_pct)
using LogParam = std::tuple<uint64_t, int>;

class LogPipelineSweep : public ::testing::TestWithParam<LogParam> {};

TEST_P(LogPipelineSweep, ReplicaConvergesByteExact) {
  auto [block_bytes, loss_pct] = GetParam();
  Simulator sim;
  xstore::XStore lt(sim);
  xlog::LandingZone lz(sim, sim::DeviceProfile::DirectDrive(), 64 * MiB);
  xlog::XLogOptions xopts;
  xopts.sequence_map_bytes = 512 * KiB;
  xlog::XLogProcess xlog(sim, &lz, &lt, xopts);
  chaos::Injector chaos;
  chaos.SetLink("logwriter", chaos::kXLogSite, loss_pct / 100.0, 0);
  xlog::XLogClientOptions copts;
  copts.max_block_bytes = block_bytes;
  copts.chaos = chaos::SitePort(&chaos, "logwriter");
  xlog::XLogClient client(sim, &lz, &xlog, nullptr, copts);
  xlog.Start();
  client.Start();

  // Produce through a real engine so records are realistic.
  BufferPoolOptions po;
  po.mem_pages = 1 << 16;
  BufferPool pool(sim, po, nullptr);
  Engine eng(sim, &pool, &client);

  BufferPoolOptions rpo;
  rpo.mem_pages = 1 << 16;
  BufferPool replica_pool(sim, rpo, nullptr);
  engine::RedoApplier applier(sim, &replica_pool,
                              engine::RedoApplier::MissPolicy::kMaterialize);
  Engine replica(sim, &replica_pool, nullptr);
  replica.SetReadTsProvider([&] { return applier.applied_commit_ts(); });

  RunSim(sim, [&]() -> Task<> {
    EXPECT_TRUE((co_await eng.Bootstrap()).ok());
    Random rng(block_bytes + loss_pct);
    for (int t = 0; t < 150; t++) {
      auto txn = eng.Begin();
      for (int i = 0; i < 8; i++) {
        (void)eng.Put(txn.get(), rng.Uniform(400),
                      std::string(50 + rng.Uniform(400), 'x'));
      }
      EXPECT_TRUE((co_await eng.Commit(txn.get())).ok());
    }
    (void)co_await client.Flush();
    // Replica consumes everything.
    Lsn pos = engine::kLogStreamStart;
    Lsn target = client.end_lsn();
    int idle = 0;
    while (pos < target && idle < 10000) {
      auto blocks = co_await xlog.Pull(pos, std::nullopt, 1 * MiB);
      if (!blocks.ok() || blocks->empty()) {
        idle++;
        co_await sim::Delay(sim, 2000);
        continue;
      }
      idle = 0;
      for (auto& b : *blocks) {
        auto end =
            co_await applier.ApplyStream(Slice(b.payload()), b.start_lsn);
        EXPECT_TRUE(end.ok()) << end.status().ToString();
        if (!end.ok()) co_return;
        applier.applied_lsn().Advance(*end);
        pos = b.start_lsn + b.payload_size;
      }
    }
    EXPECT_GE(pos, target);
    // Replica state must equal primary state.
    auto p_txn = eng.Begin(true);
    auto r_txn = replica.Begin(true);
    for (uint64_t k = 0; k < 400; k++) {
      auto pv = co_await eng.Get(p_txn.get(), k);
      auto rv = co_await replica.Get(r_txn.get(), k);
      EXPECT_EQ(pv.ok(), rv.ok()) << "key " << k;
      if (pv.ok() && rv.ok()) {
        EXPECT_EQ(*pv, *rv);
      }
    }
    (void)co_await eng.Commit(p_txn.get());
    (void)co_await replica.Commit(r_txn.get());
  });
}

INSTANTIATE_TEST_SUITE_P(
    BlocksAndLoss, LogPipelineSweep,
    ::testing::Values(LogParam{4 * KiB, 0},   // tiny blocks
                      LogParam{60 * KiB, 0},  // production block size
                      LogParam{60 * KiB, 30}, // heavy loss: LZ repairs
                      LogParam{16 * KiB, 10},
                      LogParam{60 * KiB, 60}));  // pathological loss

// ------------------------------------------------------------- Zipf sweep

class ZipfThetaSweep : public ::testing::TestWithParam<int> {};

TEST_P(ZipfThetaSweep, SkewIncreasesWithTheta) {
  double theta = GetParam() / 100.0;
  ZipfGenerator zipf(100000, theta, 9);
  std::map<uint64_t, int> counts;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; i++) counts[zipf.Next()]++;
  // Mass of the hottest 1% of the keyspace.
  int hot = 0;
  for (auto& [k, c] : counts) {
    if (k < 1000) hot += c;
  }
  double frac = static_cast<double>(hot) / kDraws;
  // Uniform would give ~1%; any real theta gives much more, growing in
  // theta.
  EXPECT_GT(frac, 0.05);
  if (theta >= 0.9) {
    EXPECT_GT(frac, 0.3);
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfThetaSweep,
                         ::testing::Values(50, 70, 90, 99));

}  // namespace
}  // namespace socrates
