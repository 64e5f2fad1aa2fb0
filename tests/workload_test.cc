// Workload-layer tests: CDB load/transaction execution, mixes, CPU
// accounting, the TPC-E-like skew, and the client driver — driven against
// a standalone engine (MemLogSink) and against a full Socrates deployment.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "service/deployment.h"
#include "workload/cdb.h"
#include "workload/tpce_like.h"
#include "workload/workload.h"

namespace socrates {
namespace workload {
namespace {

using engine::Engine;
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
  ASSERT_TRUE(done) << "driver task did not finish";
}

struct StandaloneEngine {
  Simulator sim;
  engine::MemLogSink sink{sim};
  engine::BufferPoolOptions pool_opts;
  std::unique_ptr<engine::BufferPool> pool;
  std::unique_ptr<Engine> eng;
  sim::CpuResource cpu{sim, 8};

  StandaloneEngine() {
    pool_opts.mem_pages = 1 << 20;
    pool = std::make_unique<engine::BufferPool>(sim, pool_opts, nullptr);
    eng = std::make_unique<Engine>(sim, pool.get(), &sink);
    Spawn(sim, [](Engine* e) -> Task<> {
      EXPECT_TRUE((co_await e->Bootstrap()).ok());
    }(eng.get()));
    sim.Run();
  }
};

TEST(CdbTest, LoadPopulatesAllTables) {
  StandaloneEngine se;
  CdbOptions opts;
  opts.scale_factor = 10;
  CdbWorkload cdb(opts, CdbMix::Default());
  RunSim(se.sim, [&]() -> Task<> {
    EXPECT_TRUE((co_await cdb.Load(se.eng.get())).ok());
    // Spot-check each table: first and last row exist.
    auto txn = se.eng->Begin(true);
    for (int t = 0; t < 6; t++) {
      auto first = co_await se.eng->Get(
          txn.get(), engine::MakeKey(static_cast<TableId>(t + 1), 0));
      EXPECT_TRUE(first.ok()) << "table " << t;
      if (first.ok()) {
        EXPECT_EQ(first->size(), cdb.options().payload_bytes[t]);
      }
      auto last = co_await se.eng->Get(
          txn.get(), engine::MakeKey(static_cast<TableId>(t + 1),
                                     cdb.TableRows(t) - 1));
      EXPECT_TRUE(last.ok()) << "table " << t;
      auto past = co_await se.eng->Get(
          txn.get(), engine::MakeKey(static_cast<TableId>(t + 1),
                                     cdb.TableRows(t)));
      EXPECT_TRUE(past.status().IsNotFound()) << "table " << t;
    }
    (void)co_await se.eng->Commit(txn.get());
  });
}

TEST(CdbTest, MixesProduceExpectedWriteShare) {
  StandaloneEngine se;
  CdbOptions opts;
  opts.scale_factor = 5;
  opts.cpu_scale = 0.1;  // fast test
  auto measure = [&](CdbMix mix) {
    CdbWorkload cdb(opts, mix);
    int writes = 0, total = 0;
    RunSim(se.sim, [&]() -> Task<> {
      Random rng(7);
      for (int i = 0; i < 300; i++) {
        TxnResult r = co_await cdb.RunOne(se.eng.get(), nullptr, &rng);
        EXPECT_TRUE(r.committed);
        total++;
        if (r.is_write) writes++;
      }
    });
    return std::make_pair(writes, total);
  };
  // Load once.
  CdbWorkload loader(opts, CdbMix::Default());
  RunSim(se.sim, [&]() -> Task<> {
    EXPECT_TRUE((co_await loader.Load(se.eng.get())).ok());
  });
  auto [w_default, n_default] = measure(CdbMix::Default());
  EXPECT_GT(w_default, n_default / 8);  // ~25% writes
  EXPECT_LT(w_default, n_default / 2);
  auto [w_maxlog, n_maxlog] = measure(CdbMix::MaxLog());
  EXPECT_EQ(w_maxlog, n_maxlog);  // all writes
  auto [w_ro, n_ro] = measure(CdbMix::ReadOnly());
  EXPECT_EQ(w_ro, 0);
  auto [w_lite, n_lite] = measure(CdbMix::UpdateLite());
  EXPECT_EQ(w_lite, n_lite);
}

TEST(CdbTest, MaxLogProducesFarMoreLogThanReadOnly) {
  StandaloneEngine se;
  CdbOptions opts;
  opts.scale_factor = 5;
  opts.cpu_scale = 0.1;
  CdbWorkload loader(opts, CdbMix::Default());
  RunSim(se.sim, [&]() -> Task<> {
    EXPECT_TRUE((co_await loader.Load(se.eng.get())).ok());
  });
  auto log_for = [&](CdbMix mix) {
    CdbWorkload cdb(opts, mix);
    uint64_t before = se.sink.end_lsn();
    RunSim(se.sim, [&]() -> Task<> {
      Random rng(11);
      for (int i = 0; i < 100; i++) {
        (void)co_await cdb.RunOne(se.eng.get(), nullptr, &rng);
      }
    });
    return se.sink.end_lsn() - before;
  };
  uint64_t maxlog = log_for(CdbMix::MaxLog());
  uint64_t lite = log_for(CdbMix::UpdateLite());
  uint64_t ro = log_for(CdbMix::ReadOnly());
  EXPECT_GT(maxlog, 20 * lite);  // bulk updates dwarf tiny updates
  EXPECT_EQ(ro, 0u);             // read-only writes no log
}

TEST(TpceTest, SkewConcentratesAccesses) {
  StandaloneEngine se;
  TpceOptions opts;
  opts.customers = 5000;
  TpceLikeWorkload tpce(opts);
  RunSim(se.sim, [&]() -> Task<> {
    EXPECT_TRUE((co_await tpce.Load(se.eng.get())).ok());
    Random rng(3);
    for (int i = 0; i < 200; i++) {
      TxnResult r = co_await tpce.RunOne(se.eng.get(), nullptr, &rng);
      EXPECT_TRUE(r.committed);
    }
  });
  EXPECT_GT(se.eng->stats().reads, 400u);
}

TEST(DriverTest, ReportsThroughputAndCpu) {
  StandaloneEngine se;
  CdbOptions opts;
  opts.scale_factor = 5;
  opts.cpu_scale = 1.0;
  CdbWorkload cdb(opts, CdbMix::Default());
  DriverReport report;
  RunSim(se.sim, [&]() -> Task<> {
    EXPECT_TRUE((co_await cdb.Load(se.eng.get())).ok());
    DriverOptions dopts;
    dopts.clients = 16;
    dopts.warmup_us = 100 * 1000;
    dopts.measure_us = 1 * 1000 * 1000;
    report = co_await RunDriver(se.sim, se.eng.get(), &se.cpu, &cdb,
                                dopts);
  });
  EXPECT_GT(report.commits, 100u);
  EXPECT_NEAR(report.total_tps,
              static_cast<double>(report.commits), 1e-3 * report.commits);
  EXPECT_GT(report.cpu_utilization, 0.3);  // 16 clients on 8 cores: busy
  EXPECT_LE(report.cpu_utilization, 1.0);
  EXPECT_GT(report.read_tps, report.write_tps);  // default mix is ~75% read
  EXPECT_GT(report.latency_us.count(), 0u);
}

TEST(DriverTest, MoreClientsMoreThroughputUntilSaturation) {
  StandaloneEngine se;
  CdbOptions opts;
  opts.scale_factor = 5;
  CdbWorkload cdb(opts, CdbMix::UpdateLite());
  RunSim(se.sim, [&]() -> Task<> {
    EXPECT_TRUE((co_await cdb.Load(se.eng.get())).ok());
  });
  auto tps_with = [&](int clients) {
    DriverReport report;
    RunSim(se.sim, [&]() -> Task<> {
      DriverOptions dopts;
      dopts.clients = clients;
      dopts.warmup_us = 50 * 1000;
      dopts.measure_us = 500 * 1000;
      report = co_await RunDriver(se.sim, se.eng.get(), &se.cpu, &cdb,
                                  dopts);
    });
    return report.total_tps;
  };
  double t1 = tps_with(1);
  double t8 = tps_with(8);
  EXPECT_GT(t8, t1 * 2);  // scales with clients before saturation
}

// Full-stack: drive CDB against a real Socrates deployment.
TEST(DriverTest, RunsAgainstSocratesDeployment) {
  Simulator s;
  service::DeploymentOptions o;
  o.partition_map.pages_per_partition = 4096;
  o.num_page_servers = 1;
  o.compute.mem_pages = 2048;
  o.compute.ssd_pages = 8192;
  service::Deployment d(s, o);
  CdbOptions copts;
  copts.scale_factor = 5;
  CdbWorkload cdb(copts, CdbMix::Default());
  DriverReport report;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    EXPECT_TRUE((co_await cdb.Load(d.primary_engine())).ok());
    DriverOptions dopts;
    dopts.clients = 8;
    dopts.warmup_us = 50 * 1000;
    dopts.measure_us = 500 * 1000;
    report = co_await RunDriver(s, d.primary_engine(),
                                &d.primary()->cpu(), &cdb, dopts);
  });
  EXPECT_GT(report.commits, 20u);
  // Bulk updates on a tiny scale factor legitimately conflict sometimes
  // (first-committer-wins), but commits must dominate.
  EXPECT_LT(report.aborts, report.commits);
  d.Stop();
}

TEST(CdbTest, PointLookupFailsWhenNoPageServerServesItsPage) {
  Simulator s;
  service::DeploymentOptions o;
  o.partition_map.pages_per_partition = 4096;
  o.num_page_servers = 1;
  o.compute.mem_pages = 16;  // most lookups miss the compute cache
  o.compute.ssd_pages = 16;
  service::Deployment d(s, o);
  CdbOptions copts;
  copts.scale_factor = 200;  // ~300 pages: far past the cache
  CdbWorkload loader(copts, CdbMix::Default());
  CdbMix lookups;
  lookups.weights[static_cast<int>(CdbTxnType::kPointLookup)] = 1.0;
  CdbWorkload cdb(copts, lookups);
  int failed_in_outage = 0, failed_after = 0;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    EXPECT_TRUE((co_await loader.Load(d.primary_engine())).ok());
    co_await d.page_server(0)->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    Random rng(5);
    d.chaos().SetOutage("ps-0", true);
    for (int i = 0; i < 10; i++) {
      TxnResult r = co_await cdb.RunOne(d.primary_engine(), nullptr, &rng);
      EXPECT_FALSE(r.is_write);
      if (!r.committed) failed_in_outage++;
    }
    d.chaos().SetOutage("ps-0", false);
    for (int i = 0; i < 10; i++) {
      TxnResult r = co_await cdb.RunOne(d.primary_engine(), nullptr, &rng);
      if (!r.committed) failed_after++;
    }
  });
  // A lookup whose page no Page Server serves fails its transaction; it
  // does not commit as if the row were read.
  EXPECT_GT(failed_in_outage, 0);
  EXPECT_EQ(failed_after, 0);
  EXPECT_EQ(d.primary_engine()->stats().aborts,
            static_cast<uint64_t>(failed_in_outage));
  d.Stop();
}

// A loaded CDB database (scale 200, ~330 leaves) on two Page Servers
// behind a small compute cache (16 memory + 16 RBPEX pages by default):
// almost every leaf is remote.
struct ColdCdb {
  static CdbOptions Options() {
    CdbOptions copts;
    copts.scale_factor = 200;
    return copts;
  }
  static CdbMix PointLookups() {
    CdbMix mix;
    mix.weights[static_cast<int>(CdbTxnType::kPointLookup)] = 1.0;
    return mix;
  }
  static service::DeploymentOptions Deploy(size_t mem_pages,
                                           size_t ssd_pages) {
    service::DeploymentOptions o;
    o.partition_map.pages_per_partition = 256;
    o.num_page_servers = 2;
    o.compute.mem_pages = mem_pages;
    o.compute.ssd_pages = ssd_pages;
    return o;
  }

  Simulator s;
  service::Deployment d;
  CdbWorkload cdb{Options(), PointLookups()};

  explicit ColdCdb(size_t mem_pages = 16, size_t ssd_pages = 16)
      : d(s, Deploy(mem_pages, ssd_pages)) {
    RunSim(s, [this]() -> Task<> {
      EXPECT_TRUE((co_await d.Start()).ok());
      EXPECT_TRUE((co_await cdb.Load(d.primary_engine())).ok());
      for (int i = 0; i < d.num_page_servers(); i++) {
        co_await d.page_server(i)->applied_lsn().WaitFor(
            d.log_client().end_lsn());
      }
    });
  }
  ~ColdCdb() { d.Stop(); }

  Engine* engine() { return d.primary_engine(); }
  engine::BufferPool* pool() { return engine()->pool(); }
  uint64_t frames() { return d.primary()->rbio_client().batches_sent(); }

  // Chaos site of the Page Server that serves `page`.
  std::string SiteOf(PageId page) const {
    return d.PageServerSite(d.partition_map().PartitionOf(page));
  }

  // The keys RunOne's point lookup reads for `seed`, in its draw order.
  std::vector<uint64_t> LookupKeys(uint64_t seed) const {
    Random rng(seed);
    (void)rng.NextDouble();  // the transaction type
    std::vector<uint64_t> keys(1 + rng.Uniform(10));
    for (uint64_t& key : keys) {
      const int t = static_cast<int>(rng.Uniform(6));
      key = engine::MakeKey(static_cast<TableId>(t + 1),
                            rng.Uniform(cdb.TableRows(t)));
    }
    return keys;
  }

  // The first lookup of at least `min_keys` keys, all on distinct leaves
  // cached on neither compute tier, whose leaves `accept` (when given)
  // takes: its RunOne seed, or 0.
  Task<uint64_t> FindColdLookup(
      size_t min_keys, std::vector<uint64_t>* keys,
      std::vector<PageId>* leaves,
      std::function<bool(const std::vector<PageId>&)> accept = nullptr) {
    for (uint64_t sd = 1; sd < 5000; sd++) {
      std::vector<uint64_t> k = LookupKeys(sd);
      if (k.size() < min_keys) continue;
      std::vector<PageId> l;
      std::set<PageId> distinct;
      for (uint64_t key : k) {
        Result<PageId> leaf = co_await engine()->btree()->LeafIdFor(key);
        if (leaf.ok() && !pool()->Contains(*leaf)) {
          l.push_back(*leaf);
          distinct.insert(*leaf);
        }
      }
      if (distinct.size() == k.size() && (!accept || accept(l))) {
        *keys = std::move(k);
        *leaves = std::move(l);
        co_return sd;
      }
    }
    co_return 0;
  }

  // Snapshot reads of `keys`, by key: all started at once (StartGets) and
  // taken as they land, or one after another.
  Task<std::map<uint64_t, std::string>> Read(
      const std::vector<uint64_t>& keys, bool batched) {
    auto txn = engine()->Begin(true);
    std::map<uint64_t, std::string> values;
    auto keep = [&](uint64_t key, const Result<std::string>& v) {
      EXPECT_TRUE(v.ok()) << v.status().ToString();
      values[key] = v.ok() ? *v : v.status().ToString();
    };
    if (batched) {
      engine::GetBatch reads = engine()->StartGets(txn.get(), keys);
      for (size_t i = 0; i < keys.size(); i++) {
        engine::GetBatch::Read read = co_await reads.Next();
        keep(keys[read.index], read.value);
      }
      co_await reads.Join();
    } else {
      for (uint64_t key : keys) {
        keep(key, co_await engine()->Get(txn.get(), key));
      }
    }
    (void)co_await engine()->Commit(txn.get());
    co_return values;
  }
};

TEST(CdbTest, PointLookupFetchesItsLeavesInOneFramePerPageServer) {
  ColdCdb db;
  // A lookup of at least six keys, each on its own leaf outside the
  // compute cache.
  uint64_t seed = 0;
  std::vector<uint64_t> keys;
  std::vector<PageId> leaves;
  RunSim(db.s, [&]() -> Task<> {
    seed = co_await db.FindColdLookup(6, &keys, &leaves);
  });
  ASSERT_NE(seed, 0u);
  const uint64_t frames = db.frames();
  const uint64_t leaf_misses = db.pool()->stats().leaf_misses;
  RunSim(db.s, [&]() -> Task<> {
    Random rng(seed);
    TxnResult r = co_await db.cdb.RunOne(db.engine(), nullptr, &rng);
    EXPECT_TRUE(r.committed);
  });
  // One GetPage frame per Page Server, not one per key; each leaf is
  // counted as the miss it was.
  EXPECT_LE(db.frames() - frames,
            static_cast<uint64_t>(db.d.num_page_servers()));
  EXPECT_EQ(db.pool()->stats().leaf_misses - leaf_misses, keys.size());

  // The batch reads what sequential Gets read, on a twin database.
  ColdCdb twin;
  std::map<uint64_t, std::string> batched, sequential;
  const uint64_t twin_frames = twin.frames();
  RunSim(twin.s, [&]() -> Task<> {
    batched = co_await twin.Read(keys, /*batched=*/true);
  });
  EXPECT_LE(twin.frames() - twin_frames,
            static_cast<uint64_t>(twin.d.num_page_servers()));
  RunSim(db.s, [&]() -> Task<> {
    sequential = co_await db.Read(keys, /*batched=*/false);
  });
  EXPECT_EQ(batched, sequential);
}

// Ten cold leaves through a 4-frame memory tier with a 16-page RBPEX:
// each read takes its row as its leaf lands, so no leaf is evicted
// before it is read, then fetched or read back from RBPEX a second time.
TEST(CdbTest, PointLookupFetchesEachLeafOnceThroughASmallMemoryTier) {
  ColdCdb db(/*mem_pages=*/4, /*ssd_pages=*/16);
  uint64_t seed = 0;
  std::vector<uint64_t> keys;
  std::vector<PageId> leaves;
  RunSim(db.s, [&]() -> Task<> {
    seed = co_await db.FindColdLookup(10, &keys, &leaves);
  });
  ASSERT_NE(seed, 0u);
  ASSERT_EQ(keys.size(), 10u);
  const engine::BufferPoolStats before = db.pool()->stats();
  RunSim(db.s, [&]() -> Task<> {
    Random rng(seed);
    TxnResult r = co_await db.cdb.RunOne(db.engine(), nullptr, &rng);
    EXPECT_TRUE(r.committed);
  });
  const engine::BufferPoolStats& after = db.pool()->stats();
  // One remote fetch per leaf, and no leaf read back from memory or
  // RBPEX.
  EXPECT_EQ(after.leaf_misses - before.leaf_misses, keys.size());
  EXPECT_EQ(after.leaf_hits - before.leaf_hits, 0u);

  // The rows are what sequential Gets read on a twin deployment.
  ColdCdb twin(/*mem_pages=*/4, /*ssd_pages=*/16);
  std::map<uint64_t, std::string> batched, sequential;
  RunSim(db.s, [&]() -> Task<> {
    batched = co_await db.Read(keys, /*batched=*/true);
  });
  RunSim(twin.s, [&]() -> Task<> {
    sequential = co_await twin.Read(keys, /*batched=*/false);
  });
  EXPECT_EQ(batched, sequential);
}

// The third key's Page Server is down, and the other server is slower
// than the failure: the lookup aborts only once every read has finished.
TEST(CdbTest, PointLookupJoinsEveryReadBeforeItAborts) {
  ColdCdb db;
  uint64_t seed = 0;
  std::vector<uint64_t> keys;
  std::vector<PageId> leaves;
  // A later key on the other Page Server than the third key's.
  auto later_key_elsewhere = [&](const std::vector<PageId>& l) {
    for (size_t i = 3; i < l.size(); i++) {
      if (db.SiteOf(l[i]) != db.SiteOf(l[2])) return true;
    }
    return false;
  };
  RunSim(db.s, [&]() -> Task<> {
    seed = co_await db.FindColdLookup(4, &keys, &leaves,
                                      later_key_elsewhere);
  });
  ASSERT_NE(seed, 0u);
  const std::string down = db.SiteOf(leaves[2]);
  std::string slow;
  size_t slow_keys = 0;
  for (size_t i = 3; i < leaves.size(); i++) {
    if (db.SiteOf(leaves[i]) != down) {
      slow = db.SiteOf(leaves[i]);
      slow_keys++;
    }
  }
  const uint64_t reads = db.engine()->stats().reads;
  const uint64_t aborts = db.engine()->stats().aborts;
  RunSim(db.s, [&]() -> Task<> {
    // The first two keys read from memory; the third fails after the
    // RBIO retries (~12 ms), and the slow server answers after 50 ms.
    auto warm = db.engine()->Begin(true);
    for (int i = 0; i < 2; i++) {
      EXPECT_TRUE((co_await db.engine()->Get(warm.get(), keys[i])).ok());
    }
    EXPECT_TRUE((co_await db.engine()->Commit(warm.get())).ok());
    EXPECT_TRUE(db.pool()->InMemory(leaves[0]));
    EXPECT_TRUE(db.pool()->InMemory(leaves[1]));
    db.d.chaos().SetOutage(down, true);
    db.d.chaos().SetGrayDelay(slow, 50 * 1000);
    const uint64_t leaf_misses = db.pool()->stats().leaf_misses;
    Random rng(seed);
    TxnResult r = co_await db.cdb.RunOne(db.engine(), nullptr, &rng);
    EXPECT_FALSE(r.committed);
    // Every key's read ran, and each one on the slow server had landed
    // its leaf before RunOne returned.
    EXPECT_EQ(db.engine()->stats().reads - reads, 2 + keys.size());
    EXPECT_EQ(db.pool()->stats().leaf_misses - leaf_misses, slow_keys);
    db.d.chaos().SetOutage(down, false);
    db.d.chaos().SetGrayDelay(slow, 0);
  });
  EXPECT_EQ(db.engine()->stats().aborts - aborts, 1u);
}

// A batch of [a key whose leaf only a Page Server has, a key whose leaf
// is in memory]: Next() hands out the cached row first, before the
// remote leaf could have made one round trip.
TEST(CdbTest, PointLookupTakesACachedRowBeforeAnEarlierRemoteOne) {
  // The fastest RBIO round trip: two legs at the intra-DC network's
  // 120 us floor.
  constexpr SimTime kRoundTripFloorUs = 2 * 120;
  ColdCdb db;
  uint64_t seed = 0;
  std::vector<uint64_t> keys;
  std::vector<PageId> leaves;
  RunSim(db.s, [&]() -> Task<> {
    seed = co_await db.FindColdLookup(2, &keys, &leaves);
  });
  ASSERT_NE(seed, 0u);
  keys.resize(2);
  RunSim(db.s, [&]() -> Task<> {
    auto warm = db.engine()->Begin(true);
    EXPECT_TRUE((co_await db.engine()->Get(warm.get(), keys[1])).ok());
    EXPECT_TRUE((co_await db.engine()->Commit(warm.get())).ok());
    EXPECT_TRUE(db.pool()->InMemory(leaves[1]));
    EXPECT_FALSE(db.pool()->Contains(leaves[0]));

    auto txn = db.engine()->Begin(true);
    const SimTime start = db.s.now();
    engine::GetBatch reads = db.engine()->StartGets(txn.get(), keys);
    engine::GetBatch::Read first = co_await reads.Next();
    EXPECT_EQ(first.index, 1u);
    EXPECT_TRUE(first.value.ok());
    EXPECT_LT(db.s.now() - start, kRoundTripFloorUs);
    engine::GetBatch::Read second = co_await reads.Next();
    EXPECT_EQ(second.index, 0u);
    EXPECT_TRUE(second.value.ok());
    EXPECT_GE(db.s.now() - start, kRoundTripFloorUs);
    co_await reads.Join();
    EXPECT_TRUE((co_await db.engine()->Commit(txn.get())).ok());
  });
}

TEST(DriverTest, HtapMixPushesAnalyticScansDown) {
  Simulator s;
  service::DeploymentOptions o;
  o.partition_map.pages_per_partition = 4096;
  o.num_page_servers = 1;
  o.compute.mem_pages = 256;  // analytic spans overflow the memory tier
  o.compute.ssd_pages = 1024;
  // This test asserts that scans *reach* the Page Server; force the wire
  // so the cost planner can't keep warm ranges local.
  o.compute.pushdown_plan = compute::PushdownPlan::kPush;
  service::Deployment d(s, o);
  CdbOptions copts;
  copts.scale_factor = 5;
  CdbWorkload cdb(copts, CdbMix::Htap());
  DriverReport report;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    EXPECT_TRUE((co_await cdb.Load(d.primary_engine())).ok());
    DriverOptions dopts;
    dopts.clients = 8;
    dopts.warmup_us = 50 * 1000;
    dopts.measure_us = 500 * 1000;
    report = co_await RunDriver(s, d.primary_engine(),
                                &d.primary()->cpu(), &cdb, dopts);
  });
  EXPECT_GT(report.commits, 20u);
  // The 30% analytic slice ran filtered scans, and at least some of
  // them were evaluated on the Page Server (the mix mods are all
  // selective enough or aggregating).
  const engine::EngineStats& es = d.primary_engine()->stats();
  EXPECT_GT(es.filtered_scans, 0u);
  EXPECT_GT(es.pushdown_scans, 0u);
  EXPECT_GT(d.page_server(0)->scan_requests(), 0u);
  d.Stop();
}

}  // namespace
}  // namespace workload
}  // namespace socrates
