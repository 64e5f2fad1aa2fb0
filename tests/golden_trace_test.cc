// Golden-trace determinism: the substrate refactor (timing-wheel event
// core, pooled coroutine frames, zero-copy pages, shared log blocks) is
// held to a bit-for-bit determinism contract. Every executed event folds
// its (virtual time, sequence) into the simulator's trace hash; the same
// seed must produce the identical hash on every run — with and without a
// chaos fault schedule running against the deployment.
//
// The hashes are also pinned to constants, so a change that moves the
// simulation between commits fails here rather than only within one
// build. A deliberate simulation change re-pins them (print the new
// values from this test's failure output) and says why in CHANGES.md.

#include <gtest/gtest.h>

#include <string>

#include "chaos/fault_plan.h"
#include "service/cluster_monitor.h"
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

template <typename Fn>
void RunSim(Simulator& s, Fn&& fn) {
  bool done = false;
  Spawn(s, Wrap(fn(), &done));
  int guard = 0;
  while (!done && s.Step()) {
    if (++guard > 400000000) break;
  }
  ASSERT_TRUE(done) << "driver task did not finish";
}

// One full deployment run: start, commit a seeded workload, read it
// back, stop. Returns the folded event-trace hash.
uint64_t RunWorkloadTrace(uint64_t seed) {
  Simulator s;
  s.EnableTraceHash();
  DeploymentOptions o;
  o.partition_map.pages_per_partition = 1024;
  o.num_page_servers = 2;
  o.num_secondaries = 1;
  o.compute.mem_pages = 48;
  o.compute.ssd_pages = 128;
  Deployment d(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    Engine* e = d.primary_engine();
    for (uint64_t k = 0; k < 200; k++) {
      auto txn = e->Begin();
      // Value size depends on the seed so different seeds produce a
      // different log volume (and thus a different event schedule).
      std::string val(8 + (seed * 7 + k) % 96, 'v');
      (void)e->Put(txn.get(), MakeKey(1, (seed + k) % 300), val);
      (void)co_await e->Commit(txn.get());
    }
    for (uint64_t k = 0; k < 50; k++) {
      auto txn = e->Begin();
      auto got = co_await e->Get(txn.get(), MakeKey(1, (seed + k) % 300));
      (void)got;
    }
    co_await d.page_server(0)->applied_lsn().WaitFor(
        d.log_client().end_lsn());
  });
  d.Stop();
  s.Run();
  return s.trace_hash();
}

// Same shape as the chaos soak: window faults (partitions, flaky links,
// gray latency) scheduled from a seeded FaultPlan while the workload
// commits, with the monitor repairing damage.
uint64_t RunChaosTrace(uint64_t seed) {
  Simulator s;
  s.EnableTraceHash();
  DeploymentOptions o;
  o.partition_map.pages_per_partition = 512;
  o.num_page_servers = 2;
  o.num_secondaries = 1;
  o.compute.mem_pages = 48;
  o.compute.ssd_pages = 128;
  o.page_server.checkpoint_interval_us = 150 * 1000;
  Deployment d(s, o);

  chaos::RandomPlanOptions ro;
  ro.num_page_servers = 2;
  ro.num_secondaries = 1;
  ro.events = 6;
  ro.start_us = 150 * 1000;
  ro.horizon_us = 900 * 1000;
  ro.crashes = false;  // window faults only; crash timing is test-driven
  chaos::FaultPlan plan = chaos::FaultPlan::Random(seed, ro);

  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    d.EnableMonitor();
    chaos::SchedulePlan(s, plan, d.ChaosTargets());
    const SimTime end = plan.end_us() + 100 * 1000;
    uint64_t k = 0;
    while (s.now() < end) {
      if (d.primary() != nullptr && d.primary()->alive()) {
        Engine* e = d.primary_engine();
        auto txn = e->Begin();
        (void)e->Put(txn.get(), MakeKey(1, k % 200),
                     "c" + std::to_string(k));
        (void)co_await e->Commit(txn.get());
        k++;
      }
      co_await sim::Delay(s, 2000);
    }
  });
  d.Stop();
  s.Run();
  return s.trace_hash();
}

// Commit `n` seeded rows starting at key `from` through `e`.
Task<> CommitSeededRows(Engine* e, uint64_t seed, uint64_t from,
                        uint64_t n) {
  for (uint64_t k = from; k < from + n; k++) {
    auto txn = e->Begin();
    std::string val(8 + (seed * 13 + k) % 80, 'f');
    (void)e->Put(txn.get(), MakeKey(1, k % 400), val);
    (void)co_await e->Commit(txn.get());
  }
}

// Every log-consumer role in one run: the Secondary is promoted over a
// crashed Primary, the new Primary warm-restarts (RBPEX + serial log
// replay), a point-in-time restore replays into Page Servers that stop
// at apply_until, and a geo Secondary pulls across a shipping delay.
uint64_t RunFailoverTrace(uint64_t seed) {
  Simulator s;
  s.EnableTraceHash();
  DeploymentOptions o;
  o.partition_map.pages_per_partition = 512;
  o.num_page_servers = 2;
  o.num_secondaries = 1;
  o.compute.mem_pages = 48;
  o.compute.ssd_pages = 128;
  Deployment d(s, o);
  std::unique_ptr<Deployment> restored;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await CommitSeededRows(d.primary_engine(), seed, 0, 120);
    Result<BackupHandle> backup = co_await d.Backup();
    EXPECT_TRUE(backup.ok());
    co_await CommitSeededRows(d.primary_engine(), seed, 120, 80);
    EXPECT_TRUE((co_await d.Failover()).ok());
    co_await CommitSeededRows(d.primary_engine(), seed, 200, 60);
    EXPECT_TRUE((co_await d.Checkpoint()).ok());
    co_await CommitSeededRows(d.primary_engine(), seed, 260, 40);
    EXPECT_TRUE((co_await d.RestartPrimary()).ok());
    const Lsn target = d.durable_end();
    co_await CommitSeededRows(d.primary_engine(), seed, 300, 40);
    if (backup.ok()) {
      auto r = co_await d.PointInTimeRestore(*backup, target);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) restored = std::move(r).value();
    }
    auto geo = co_await d.AddGeoSecondary(20000);
    EXPECT_TRUE(geo.ok());
    co_await CommitSeededRows(d.primary_engine(), seed, 340, 40);
    if (geo.ok()) {
      co_await (*geo)->applier()->applied_lsn().WaitFor(
          d.log_client().end_lsn());
      auto txn = (*geo)->engine()->Begin(true);
      for (uint64_t k = 0; k < 40; k++) {
        (void)co_await (*geo)->engine()->Get(txn.get(), MakeKey(1, k * 7));
      }
    }
    if (restored != nullptr) {
      auto txn = restored->primary_engine()->Begin(true);
      for (uint64_t k = 0; k < 40; k++) {
        (void)co_await restored->primary_engine()->Get(txn.get(),
                                                       MakeKey(1, k * 7));
      }
    }
  });
  if (restored != nullptr) restored->Stop();
  d.Stop();
  s.Run();
  return s.trace_hash();
}

// Pinned values; see the header comment before changing them.
constexpr uint64_t kWorkloadTrace7 = 0x69304480f1e25b3aull;
constexpr uint64_t kChaosTrace3 = 0x0f8873da2e645e74ull;
constexpr uint64_t kFailoverTrace5 = 0x1b931fb6aa809a43ull;

TEST(GoldenTrace, WorkloadTraceIdenticalAcrossRuns) {
  const uint64_t h1 = RunWorkloadTrace(7);
  const uint64_t h2 = RunWorkloadTrace(7);
  const uint64_t h3 = RunWorkloadTrace(7);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2, h3);
  EXPECT_EQ(h1, kWorkloadTrace7);
  // And the hash actually depends on the workload (not a constant).
  EXPECT_NE(h1, RunWorkloadTrace(8));
}

TEST(GoldenTrace, ChaosTraceIdenticalAcrossRuns) {
  const uint64_t h1 = RunChaosTrace(3);
  const uint64_t h2 = RunChaosTrace(3);
  const uint64_t h3 = RunChaosTrace(3);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2, h3);
  EXPECT_EQ(h1, kChaosTrace3);
  EXPECT_NE(h1, RunChaosTrace(4));
}

TEST(GoldenTrace, FailoverTraceIdenticalAcrossRuns) {
  const uint64_t h1 = RunFailoverTrace(5);
  const uint64_t h2 = RunFailoverTrace(5);
  const uint64_t h3 = RunFailoverTrace(5);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2, h3);
  EXPECT_EQ(h1, kFailoverTrace5);
  EXPECT_NE(h1, RunFailoverTrace(6));
}

// Restore blob names (which seed checkpoint jitter) are counted per
// deployment: a restore traces the same alone and after two earlier
// restores in the same process.
TEST(GoldenTrace, RestoreIsUnaffectedByEarlierRestores) {
  const uint64_t alone = RunFailoverTrace(5);
  (void)RunFailoverTrace(6);
  (void)RunFailoverTrace(6);
  EXPECT_EQ(RunFailoverTrace(5), alone);
}

}  // namespace
}  // namespace service
}  // namespace socrates
