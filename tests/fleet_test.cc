// Multi-tenant fleet tests: tenant directory routing, a victim tenant's
// point reads defended from a neighbor's scans on a shared host, live
// partition migration with directory-epoch route invalidation, chaos
// injected mid-migration (routes must never be left broken, data must
// never leak across tenants), and golden-trace determinism of a fleet run
// that includes a migration.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fleet/fleet.h"

namespace socrates {
namespace fleet {
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

FleetOptions SmallFleet(int tenants = 2, int hosts = 2) {
  FleetOptions o;
  o.tenants = tenants;
  o.hosts = hosts;
  o.lz_hosts = 2;
  o.tenant.partition_map.pages_per_partition = 256;
  o.tenant.num_page_servers = 2;
  o.tenant.compute.mem_pages = 64;
  o.tenant.compute.ssd_pages = 256;
  o.tenant.page_server.mem_pages = 64;
  o.tenant.page_server.checkpoint_interval_us = 200 * 1000;
  // Cold restarts: after RestartPrimary the compute caches start empty,
  // so reads actually traverse the gateway to the Page Servers (the
  // tiny test rows would otherwise live entirely in local caches).
  o.tenant.compute.warmup_after_recovery = false;
  o.tenant.compute.rbpex_recoverable = false;
  return o;
}

// Checkpoint (bounds replay) then cold-restart the primary so its
// caches are empty and every subsequent read misses to the gateway.
Task<> ColdRestart(service::Deployment* d) {
  (void)co_await d->Checkpoint();
  Status s = co_await d->RestartPrimary();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

Task<> LoadRows(Engine* e, uint64_t start, uint64_t n,
                const std::string& prefix) {
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

// Every tenant routes through its own gateway ports to its own Page
// Servers over the shared pools, and nothing a tenant persists escapes
// its blob namespace.
TEST(FleetTest, RoutingAndTenantIsolation) {
  Simulator s;
  Fleet f(s, SmallFleet(3, 2));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await f.Start()).ok());
    for (int t = 0; t < f.num_tenants(); t++) {
      co_await LoadRows(f.tenant(t)->primary_engine(), 0, 80,
                        "t" + std::to_string(t) + "-");
    }
    for (int t = 0; t < f.num_tenants(); t++) {
      co_await ColdRestart(f.tenant(t));
      co_await VerifyRows(f.tenant(t)->primary_engine(), 0, 80,
                          "t" + std::to_string(t) + "-");
    }
  });
  // All RBIO traffic went through the gateway.
  EXPECT_GT(f.gateway().frames_forwarded(), 0u);
  // Blob namespace isolation: every blob in the shared XStore lives
  // under exactly one tenant's prefix — nothing un-namespaced.
  std::vector<std::string> all = f.xstore().List("");
  EXPECT_FALSE(all.empty());
  for (const std::string& blob : all) {
    bool owned = false;
    for (int t = 0; t < f.num_tenants(); t++) {
      if (blob.rfind("t" + std::to_string(t) + "/", 0) == 0) {
        owned = true;
        break;
      }
    }
    EXPECT_TRUE(owned) << "blob outside any tenant namespace: " << blob;
  }
  for (int t = 0; t < f.num_tenants(); t++) {
    EXPECT_FALSE(f.xstore().List("t" + std::to_string(t) + "/").empty());
  }
  f.Stop();
}

// Live migration moves a partition between hosts; the directory epoch
// bump invalidates every cached route, readers re-resolve and keep
// reading correct data with zero terminal failures.
TEST(FleetTest, MigrationInvalidatesRoutesAndPreservesData) {
  Simulator s;
  FleetOptions o = SmallFleet(2, 2);
  // Tiny compute caches: reads keep going to the Page Servers, so the
  // migrated route is actually exercised after cutover.
  o.tenant.compute.mem_pages = 8;
  o.tenant.compute.ssd_pages = 16;
  Fleet f(s, o);
  uint64_t epoch_before = 0;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await f.Start()).ok());
    co_await LoadRows(f.tenant(0)->primary_engine(), 0, 120, "a");
    co_await LoadRows(f.tenant(1)->primary_engine(), 0, 60, "b");
    // Cold compute: the pre-migration verify flows through the gateway
    // ports, caching the pre-migration route (epoch) in each port.
    co_await ColdRestart(f.tenant(0));
    co_await VerifyRows(f.tenant(0)->primary_engine(), 0, 120, "a");

    epoch_before = f.directory().RouteEpoch(0);
    const int src = f.HostOf(0, 0);
    EXPECT_GE(src, 0);
    const int dst = f.LeastLoadedHost(src);
    EXPECT_NE(src, dst);
    Status ms = co_await f.Migrate(0, 0, dst);
    EXPECT_TRUE(ms.ok()) << ms.ToString();
    EXPECT_EQ(f.HostOf(0, 0), dst);

    // Cold again: reads must go back out the ports, hit the stale cached
    // route, and re-resolve through the bumped directory epoch.
    co_await ColdRestart(f.tenant(0));
    co_await VerifyRows(f.tenant(0)->primary_engine(), 0, 120, "a");
    co_await VerifyRows(f.tenant(1)->primary_engine(), 0, 60, "b");
  });
  EXPECT_EQ(f.migrations(), 1u);
  EXPECT_GT(f.directory().RouteEpoch(0), epoch_before);
  // The migrated tenant's ports re-resolved after the epoch bump; the
  // untouched tenant's routes were never invalidated.
  EXPECT_GT(f.gateway().qos(0).route_refreshes, 0u);
  EXPECT_EQ(f.gateway().qos(1).route_refreshes, 0u);
  // The serving server for the partition now runs on the destination
  // host's shared CPU.
  EXPECT_EQ(&f.directory().Resolve(0, 0)->cpu(),
            f.host(f.HostOf(0, 0)).cpu.get());
  f.Stop();
}

// Bulk yields to interactive: an abusive tenant's pushed-down scans run
// beside the victim tenant's cold point reads on one shared one-core
// host. With scans yielding the host CPU, the victim's GetPage p99 is
// lower than in the same run without; every victim read and every
// abuser scan still returns its own tenant's rows.
TEST(FleetTest, QosShedsAbusiveTenantNotVictim) {
  auto run = [](bool yield) {
    Simulator s;
    FleetOptions o = SmallFleet(2, 1);  // both tenants on one host
    o.host_cpu_cores = 1;
    o.tenant.num_page_servers = 1;
    // Tiny compute caches: point reads keep missing to the gateway.
    o.tenant.compute.mem_pages = 8;
    o.tenant.compute.ssd_pages = 16;
    // Force the wire so every scan reaches the host.
    o.tenant.compute.pushdown_plan = compute::PushdownPlan::kPush;
    o.tenant.page_server.scans_yield_cpu = yield;
    Fleet f(s, o);
    double p99 = 0;
    RunSim(s, [&]() -> Task<> {
      EXPECT_TRUE((co_await f.Start()).ok());
      co_await LoadRows(f.tenant(0)->primary_engine(), 0, 400, "v");
      co_await LoadRows(f.tenant(1)->primary_engine(), 0, 400, "w");
      // Cold victim compute: its point reads miss to the gateway.
      co_await ColdRestart(f.tenant(0));

      // Victim: cold point reads over every row — all must succeed. The
      // prefix outlives the spawned task (VerifyRows holds a reference).
      const std::string victim_prefix = "v";
      bool victim_done = false;
      Spawn(s, Wrap(VerifyRows(f.tenant(0)->primary_engine(), 0, 400,
                               victim_prefix),
                    &victim_done));
      // Abuser: tenant 1 scans the same host for as long as the victim
      // reads.
      Engine* abuser = f.tenant(1)->primary_engine();
      engine::ScanFilter filter;
      filter.predicate = common::ScanPredicate::KeyModEq(10, 0);
      filter.aggregate = common::ScanAggregate::Sum(0);
      while (!victim_done) {
        auto txn = abuser->Begin(true);
        auto r = co_await abuser->ScanWhere(txn.get(), MakeKey(1, 0),
                                            MakeKey(1, 400), 0, filter);
        EXPECT_TRUE(r.ok() && r->pushed_down);
        if (r.ok()) {
          EXPECT_EQ(r->agg.rows, 40u);
        }
        (void)co_await abuser->Commit(txn.get());
      }
      p99 = f.directory().Resolve(0, 0)->getpage_service_us().Percentile(
          99.0);
    });
    EXPECT_GT(f.gateway().qos(0).points_forwarded, 0u);
    EXPECT_GT(f.gateway().qos(1).scans_forwarded, 0u);
    f.Stop();
    return p99;
  };
  const double p99_on = run(true);
  const double p99_off = run(false);
  EXPECT_LT(p99_on, p99_off);
}

// Chaos mid-migration: whatever faults fire — destination host outage,
// source server crash, shared-XStore or LZ outage windows — a migration
// either completes or aborts with the incumbent serving; routes are
// never left broken, reads after the dust settles return every tenant's
// own data, and nothing crosses tenants.
TEST(FleetTest, MidMigrationChaosNeverBreaksRoutesOrLeaksData) {
  for (uint64_t seed = 1; seed <= 4; seed++) {
    Simulator s;
    FleetOptions o = SmallFleet(2, 2);
    o.tenant.compute.mem_pages = 8;
    o.tenant.compute.ssd_pages = 16;
    Fleet f(s, o);
    RunSim(s, [&]() -> Task<> {
      EXPECT_TRUE((co_await f.Start()).ok());
      co_await LoadRows(f.tenant(0)->primary_engine(), 0, 100, "a");
      co_await LoadRows(f.tenant(1)->primary_engine(), 0, 100, "b");
      (void)co_await f.tenant(0)->Checkpoint();

      const int src = f.HostOf(0, 0);
      const int dst = f.LeastLoadedHost(src);
      const std::string dst_site = f.host(dst).site;

      // Fire a seed-chosen fault while the migration runs.
      Random rng(seed * 0x9e3779b97f4a7c15ull);
      const int kind = static_cast<int>(rng.Uniform(4));
      Spawn(s, [](Simulator* sim, Fleet* fleet, int kind,
                  std::string dst_site) -> Task<> {
        co_await sim::Delay(*sim, 500);  // mid-migration
        switch (kind) {
          case 0:  // destination host outage window
            fleet->chaos().SetOutage(dst_site, true);
            co_await sim::Delay(*sim, 30 * 1000);
            fleet->chaos().SetOutage(dst_site, false);
            break;
          case 1:  // source server crashes mid-catch-up
            fleet->tenant(0)->CrashPageServer(0);
            break;
          case 2:  // shared XStore blips
            fleet->chaos().SetOutage("xstore", true);
            co_await sim::Delay(*sim, 20 * 1000);
            fleet->chaos().SetOutage("xstore", false);
            break;
          default:  // tenant 0's LZ host blips
            fleet->chaos().SetOutage("lzhost-0", true);
            co_await sim::Delay(*sim, 20 * 1000);
            fleet->chaos().SetOutage("lzhost-0", false);
            break;
        }
      }(&s, &f, kind, dst_site));

      Status ms = co_await f.Migrate(0, 0, dst);
      // Either outcome is legal; broken state is not.
      (void)ms;
      f.chaos().Clear();
      // The source server may have been crashed (kind 1) and the
      // migration lost the race — recover whoever is down so the fleet
      // is serving again, as the monitor would.
      for (int p = 0; p < f.tenant(0)->num_page_servers(); p++) {
        if (!f.tenant(0)->ServingPageServer(p)->running()) {
          Status rs = co_await f.tenant(0)->RecoverPageServer(p);
          EXPECT_TRUE(rs.ok()) << rs.ToString();
        }
      }
      co_await sim::Delay(s, 50 * 1000);

      // No broken routes: every key of both tenants reads back, with
      // the right tenant's value — no cross-tenant leakage.
      co_await VerifyRows(f.tenant(0)->primary_engine(), 0, 100, "a");
      co_await VerifyRows(f.tenant(1)->primary_engine(), 0, 100, "b");
    });
    // Blob namespaces stayed disjoint under chaos.
    for (const std::string& blob : f.xstore().List("")) {
      EXPECT_TRUE(blob.rfind("t0/", 0) == 0 || blob.rfind("t1/", 0) == 0)
          << "blob outside tenant namespaces: " << blob;
    }
    f.Stop();
  }
}

// Fleet golden trace: a multi-tenant run — shared pools, gateway QoS,
// one live migration — is bit-for-bit deterministic, and the trace is
// sensitive to the seed.
uint64_t RunFleetTrace(uint64_t seed) {
  Simulator s;
  s.EnableTraceHash();
  FleetOptions o = SmallFleet(2, 2);
  o.tenant.compute.mem_pages = 32;
  o.tenant.compute.ssd_pages = 64;
  Fleet f(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await f.Start()).ok());
    for (int t = 0; t < f.num_tenants(); t++) {
      Engine* e = f.tenant(t)->primary_engine();
      for (uint64_t k = 0; k < 120; k++) {
        auto txn = e->Begin();
        std::string val(8 + (seed * 7 + k) % 96, 'v');
        (void)e->Put(txn.get(), MakeKey(1, (seed + k) % 200), val);
        (void)co_await e->Commit(txn.get());
      }
    }
    const int dst = f.LeastLoadedHost(f.HostOf(0, 0));
    EXPECT_TRUE((co_await f.Migrate(0, 0, dst)).ok());
    for (int t = 0; t < f.num_tenants(); t++) {
      Engine* e = f.tenant(t)->primary_engine();
      for (uint64_t k = 0; k < 40; k++) {
        auto txn = e->Begin(true);
        (void)co_await e->Get(txn.get(), MakeKey(1, (seed + k) % 200));
        (void)co_await e->Commit(txn.get());
      }
    }
  });
  f.Stop();
  s.Run();
  return s.trace_hash();
}

TEST(FleetGoldenTrace, IdenticalAcrossRunsAndSeedSensitive) {
  const uint64_t a = RunFleetTrace(7);
  const uint64_t b = RunFleetTrace(7);
  const uint64_t c = RunFleetTrace(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
  EXPECT_NE(a, RunFleetTrace(8));
}

}  // namespace
}  // namespace fleet
}  // namespace socrates
