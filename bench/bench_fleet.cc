// Multi-tenant fleet (§8 economics): tenant isolation under shared
// Page Server hosts, and live partition migration with bounded stall.
//
// The paper's cost argument is pooling: many databases share Page
// Server, XLOG and XStore capacity. That only works if (a) a noisy
// tenant cannot inflate its neighbors' point-read tails — scan
// evaluation is background work on the shared host CPU, so a point read
// never waits behind a neighbor's scan — and (b) the fleet can
// rebalance placement online, moving a partition between hosts without
// a visible outage (§4.3's reseed path does the data movement; the
// directory epoch fences the route swap).
//
// Phases:
//   reseed     crash + recover one Page Server: the PR 5 reseed MTTR,
//              the yardstick the migration stall is gated against;
//   solo       one tenant alone on the host — the point-read p99 floor;
//   qos_on     a second tenant runs bulk scans against the same host,
//              its scan evaluation yielding the host CPU. Victim p99
//              must hold within 1.3x solo;
//   qos_off    the counterfactual: same scans, evaluation queued FIFO
//              with point reads — shows what the neighbor would
//              otherwise do to the victim's tail;
//   migration  continuous reads while the partition live-migrates to
//              another host: zero terminal failures, max stall bounded
//              by 2x the reseed MTTR;
//   sweep      tenant density 1..64 over a fixed host pool: per-tenant
//              p99 and aggregate read throughput as the fleet fills.

#include <cinttypes>
#include <cstring>

#include <vector>

#include "fleet/fleet.h"
#include "harness.h"

using namespace socrates;
using namespace socrates::bench;

namespace {

struct Params {
  uint64_t rows = 12000;  // per tenant, isolation/migration phases
  int readers = 8;
  uint64_t reads_per_reader = 300;
  int scanners = 4;
  SimTime scan_think_us = 1000;
  uint64_t sweep_rows = 1500;
  uint64_t sweep_reads = 120;
  std::vector<int> sweep = {1, 2, 4, 8, 16, 32, 64};
  bool smoke = false;
};

sim::Task<> LoadRows(engine::Engine* e, uint64_t n) {
  std::string payload(120, 'x');
  for (uint64_t i = 0; i < n; i += 64) {
    auto txn = e->Begin();
    for (uint64_t k = i; k < std::min(n, i + 64); k++) {
      (void)e->Put(txn.get(), engine::MakeKey(1, k), payload);
    }
    Status s = co_await e->Commit(txn.get());
    if (!s.ok()) abort();
  }
}

sim::Task<> PointReader(sim::Simulator* sim, engine::Engine* e,
                        uint64_t rows, uint64_t reads, uint64_t seed,
                        Histogram* lat, SimTime* max_us,
                        uint64_t* failures, sim::WaitGroup* wg) {
  Random rng(seed);
  auto txn = e->Begin(true);
  for (uint64_t i = 0; i < reads; i++) {
    uint64_t k = rng.Uniform(rows);
    SimTime t0 = sim->now();
    auto v = co_await e->Get(txn.get(), engine::MakeKey(1, k));
    SimTime took = sim->now() - t0;
    if (!v.ok()) (*failures)++;
    lat->Add(static_cast<double>(took));
    if (max_us != nullptr && took > *max_us) *max_us = took;
  }
  (void)co_await e->Commit(txn.get());
  wg->Done();
}

sim::Task<> Scanner(sim::Simulator* sim, engine::Engine* e,
                    uint64_t rows, SimTime think_us, const bool* stop,
                    sim::WaitGroup* wg) {
  engine::ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(10, 0);
  filter.aggregate = common::ScanAggregate::Sum(0);
  while (!*stop) {
    auto txn = e->Begin(true);
    auto r = co_await e->ScanWhere(txn.get(), engine::MakeKey(1, 0),
                                   engine::MakeKey(1, rows),
                                   /*limit=*/0, filter);
    if (!r.ok()) abort();  // shed scans fall back to the local plan
    (void)co_await e->Commit(txn.get());
    co_await sim::Delay(*sim, think_us);
  }
  wg->Done();
}

// Fleet shape for the isolation phases: every tenant's single partition
// lands on ONE shared host with ONE serving core, so a neighbor's scan
// CPU directly contends with the victim's GetPage serving — the fleet
// analog of bench_pushdown_interference, with scans yielding the host
// CPU as the `qos` toggle.
fleet::FleetOptions IsolationFleet(int tenants, bool qos) {
  fleet::FleetOptions o;
  o.tenants = tenants;
  o.hosts = 1;
  o.lz_hosts = 2;
  o.host_cpu_cores = 1;
  o.tenant.num_page_servers = 1;
  o.tenant.partition_map.pages_per_partition = 16384;
  o.tenant.compute.mem_pages = 64;  // working set >> compute tiers
  o.tenant.compute.ssd_pages = 96;
  o.tenant.compute.warmup_after_recovery = false;
  o.tenant.compute.rbpex_recoverable = false;
  o.tenant.compute.pushdown_plan = compute::PushdownPlan::kPush;
  o.tenant.compute.rbio_wire_mb_per_s = 2000;
  o.tenant.page_server.mem_pages = 512;  // CPU-bound, not IO-bound
  o.tenant.page_server.scans_yield_cpu = qos;
  return o;
}

struct PhaseResult {
  double point_p99_us = 0;    // client-observed victim Get p99
  double getpage_p99_us = 0;  // victim server-side GetPage service p99
  uint64_t failures = 0;
  uint64_t scans_forwarded = 0;  // abuser scans the gateway forwarded
  double sim_ms = 0;             // simulated span of the reader phase
};

PhaseResult MeasureIsolation(const Params& p, int tenants, bool qos,
                             bool scans) {
  sim::Simulator sim;
  fleet::Fleet f(sim, IsolationFleet(tenants, qos));
  PhaseResult r;
  RunSim(sim, [&]() -> sim::Task<> {
    if (!(co_await f.Start()).ok()) abort();
    for (int t = 0; t < f.num_tenants(); t++) {
      co_await LoadRows(f.tenant(t)->primary_engine(), p.rows);
    }
    // Cold compute: checkpoint (bounds replay) + restart with
    // unrecoverable caches — the victim's reads miss through the gateway.
    (void)co_await f.tenant(0)->Checkpoint();
    if (!(co_await f.tenant(0)->RestartPrimary()).ok()) abort();

    Histogram lat;
    sim::WaitGroup readers_wg(sim);
    sim::WaitGroup scanners_wg(sim);
    bool stop = false;
    SimTime t0 = sim.now();
    readers_wg.Add(p.readers);
    for (int i = 0; i < p.readers; i++) {
      sim::Spawn(sim, PointReader(&sim, f.tenant(0)->primary_engine(),
                                  p.rows, p.reads_per_reader,
                                  0xbeef + i * 131, &lat, nullptr,
                                  &r.failures, &readers_wg));
    }
    if (scans && tenants > 1) {
      scanners_wg.Add(p.scanners);
      for (int i = 0; i < p.scanners; i++) {
        sim::Spawn(sim, Scanner(&sim, f.tenant(1)->primary_engine(),
                                p.rows, p.scan_think_us, &stop,
                                &scanners_wg));
      }
    }
    co_await readers_wg.Wait();
    r.sim_ms = static_cast<double>(sim.now() - t0) / 1e3;
    stop = true;
    if (scans && tenants > 1) co_await scanners_wg.Wait();

    r.point_p99_us = lat.Percentile(99.0);
    // The serving-tier health signal: the victim's GetPage *service*
    // time is where a neighbor's scan CPU shows up first (queueing on
    // the shared host core), long before wire latency drowns it out.
    r.getpage_p99_us =
        f.directory().Resolve(0, 0)->getpage_service_us().Percentile(99.0);
    if (tenants > 1) r.scans_forwarded = f.gateway().qos(1).scans_forwarded;
  });
  f.Stop();
  return r;
}

// The migration-stall yardstick: how long the PR 5 reseed path takes to
// stand a crashed Page Server back up (reseed from XStore + log replay).
double MeasureReseedMttrMs(const Params& p) {
  sim::Simulator sim;
  fleet::Fleet f(sim, IsolationFleet(1, true));
  double mttr_ms = 0;
  RunSim(sim, [&]() -> sim::Task<> {
    if (!(co_await f.Start()).ok()) abort();
    co_await LoadRows(f.tenant(0)->primary_engine(), p.rows);
    (void)co_await f.tenant(0)->Checkpoint();
    f.tenant(0)->CrashPageServer(0);
    SimTime t0 = sim.now();
    Status s = co_await f.tenant(0)->RecoverPageServer(0);
    if (!s.ok()) abort();
    mttr_ms = static_cast<double>(sim.now() - t0) / 1e3;
  });
  f.Stop();
  return mttr_ms;
}

struct MigrationResult {
  double stall_ms = 0;  // max single-read latency across the window
  double p99_us = 0;
  uint64_t failures = 0;
  uint64_t migrations = 0;
};

// Continuous point reads while the partition live-migrates between
// hosts. The reader never stops: every read issued during catch-up,
// cutover and after must succeed (retries allowed, terminal failures
// not), and the worst single read bounds the perceived stall.
MigrationResult MeasureMigration(const Params& p) {
  sim::Simulator sim;
  fleet::FleetOptions o = IsolationFleet(2, true);
  o.hosts = 2;
  o.host_cpu_cores = 8;
  fleet::Fleet f(sim, o);
  MigrationResult r;
  RunSim(sim, [&]() -> sim::Task<> {
    if (!(co_await f.Start()).ok()) abort();
    co_await LoadRows(f.tenant(0)->primary_engine(), p.rows);
    co_await LoadRows(f.tenant(1)->primary_engine(), p.rows / 4);
    (void)co_await f.tenant(0)->Checkpoint();
    if (!(co_await f.tenant(0)->RestartPrimary()).ok()) abort();

    Histogram lat;
    SimTime max_us = 0;
    sim::WaitGroup readers_wg(sim);
    readers_wg.Add(p.readers);
    for (int i = 0; i < p.readers; i++) {
      sim::Spawn(sim, PointReader(&sim, f.tenant(0)->primary_engine(),
                                  p.rows, p.reads_per_reader,
                                  0xcafe + i * 17, &lat, &max_us,
                                  &r.failures, &readers_wg));
    }
    // Let the readers establish routes, then migrate under them.
    co_await sim::Delay(sim, 5 * 1000);
    const int dst = f.LeastLoadedHost(f.HostOf(0, 0));
    Status ms = co_await f.Migrate(0, 0, dst);
    if (!ms.ok()) abort();
    co_await readers_wg.Wait();

    r.stall_ms = static_cast<double>(max_us) / 1e3;
    r.p99_us = lat.Percentile(99.0);
    r.migrations = f.migrations();
  });
  f.Stop();
  return r;
}

struct SweepResult {
  double point_p99_us = 0;
  double agg_reads_per_s = 0;
  uint64_t failures = 0;
  uint64_t gw_frames = 0;
  double sim_ms = 0;  // simulated span of the read phase
};

// Fleet density: N tenants over a fixed 4-host pool, every tenant
// cold-reading its own partition concurrently through the gateway.
SweepResult MeasureSweep(const Params& p, int tenants) {
  sim::Simulator sim;
  fleet::FleetOptions o;
  o.tenants = tenants;
  o.hosts = 4;
  o.lz_hosts = 4;
  o.host_cpu_cores = 8;
  o.tenant.num_page_servers = 1;
  o.tenant.partition_map.pages_per_partition = 4096;
  o.tenant.compute.mem_pages = 16;
  o.tenant.compute.ssd_pages = 24;
  o.tenant.compute.warmup_after_recovery = false;
  o.tenant.compute.rbpex_recoverable = false;
  o.tenant.page_server.mem_pages = 128;
  fleet::Fleet f(sim, o);
  SweepResult r;
  RunSim(sim, [&]() -> sim::Task<> {
    if (!(co_await f.Start()).ok()) abort();
    for (int t = 0; t < f.num_tenants(); t++) {
      co_await LoadRows(f.tenant(t)->primary_engine(), p.sweep_rows);
      (void)co_await f.tenant(t)->Checkpoint();
      if (!(co_await f.tenant(t)->RestartPrimary()).ok()) abort();
    }
    Histogram lat;
    sim::WaitGroup wg(sim);
    wg.Add(f.num_tenants());
    SimTime t0 = sim.now();
    for (int t = 0; t < f.num_tenants(); t++) {
      sim::Spawn(sim, PointReader(&sim, f.tenant(t)->primary_engine(),
                                  p.sweep_rows, p.sweep_reads,
                                  0xfeed + t * 53, &lat, nullptr,
                                  &r.failures, &wg));
    }
    co_await wg.Wait();
    r.sim_ms = static_cast<double>(sim.now() - t0) / 1e3;
    r.point_p99_us = lat.Percentile(99.0);
    r.agg_reads_per_s =
        r.sim_ms > 0 ? static_cast<double>(f.num_tenants()) *
                            static_cast<double>(p.sweep_reads) /
                            (r.sim_ms / 1e3)
                      : 0;
    r.gw_frames = f.gateway().frames_forwarded();
  });
  f.Stop();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) p.smoke = true;
  }
  if (p.smoke) {
    p.rows = 8000;
    p.reads_per_reader = 160;
    p.sweep_rows = 1000;
    p.sweep_reads = 60;
    p.sweep = {1, 4, 8};
  }

  JsonOut json("fleet", argc, argv);
  PrintHeader("Multi-tenant fleet: QoS isolation and live migration",
              "pooling Page Server/XLOG/XStore capacity across databases "
              "pays only if tenants are isolated and placement can move "
              "(sections 6, 8)");

  // Phase: reseed MTTR — the stall yardstick.
  double mttr_ms = MeasureReseedMttrMs(p);
  printf("\nreseed MTTR (crash + reseed + catch-up): %.2f ms\n", mttr_ms);
  json.Line("{\"bench\":\"fleet\",\"phase\":\"reseed\",\"mttr_ms\":%.2f}",
            mttr_ms);

  // Phases: solo floor, then the noisy neighbor with QoS on / off.
  printf("\n%-10s %12s %12s %9s %8s %9s\n", "config", "gp p99 us",
         "pt p99 us", "fail", "scan fwd", "sim ms");
  struct {
    const char* name;
    bool qos;
    bool scans;
  } configs[] = {
      {"solo", true, false},
      {"qos_on", true, true},
      {"qos_off", false, true},
  };
  double solo_p99 = 0, on_ratio = 0, off_ratio = 0;
  for (const auto& c : configs) {
    PhaseResult r = MeasureIsolation(p, c.scans ? 2 : 1, c.qos, c.scans);
    printf("%-10s %12.1f %12.1f %9" PRIu64 " %8" PRIu64 " %9.2f\n",
           c.name, r.getpage_p99_us, r.point_p99_us, r.failures,
           r.scans_forwarded, r.sim_ms);
    json.Line(
        "{\"bench\":\"fleet\",\"phase\":\"noisy\",\"config\":\"%s\","
        "\"getpage_p99_us\":%.1f,\"point_p99_us\":%.1f,"
        "\"failures\":%" PRIu64 ",\"scans_forwarded\":%" PRIu64
        ",\"sim_ms\":%.2f}",
        c.name, r.getpage_p99_us, r.point_p99_us, r.failures,
        r.scans_forwarded, r.sim_ms);
    if (std::strcmp(c.name, "solo") == 0) solo_p99 = r.getpage_p99_us;
    if (std::strcmp(c.name, "qos_on") == 0 && solo_p99 > 0) {
      on_ratio = r.getpage_p99_us / solo_p99;
    }
    if (std::strcmp(c.name, "qos_off") == 0 && solo_p99 > 0) {
      off_ratio = r.getpage_p99_us / solo_p99;
    }
  }
  printf("victim GetPage p99 vs solo: qos_on %.3fx  qos_off %.3fx\n",
         on_ratio, off_ratio);
  json.Line(
      "{\"bench\":\"fleet\",\"phase\":\"qos_ratio\","
      "\"victim_p99_vs_solo_qos_on\":%.3f,"
      "\"victim_p99_vs_solo_qos_off\":%.3f}",
      on_ratio, off_ratio);

  // Phase: live migration under continuous reads.
  MigrationResult m = MeasureMigration(p);
  double stall_vs_reseed = mttr_ms > 0 ? m.stall_ms / mttr_ms : 0;
  printf(
      "\nmigration: stall %.2f ms (%.2fx reseed MTTR), p99 %.1f us, "
      "%" PRIu64 " terminal failures, %" PRIu64 " migrations\n",
      m.stall_ms, stall_vs_reseed, m.p99_us, m.failures, m.migrations);
  json.Line(
      "{\"bench\":\"fleet\",\"phase\":\"migration\",\"stall_ms\":%.2f,"
      "\"stall_vs_reseed\":%.3f,\"point_p99_us\":%.1f,"
      "\"terminal_failures\":%" PRIu64 ",\"migrations\":%" PRIu64 "}",
      m.stall_ms, stall_vs_reseed, m.p99_us, m.failures, m.migrations);

  // Phase: tenant density sweep.
  printf("\n%-8s %12s %12s %9s %12s %9s\n", "tenants", "pt p99 us",
         "agg reads/s", "fail", "gw frames", "sim ms");
  for (int n : p.sweep) {
    SweepResult r = MeasureSweep(p, n);
    printf("%-8d %12.1f %12.0f %9" PRIu64 " %12" PRIu64 " %9.2f\n", n,
           r.point_p99_us, r.agg_reads_per_s, r.failures, r.gw_frames,
           r.sim_ms);
    json.Line(
        "{\"bench\":\"fleet\",\"phase\":\"sweep\",\"tenants\":%d,"
        "\"point_p99_us\":%.1f,\"agg_reads_per_s\":%.0f,"
        "\"failures\":%" PRIu64 ",\"gw_frames\":%" PRIu64
        ",\"sim_ms\":%.2f}",
        n, r.point_p99_us, r.agg_reads_per_s, r.failures, r.gw_frames,
        r.sim_ms);
  }
  return 0;
}
