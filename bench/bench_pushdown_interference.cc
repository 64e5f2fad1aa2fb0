// Scan admission (§4.6 serving health): GetPage p99 under analytic-scan
// interference.
//
// One Page Server serves two competing request classes: latency-critical
// point reads (GetPage@LSN from a compute tier too small to cache the
// working set) and pushed-down analytic scans (kScanRange frames that
// burn server CPU per leaf visited). Three configurations:
//
//   baseline       point readers only — the scan-free serving floor;
//   admission_on   scanners added, scan admission gating them: while the
//                  server is degraded (recent GetPage p99 over the bar)
//                  scans wait behind a token bucket and are shed with
//                  kOverloaded past the wait bound — shed scans fall
//                  back to the local plan;
//   admission_off  the counterfactual: same scanners, admission disabled,
//                  scans always served immediately.
//
// Reported per config: server-side GetPage service p50/p99 (the §4.6
// health signal), client-observed point-read p99, scans served / queued /
// shed, and client kOverloaded replies. The headline ratio is GetPage
// p99 vs the
// scan-free baseline: admission on must hold it near 1x while admission
// off shows what the scans would otherwise do to point-read tails.

#include <cinttypes>
#include <cstring>

#include "harness.h"

using namespace socrates;
using namespace socrates::bench;

namespace {

struct Params {
  uint64_t rows = 24000;
  int readers = 12;
  uint64_t reads_per_reader = 400;
  int scanners = 2;
  SimTime scan_think_us = 4000;  // pacing gap between scan rounds
  bool smoke = false;
};

struct Config {
  const char* name = "";  // baseline | admission_on | admission_off
  bool scans = false;
  bool admission = true;
};

struct InterferenceResult {
  double getpage_p50_us = 0;  // server-side service time
  double getpage_p99_us = 0;
  double point_p99_us = 0;  // client-observed Get latency
  uint64_t scans_served = 0;
  uint64_t scans_queued = 0;
  uint64_t scans_shed = 0;
  uint64_t client_overloaded = 0;
  double sim_ms = 0;  // simulated span of the reader phase
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
                        const Params* p, uint64_t seed, Histogram* lat,
                        sim::WaitGroup* wg) {
  Random rng(seed);
  auto txn = e->Begin(true);
  for (uint64_t i = 0; i < p->reads_per_reader; i++) {
    uint64_t k = rng.Uniform(p->rows);
    SimTime t0 = sim->now();
    auto v = co_await e->Get(txn.get(), engine::MakeKey(1, k));
    if (!v.ok()) abort();
    lat->Add(static_cast<double>(sim->now() - t0));
  }
  (void)co_await e->Commit(txn.get());
  wg->Done();
}

// Paced scans until the point readers finish: sustained analytic
// pressure for the whole measurement window. The think time between
// rounds keeps aggregate scan CPU demand below the serving core —
// without it the closed loop diverges (scans stretch reader latency,
// which lengthens the window, which admits more scans, forever) — while
// each scan burst still monopolizes the core for its full duration.
sim::Task<> Scanner(sim::Simulator* sim, engine::Engine* e,
                    const Params* p, const bool* stop,
                    sim::WaitGroup* wg) {
  engine::ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(10, 0);
  filter.aggregate = common::ScanAggregate::Sum(0);
  while (!*stop) {
    auto txn = e->Begin(true);
    auto r = co_await e->ScanWhere(txn.get(), engine::MakeKey(1, 0),
                                   engine::MakeKey(1, p->rows),
                                   /*limit=*/0, filter);
    if (!r.ok()) abort();
    (void)co_await e->Commit(txn.get());
    co_await sim::Delay(*sim, p->scan_think_us);
  }
  wg->Done();
}

InterferenceResult Measure(const Params& p, const Config& c) {
  sim::Simulator sim;
  service::DeploymentOptions o;
  o.partition_map.pages_per_partition = 16384;
  o.num_page_servers = 1;
  o.compute.mem_pages = 64;  // working set >> compute tiers: point
  o.compute.ssd_pages = 96;  // reads keep missing to the server
  o.compute.warmup_after_recovery = false;
  o.compute.rbpex_recoverable = false;
  o.compute.pushdown_plan = compute::PushdownPlan::kPush;  // always the wire
  o.compute.rbio_wire_mb_per_s = 2000;
  // A shed scan keeps the client on the local plan long enough for the
  // serving window to actually recover before the next wire attempt.
  o.compute.rbio_overload_backoff_us = 200 * 1000;
  o.page_server.mem_pages = 512;  // serving is CPU-bound, not IO-bound
  // One serving core: scan evaluation (~10 us CPU per leaf) and GetPage
  // serving compete for the same run queue, as on a real co-resident
  // server. Interference shows up directly in GetPage service time.
  o.page_server.cpu_cores = 1;
  o.page_server.scan_admission_enabled = c.admission;
  // Health bar scaled to this deployment's serving floor (~5-10 us
  // memory-hit service times): a recent p99 past 2x the healthy tail
  // means scans are already inflating point reads.
  o.page_server.scan_admission_p99_us = 20;
  // While degraded, refill slower than the max queue wait: degraded
  // scans shed with kOverloaded (and run locally at the client) rather
  // than trickling through and re-inflating the window they tripped.
  o.page_server.scan_admission_tokens_per_s = 10;
  service::Deployment d(sim, o);

  InterferenceResult r;
  RunSim(sim, [&]() -> sim::Task<> {
    if (!(co_await d.Start()).ok()) abort();
    co_await LoadRows(d.primary_engine(), p.rows);
    (void)co_await d.Checkpoint();
    // Cold compute: every point read exercises the server.
    if (!(co_await d.RestartPrimary()).ok()) abort();
    engine::Engine* e = d.primary_engine();

    Histogram point_lat;
    sim::WaitGroup readers_wg(sim);
    sim::WaitGroup scanners_wg(sim);
    bool stop = false;
    SimTime t0 = sim.now();
    readers_wg.Add(p.readers);
    for (int i = 0; i < p.readers; i++) {
      sim::Spawn(sim, PointReader(&sim, e, &p, 0xbeef + i * 131,
                                  &point_lat, &readers_wg));
    }
    if (c.scans) {
      scanners_wg.Add(p.scanners);
      for (int i = 0; i < p.scanners; i++) {
        sim::Spawn(sim, Scanner(&sim, e, &p, &stop, &scanners_wg));
      }
    }
    co_await readers_wg.Wait();
    r.sim_ms = static_cast<double>(sim.now() - t0) / 1e3;
    stop = true;  // scanners drain after their in-flight scan
    if (c.scans) co_await scanners_wg.Wait();

    const pageserver::PageServer* ps = d.page_server(0);
    r.getpage_p50_us = ps->getpage_service_us().Percentile(50.0);
    r.getpage_p99_us = ps->getpage_service_us().Percentile(99.0);
    r.point_p99_us = point_lat.Percentile(99.0);
    r.scans_served = ps->scan_requests();
    r.scans_queued = ps->scans_queued();
    r.scans_shed = ps->scans_rejected();
    r.client_overloaded = d.primary()->rbio_client().scans_overloaded();
  });
  d.Stop();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) p.smoke = true;
  }
  if (p.smoke) {
    // Full leaves hold ~54 of these rows: 12000 rows span ~220 leaves,
    // more than the compute tiers' 160 frames, so point reads keep
    // missing to the server.
    p.rows = 12000;
    // Enough samples that the one pre-trip scan burst (admission needs a
    // filled health window before it can react) sits below the 99th
    // percentile, as it does at full scale.
    p.reads_per_reader = 240;
  }

  JsonOut json("pushdown_interference", argc, argv);
  PrintHeader("Scan admission: GetPage p99 under scan interference",
              "Page Servers must serve GetPage@LSN fast even while "
              "heavier duties run on the same server (section 4.6)");

  const Config configs[] = {
      {"baseline", false, true},
      {"admission_on", true, true},
      {"admission_off", true, false},
  };

  printf("\n%-14s %10s %10s %10s %7s %7s %6s %6s %9s\n", "config",
         "gp p50 us", "gp p99 us", "pt p99 us", "served", "queued",
         "shed", "ovl", "sim ms");
  double baseline_p99 = 0;
  for (const Config& c : configs) {
    InterferenceResult r = Measure(p, c);
    printf("%-14s %10.1f %10.1f %10.1f %7" PRIu64 " %7" PRIu64
           " %6" PRIu64 " %6" PRIu64 " %9.2f\n",
           c.name, r.getpage_p50_us, r.getpage_p99_us, r.point_p99_us,
           r.scans_served, r.scans_queued, r.scans_shed,
           r.client_overloaded, r.sim_ms);
    json.Line(
        "{\"bench\":\"pushdown_interference\",\"config\":\"%s\","
        "\"getpage_p50_us\":%.1f,\"getpage_p99_us\":%.1f,"
        "\"point_p99_us\":%.1f,\"scans_served\":%" PRIu64
        ",\"scans_queued\":%" PRIu64 ",\"scans_shed\":%" PRIu64
        ",\"client_overloaded\":%" PRIu64 ",\"sim_ms\":%.2f}",
        c.name, r.getpage_p50_us, r.getpage_p99_us, r.point_p99_us,
        r.scans_served, r.scans_queued, r.scans_shed, r.client_overloaded,
        r.sim_ms);
    if (std::strcmp(c.name, "baseline") == 0) {
      baseline_p99 = r.getpage_p99_us;
    } else {
      json.Line(
          "{\"bench\":\"pushdown_interference\",\"phase\":\"ratio\","
          "\"config\":\"%s\",\"getpage_p99_vs_baseline\":%.3f}",
          c.name,
          baseline_p99 > 0 ? r.getpage_p99_us / baseline_p99 : 0.0);
    }
  }
  return 0;
}
