// Scans yield the Page Server CPU (§4.6 serving health): GetPage p99
// under analytic-scan interference.
//
// One Page Server serves two competing request classes: latency-critical
// point reads (GetPage@LSN from a compute tier too small to cache the
// working set) and pushed-down analytic scans (kScanRange frames that
// burn server CPU per leaf visited). Three configurations:
//
//   baseline   point readers only — the scan-free serving floor;
//   yield_on   scanners added; scan evaluation is background CPU work
//              that gives its core to any point read finding none free;
//   yield_off  the counterfactual: same scanners, evaluation queues FIFO
//              with point reads on the one core.
//
// The headline ratio is GetPage p99 vs the scan-free baseline. One
// pinned reader seed decides little (a single scan burst can land in
// the 99th percentile or not), so every reader seed below runs all three
// configurations and the gates read the medians over the seeds. Each
// seed row also reports what scans pay: scans served, their client p99,
// and how many fell back to the local plan.

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <vector>

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

// The reader seeds every run sweeps: the historical pinned seed, then
// 1-15. Reader i of a run draws its keys from seed + i * 131.
constexpr uint64_t kReaderSeeds[] = {0xbeef, 1, 2,  3,  4,  5,  6,  7,
                                     8,      9, 10, 11, 12, 13, 14, 15};

struct Config {
  bool scans = false;
  bool yield = true;
};

struct InterferenceResult {
  double getpage_p99_us = 0;  // server-side service time
  uint64_t scans_served = 0;
  double scan_p99_us = 0;  // client-observed ScanWhere latency
  uint64_t fallbacks = 0;  // scans finished on the local plan
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

sim::Task<> PointReader(engine::Engine* e, const Params* p, uint64_t seed,
                        sim::WaitGroup* wg) {
  Random rng(seed);
  auto txn = e->Begin(true);
  for (uint64_t i = 0; i < p->reads_per_reader; i++) {
    uint64_t k = rng.Uniform(p->rows);
    auto v = co_await e->Get(txn.get(), engine::MakeKey(1, k));
    if (!v.ok()) abort();
  }
  (void)co_await e->Commit(txn.get());
  wg->Done();
}

// Paced scans until the point readers finish: sustained analytic
// pressure for the whole measurement window. The think time between
// rounds keeps aggregate scan CPU demand below the serving core —
// without it the closed loop diverges (scans stretch reader latency,
// which lengthens the window, which admits more scans, forever) — while
// each scan burst still keeps the core busy for its full duration.
sim::Task<> Scanner(sim::Simulator* sim, engine::Engine* e,
                    const Params* p, const bool* stop, Histogram* lat,
                    sim::WaitGroup* wg) {
  engine::ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(10, 0);
  filter.aggregate = common::ScanAggregate::Sum(0);
  while (!*stop) {
    auto txn = e->Begin(true);
    SimTime t0 = sim->now();
    auto r = co_await e->ScanWhere(txn.get(), engine::MakeKey(1, 0),
                                   engine::MakeKey(1, p->rows),
                                   /*limit=*/0, filter);
    if (!r.ok()) abort();
    lat->Add(static_cast<double>(sim->now() - t0));
    (void)co_await e->Commit(txn.get());
    co_await sim::Delay(*sim, p->scan_think_us);
  }
  wg->Done();
}

InterferenceResult Measure(const Params& p, const Config& c,
                           uint64_t reader_seed) {
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
  o.page_server.mem_pages = 512;  // serving is CPU-bound, not IO-bound
  // One serving core: scan evaluation (~10 us CPU per leaf) and GetPage
  // serving compete for the same run queue, as on a real co-resident
  // server. Interference shows up directly in GetPage service time.
  o.page_server.cpu_cores = 1;
  o.page_server.scans_yield_cpu = c.yield;
  service::Deployment d(sim, o);

  InterferenceResult r;
  RunSim(sim, [&]() -> sim::Task<> {
    if (!(co_await d.Start()).ok()) abort();
    co_await LoadRows(d.primary_engine(), p.rows);
    (void)co_await d.Checkpoint();
    // Cold compute: every point read exercises the server.
    if (!(co_await d.RestartPrimary()).ok()) abort();
    engine::Engine* e = d.primary_engine();

    Histogram scan_lat;
    sim::WaitGroup readers_wg(sim);
    sim::WaitGroup scanners_wg(sim);
    bool stop = false;
    readers_wg.Add(p.readers);
    for (int i = 0; i < p.readers; i++) {
      sim::Spawn(sim, PointReader(e, &p, reader_seed + i * 131, &readers_wg));
    }
    if (c.scans) {
      scanners_wg.Add(p.scanners);
      for (int i = 0; i < p.scanners; i++) {
        sim::Spawn(sim,
                   Scanner(&sim, e, &p, &stop, &scan_lat, &scanners_wg));
      }
    }
    co_await readers_wg.Wait();
    stop = true;  // scanners drain after their in-flight scan
    if (c.scans) co_await scanners_wg.Wait();

    const pageserver::PageServer* ps = d.page_server(0);
    r.getpage_p99_us = ps->getpage_service_us().Percentile(99.0);
    r.scans_served = ps->scan_requests();
    r.scan_p99_us = scan_lat.Percentile(99.0);
    r.fallbacks = e->stats().pushdown_fallbacks;
  });
  d.Stop();
  return r;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
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
    p.reads_per_reader = 240;
  }

  JsonOut json("pushdown_interference", argc, argv);
  PrintHeader("Scans yield the CPU: GetPage p99 under scan interference",
              "Page Servers must serve GetPage@LSN fast even while "
              "heavier duties run on the same server (section 4.6)");

  printf("\n%-7s %9s %9s %9s %7s %7s %6s %6s %10s %10s %4s\n", "seed",
         "base p99", "on p99", "off p99", "on x", "off x", "on n", "off n",
         "on scan99", "off scan99", "fb");
  std::vector<double> on_ratios, off_ratios;
  for (uint64_t seed : kReaderSeeds) {
    const InterferenceResult base = Measure(p, {false, true}, seed);
    const InterferenceResult on = Measure(p, {true, true}, seed);
    const InterferenceResult off = Measure(p, {true, false}, seed);
    const double base_p99 = base.getpage_p99_us;
    const double on_x = base_p99 > 0 ? on.getpage_p99_us / base_p99 : 0;
    const double off_x = base_p99 > 0 ? off.getpage_p99_us / base_p99 : 0;
    on_ratios.push_back(on_x);
    off_ratios.push_back(off_x);
    printf("%-7" PRIu64 " %9.1f %9.1f %9.1f %7.3f %7.3f %6" PRIu64
           " %6" PRIu64 " %10.1f %10.1f %4" PRIu64 "\n",
           seed, base_p99, on.getpage_p99_us, off.getpage_p99_us, on_x,
           off_x, on.scans_served, off.scans_served, on.scan_p99_us,
           off.scan_p99_us, on.fallbacks + off.fallbacks);
    json.Line(
        "{\"bench\":\"pushdown_interference\",\"phase\":\"seed\","
        "\"reader_seed\":%" PRIu64 ",\"baseline_getpage_p99_us\":%.1f,"
        "\"yield_on_getpage_p99_us\":%.1f,"
        "\"yield_off_getpage_p99_us\":%.1f,\"yield_on_ratio\":%.3f,"
        "\"yield_off_ratio\":%.3f,\"yield_on_scans_served\":%" PRIu64
        ",\"yield_off_scans_served\":%" PRIu64
        ",\"yield_on_scan_p99_us\":%.1f,\"yield_off_scan_p99_us\":%.1f,"
        "\"yield_on_fallbacks\":%" PRIu64
        ",\"yield_off_fallbacks\":%" PRIu64 "}",
        seed, base_p99, on.getpage_p99_us, off.getpage_p99_us, on_x, off_x,
        on.scans_served, off.scans_served, on.scan_p99_us, off.scan_p99_us,
        on.fallbacks, off.fallbacks);
  }
  const double on_median = Median(on_ratios);
  const double off_median = Median(off_ratios);
  printf("median GetPage p99 vs baseline over %zu seeds: yield_on %.3fx  "
         "yield_off %.3fx\n",
         on_ratios.size(), on_median, off_median);
  json.Line(
      "{\"bench\":\"pushdown_interference\",\"phase\":\"median\","
      "\"seeds\":%zu,\"yield_on_ratio\":%.3f,\"yield_off_ratio\":%.3f}",
      on_ratios.size(), on_median, off_median);
  return 0;
}
