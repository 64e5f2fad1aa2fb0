// Computation pushdown (RBIO kScanRange): selectivity x aggregate
// sweep.
//
// A filtered scan over a database much larger than the compute memory
// tier, swept across predicate selectivity (100% .. 0.1%) and execution
// mode:
//
//   pages   pushdown disabled — fetch every leaf via GetPage@LSN and
//           evaluate locally;
//   tuples  kScanRange ships predicate + projection; Page Servers stream
//           back qualifying projected tuples;
//   agg     kScanRange additionally carries a partial-aggregate spec
//           (SUM over the first payload field); one tiny frame returns
//           per chunk regardless of row count.
//   planned cost-based planner decides per range: residency-probe the
//           local tiers, push only when the modeled remote cost wins
//           (warm ranges stay local, cold ranges ship).
//
// Each (mode, selectivity) runs against a cold compute tier (restart with
// non-recoverable RBPEX: the page plan refetches every leaf), a warm one
// (prior untimed pass), and a cold compute tier whose Page Server also
// keeps fewer pages in memory than one timed ScanWhere call spans
// (cold_server: the leaves come off the server's RBPEX). Reported per
// config: compute<->Page-Server bytes on the wire (both legs), RBIO round
// trips, pushdown scans/fallbacks, matched rows (cross-mode equality is
// asserted — all three plans must see the same data), and per-stride
// scan p50/p99.
// The wire is modelled at a finite bandwidth so bytes moved translate
// into scan latency, as on a real network.

#include <cinttypes>
#include <cstring>

#include "harness.h"

using namespace socrates;
using namespace socrates::bench;

namespace {

struct Params {
  uint64_t rows = 40000;
  uint64_t stride = 2000;  // keys per timed ScanWhere call
  bool smoke = false;
};

struct Config {
  const char* mode = "";   // pages | tuples | agg | planned
  uint64_t mod = 1;        // KeyModEq modulus: selectivity = 1/mod
  const char* state = "";  // cold | warm | cold_server
};

// cold_server's Page Server memory tier, in pages: below the ~20 leaves
// of a smoke stride (1000 rows, ~52 per leaf) and the ~38 of a full one.
constexpr size_t kColdServerMemPages = 8;

struct PushdownResult {
  uint64_t wire_bytes = 0;   // request + response legs
  uint64_t round_trips = 0;
  uint64_t scans_sent = 0;
  uint64_t fallbacks = 0;
  uint64_t matched = 0;      // rows matched (tuples or agg.rows)
  double p50_us = 0;
  double p99_us = 0;
  double scan_ms = 0;
};

sim::Task<> LoadRows(engine::Engine* e, uint64_t n) {
  Random rng(0x5eed);
  std::string payload(120, '\0');
  for (uint64_t i = 0; i < n; i += 64) {
    auto txn = e->Begin();
    for (uint64_t k = i; k < std::min(n, i + 64); k++) {
      for (auto& c : payload) {
        c = static_cast<char>('A' + rng.Uniform(26));
      }
      (void)e->Put(txn.get(), engine::MakeKey(1, k), payload);
    }
    Status s = co_await e->Commit(txn.get());
    if (!s.ok()) abort();
  }
}

engine::ScanFilter MakeFilter(const Config& c) {
  engine::ScanFilter f;
  f.predicate = common::ScanPredicate::KeyModEq(c.mod, 0);
  if (std::strcmp(c.mode, "agg") == 0) {
    f.aggregate = common::ScanAggregate::Sum(0);
  } else {
    f.projection.extents.push_back({0, 16});
  }
  return f;
}

// Timed filtered scan in `stride`-key chunks; one latency sample per
// chunk. Accumulates matched rows for the cross-mode equality check.
sim::Task<> TimedScan(sim::Simulator* sim, engine::Engine* e,
                      const Params* p, const Config* c, Histogram* lat,
                      uint64_t* matched) {
  engine::ScanFilter filter = MakeFilter(*c);
  auto txn = e->Begin(true);
  for (uint64_t k = 0; k < p->rows; k += p->stride) {
    uint64_t hi = std::min(p->rows, k + p->stride);
    SimTime t0 = sim->now();
    auto r = co_await e->ScanWhere(txn.get(), engine::MakeKey(1, k),
                                   engine::MakeKey(1, hi), /*limit=*/0,
                                   filter);
    if (!r.ok()) abort();
    lat->Add(static_cast<double>(sim->now() - t0));
    *matched += r->aggregated ? r->agg.rows : r->rows.size();
  }
  (void)co_await e->Commit(txn.get());
}

// One full deployment lifecycle per config so every measurement starts
// from an identical, independent history.
PushdownResult Measure(const Params& p, const Config& c) {
  sim::Simulator sim;
  service::DeploymentOptions o;
  o.partition_map.pages_per_partition = 16384;
  o.num_page_servers = 1;
  o.compute.mem_pages = 96;    // scan length >> memory tier
  o.compute.ssd_pages = 8192;  // RBPEX can hold the whole database
  o.compute.warmup_after_recovery = false;
  o.compute.rbpex_recoverable = std::strcmp(c.state, "warm") == 0;
  // The sweep axis is the predicate, not the planner: tuples and agg
  // push every selectivity so the crossover is visible in the data. Only
  // the "planned" mode hands the choice to the cost-based planner.
  if (std::strcmp(c.mode, "pages") == 0) {
    o.compute.pushdown_plan = compute::PushdownPlan::kPages;
  } else if (std::strcmp(c.mode, "planned") != 0) {
    o.compute.pushdown_plan = compute::PushdownPlan::kPush;
  }
  // Finite wire so bytes moved show up as time (2 GB/s intra-DC link).
  o.compute.rbio_wire_mb_per_s = 2000;
  o.page_server.mem_pages =
      std::strcmp(c.state, "cold_server") == 0 ? kColdServerMemPages : 1024;
  service::Deployment d(sim, o);

  PushdownResult r;
  RunSim(sim, [&]() -> sim::Task<> {
    if (!(co_await d.Start()).ok()) abort();
    co_await LoadRows(d.primary_engine(), p.rows);
    (void)co_await d.Checkpoint();
    engine::Engine* e = d.primary_engine();

    if (std::strcmp(c.state, "warm") == 0) {
      Histogram scratch;
      uint64_t scratch_rows = 0;
      co_await TimedScan(&sim, e, &p, &c, &scratch, &scratch_rows);
    } else {
      // Non-recoverable RBPEX + restart empties both compute tiers.
      if (!(co_await d.RestartPrimary()).ok()) abort();
    }

    rbio::RbioClient& cl = d.primary()->rbio_client();
    cl.ResetStats();
    const uint64_t fallbacks_before = e->stats().pushdown_fallbacks;
    Histogram lat;
    SimTime t0 = sim.now();
    co_await TimedScan(&sim, e, &p, &c, &lat, &r.matched);
    r.scan_ms = static_cast<double>(sim.now() - t0) / 1e3;
    r.wire_bytes = cl.wire_bytes_sent() + cl.wire_bytes_received();
    r.round_trips = cl.requests_sent();
    r.scans_sent = cl.scans_sent();
    r.fallbacks = e->stats().pushdown_fallbacks - fallbacks_before;
    r.p50_us = lat.Percentile(50.0);
    r.p99_us = lat.Percentile(99.0);
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
    p.rows = 4000;
    p.stride = 1000;
  }

  JsonOut json("pushdown_scan", argc, argv);
  PrintHeader("Computation pushdown: selectivity x aggregate sweep",
              "filter/projection/aggregation at the Page Server tier "
              "moves the result, not the pages");

  std::vector<uint64_t> mods = p.smoke
                                   ? std::vector<uint64_t>{100, 10}
                                   : std::vector<uint64_t>{1000, 100, 10,
                                                           1};
  // Smoke keeps the warm state: the warm-floor line below is a CI gate.
  std::vector<const char*> states = {"cold", "warm", "cold_server"};
  const char* modes[] = {"pages", "tuples", "agg", "planned"};

  printf("\n%-11s %-7s %8s %12s %10s %6s %5s %9s %10s %10s %9s\n", "state",
         "mode", "sel %%", "wire bytes", "roundtrip", "scans", "fall",
         "matched", "p50 us", "p99 us", "scan ms");
  for (const char* state : states) {
    for (uint64_t mod : mods) {
      uint64_t baseline_bytes = 0;
      double baseline_p99 = 0;
      uint64_t baseline_matched = 0;
      for (const char* mode : modes) {
        Config c;
        c.mode = mode;
        c.mod = mod;
        c.state = state;
        PushdownResult r = Measure(p, c);
        double sel = 100.0 / static_cast<double>(mod);
        printf("%-11s %-7s %8.1f %12" PRIu64 " %10" PRIu64 " %6" PRIu64
               " %5" PRIu64 " %9" PRIu64 " %10.1f %10.1f %9.2f\n",
               state, mode, sel, r.wire_bytes, r.round_trips,
               r.scans_sent, r.fallbacks, r.matched, r.p50_us, r.p99_us,
               r.scan_ms);
        json.Line(
            "{\"bench\":\"pushdown_scan\",\"phase\":\"sweep\","
            "\"state\":\"%s\",\"mode\":\"%s\",\"sel_pct\":%.1f,"
            "\"wire_bytes\":%" PRIu64 ",\"round_trips\":%" PRIu64
            ",\"scans_sent\":%" PRIu64 ",\"fallbacks\":%" PRIu64
            ",\"matched\":%" PRIu64 ",\"p50_us\":%.1f,\"p99_us\":%.1f,"
            "\"scan_ms\":%.2f}",
            state, mode, sel, r.wire_bytes, r.round_trips, r.scans_sent,
            r.fallbacks, r.matched, r.p50_us, r.p99_us, r.scan_ms);
        if (std::strcmp(mode, "pages") == 0) {
          baseline_bytes = r.wire_bytes;
          baseline_p99 = r.p99_us;
          baseline_matched = r.matched;
        } else {
          // All three plans must observe identical data.
          if (r.matched != baseline_matched) {
            fprintf(stderr,
                    "FATAL: %s/%s mod=%" PRIu64 " matched %" PRIu64
                    " rows, pages plan matched %" PRIu64 "\n",
                    state, mode, mod, r.matched, baseline_matched);
            return 1;
          }
          double byte_x =
              r.wire_bytes > 0
                  ? static_cast<double>(baseline_bytes) /
                        static_cast<double>(r.wire_bytes)
                  : 0.0;
          json.Line("{\"bench\":\"pushdown_scan\",\"phase\":\"reduction\","
                    "\"state\":\"%s\",\"mode\":\"%s\",\"sel_pct\":%.1f,"
                    "\"bytes_reduction_x\":%.2f,\"p99_speedup_x\":%.2f}",
                    state, mode, sel, byte_x,
                    r.p99_us > 0 ? baseline_p99 / r.p99_us : 0.0);
          if (std::strcmp(mode, "planned") == 0 &&
              std::strcmp(state, "warm") == 0) {
            // The regression this planner exists to kill: on a warm
            // range the planner must not be slower than the local plan.
            // A small warm range runs from memory in 0 simulated µs, so
            // both p99s can be 0 (ratio 1); a plan slower than a 0 µs
            // local one gets kSlowerThanFree, which fails any bound.
            constexpr double kSlowerThanFree = 1e9;
            const double ratio = baseline_p99 > 0 ? r.p99_us / baseline_p99
                                 : r.p99_us > 0   ? kSlowerThanFree
                                                  : 1.0;
            json.Line("{\"bench\":\"pushdown_scan\",\"phase\":"
                      "\"warm_floor\",\"sel_pct\":%.1f,"
                      "\"planned_p99_us\":%.1f,\"local_p99_us\":%.1f,"
                      "\"ratio\":%.3f}",
                      sel, r.p99_us, baseline_p99, ratio);
          }
        }
      }
    }
  }
  return 0;
}
