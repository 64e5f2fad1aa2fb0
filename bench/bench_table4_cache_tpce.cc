// Table 4 — Socrates cache hit rate under a TPC-E-like skewed workload.
//
// Paper: 30 TB TPC-E database, 88 GB memory + 320 GB RBPEX (cache ~1.3%
// of the data) -> 32% local cache hit rate: realistic skew makes even a
// tiny cache effective.
//
// Shape to reproduce: with a cache that is ~1% of the data, the hit rate
// lands far above 1% (tens of percent) thanks to Zipf skew + resident
// B-tree upper levels.

#include "harness.h"

using namespace socrates;
using namespace socrates::bench;

int main(int argc, char** argv) {
  JsonOut json("table4_cache_tpce", argc, argv);
  PrintHeader(
      "Table 4: Socrates cache hit rate, TPC-E-like skewed workload",
      "30TB DB, 88GB mem + 320GB RBPEX (~1.3% of data) -> 32% hit rate");

  sim::Simulator sim;
  workload::TpceOptions topts;
  topts.customers = 400000;  // ~90 MB of data
  workload::TpceLikeWorkload tpce(topts);

  uint64_t db_pages = tpce.ApproxBytes() / kPageSize + 64;
  service::DeploymentOptions dopts;
  dopts.partition_map.pages_per_partition = db_pages / 4 + 256;
  dopts.num_page_servers = 4;
  dopts.compute.cpu_cores = 8;
  // Paper ratios: mem 88GB/30TB ~ 0.29%, RBPEX 320GB/30TB ~ 1.04%.
  dopts.compute.mem_pages =
      std::max<uint64_t>(16, static_cast<uint64_t>(db_pages * 0.0029));
  dopts.compute.ssd_pages =
      std::max<uint64_t>(32, static_cast<uint64_t>(db_pages * 0.0104));
  dopts.page_server.mem_pages = 512;
  service::Deployment d(sim, dopts);

  RunSim(sim, [&]() -> sim::Task<> {
    Status s = co_await d.Start();
    if (!s.ok()) abort();
    s = co_await tpce.Load(d.primary_engine());
    if (!s.ok()) abort();
    // Quiesce: Page Servers must drain the bulk-load burst, or every
    // GetPage@LSN in the measurement window stalls on their catch-up.
    for (int p = 0; p < d.num_page_servers(); p++) {
      co_await d.page_server(p)->applied_lsn().WaitFor(
          d.log_client().end_lsn());
    }
  });

  d.primary()->pool()->ResetStats();
  workload::DriverReport report;
  RunSim(sim, [&]() -> sim::Task<> {
    workload::DriverOptions opts;
    opts.clients = 64;
    opts.warmup_us = 500 * 1000;
    opts.measure_us = 4 * 1000 * 1000;
    report = co_await workload::RunDriver(sim, d.primary_engine(),
                                          &d.primary()->cpu(), &tpce,
                                          opts);
  });

  auto& st = d.primary()->pool()->stats();
  printf("\n%-14s %-12s %-12s %-10s %-14s\n", "Data (pages)",
         "Mem (pages)", "RBPEX", "cache/DB", "Local hit %");
  printf("%-14llu %-12llu %-12llu %8.2f%% %12.1f%%   (paper: 32%%)\n",
         (unsigned long long)db_pages,
         (unsigned long long)dopts.compute.mem_pages,
         (unsigned long long)dopts.compute.ssd_pages,
         100.0 * (dopts.compute.mem_pages + dopts.compute.ssd_pages) /
             db_pages,
         100 * st.LocalHitRate());
  printf("\nBreakdown: mem hits %llu, RBPEX hits %llu, remote misses "
         "%llu; %llu txns, %llu failed\n",
         (unsigned long long)st.mem_hits, (unsigned long long)st.ssd_hits,
         (unsigned long long)st.misses,
         (unsigned long long)report.commits,
         (unsigned long long)report.aborts);
  printf("Data-page (leaf) hit rate: %.1f%%\n", 100 * st.LeafHitRate());
  json.Line("{\"bench\":\"table4_cache_tpce\",\"db_pages\":%llu,"
            "\"cache_frac\":%.4f,\"local_hit_rate\":%.3f,"
            "\"leaf_hit_rate\":%.3f,\"commits\":%llu,\"failed\":%llu}",
            (unsigned long long)db_pages,
            static_cast<double>(dopts.compute.mem_pages +
                                dopts.compute.ssd_pages) /
                db_pages,
            st.LocalHitRate(), st.LeafHitRate(),
            (unsigned long long)report.commits,
            (unsigned long long)report.aborts);
  d.Stop();
  return 0;
}
