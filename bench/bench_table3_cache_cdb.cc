// Table 3 — Socrates local cache hit rate on the CDB default mix.
//
// Paper: 1 TB database (SF 20000), 56 GB memory + 168 GB RBPEX
// (cache ~= 22% of the database, SSD tier alone ~16%) -> 52% local hit
// rate, even though CDB scatters accesses uniformly across the database.
//
// Shape to reproduce: the hit rate is far ABOVE the cache/database size
// ratio, because B-tree root/interior pages and scan locality keep the
// upper levels resident; only uniform leaf touches miss.

#include "harness.h"

using namespace socrates;
using namespace socrates::bench;

int main(int argc, char** argv) {
  JsonOut json("table3_cache_cdb", argc, argv);
  PrintHeader(
      "Table 3: Socrates cache hit rate, CDB default mix",
      "1TB DB, 56GB memory + 168GB RBPEX -> 52% local cache hit rate");

  SocratesBed soc;
  soc.Build(/*scale=*/600, workload::CdbMix::Default(), /*mem=*/0.056,
            /*ssd=*/0.168, /*cores=*/8);
  soc.deployment->primary()->pool()->ResetStats();
  auto r = soc.Run(/*clients=*/64, /*measure_us=*/4 * 1000 * 1000);

  auto& st = soc.deployment->primary()->pool()->stats();
  uint64_t db_pages = soc.cdb->ApproxBytes() / kPageSize;
  uint64_t mem_pages = static_cast<uint64_t>(db_pages * 0.056);
  uint64_t ssd_pages = static_cast<uint64_t>(db_pages * 0.168);
  printf("\n%-14s %-12s %-12s %-10s %-14s\n", "Data (pages)",
         "Mem (pages)", "RBPEX", "cache/DB", "Local hit %");
  printf("%-14llu %-12llu %-12llu %8.1f%% %12.1f%%   (paper: 52%%)\n",
         (unsigned long long)db_pages, (unsigned long long)mem_pages,
         (unsigned long long)ssd_pages,
         100.0 * (mem_pages + ssd_pages) / db_pages,
         100 * st.LocalHitRate());
  printf("\nBreakdown: mem hits %llu, RBPEX hits %llu, remote misses "
         "%llu; %llu txns, %llu failed\n",
         (unsigned long long)st.mem_hits, (unsigned long long)st.ssd_hits,
         (unsigned long long)st.misses, (unsigned long long)r.commits,
         (unsigned long long)r.aborts);
  printf("Data-page (leaf) hit rate: %.1f%% — the harsher metric; upper\n"
         "index levels are always resident and inflate the overall rate.\n",
         100 * st.LeafHitRate());
  json.Line("{\"bench\":\"table3_cache_cdb\",\"db_pages\":%llu,"
            "\"cache_frac\":%.3f,\"local_hit_rate\":%.3f,"
            "\"leaf_hit_rate\":%.3f,\"failed\":%llu}",
            (unsigned long long)db_pages,
            static_cast<double>(mem_pages + ssd_pages) / db_pages,
            st.LocalHitRate(), st.LeafHitRate(),
            (unsigned long long)r.aborts);
  return 0;
}
