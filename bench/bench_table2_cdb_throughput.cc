// Table 2 — CDB default-mix throughput, HADR vs Socrates (1 TB database,
// 8-core VM, 64 client threads).
//
// Paper:            CPU %   Write TPS   Read TPS   Total TPS
//   HADR            99.1    347         1055       1402
//   Socrates        96.4    330         1005       1335
//
// Shape to reproduce: both systems CPU-bound; Socrates within a few
// percent of HADR (it loses a little CPU to remote I/O waits and remote
// log writes; HADR has the whole database local).

#include "harness.h"

using namespace socrates;
using namespace socrates::bench;

int main(int argc, char** argv) {
  JsonOut json("table2_cdb_throughput", argc, argv);
  PrintHeader("Table 2: CDB default mix throughput (HADR vs Socrates)",
              "HADR 1402 TPS @99.1% CPU; Socrates 1335 TPS @96.4% CPU "
              "(~5% lower)");

  const uint64_t kScale = 300;
  const int kCores = 8;
  const int kClients = 64;
  const SimTime kMeasure = 4 * 1000 * 1000;
  // cpu_scale calibrated so HADR lands near the paper's ~1400 TPS on 8
  // cores (the shape does not depend on it; the absolute numbers do).
  const double kCpuScale = 6.8;

  HadrBed hadr;
  hadr.Build(kScale, workload::CdbMix::Default(), kCores, {}, 200.0,
             kCpuScale);
  auto h = hadr.Run(kClients, kMeasure);
  hadr.cluster->Stop();

  SocratesBed soc;
  // Paper cache ratios: 56 GB memory + 168 GB RBPEX on a 1 TB database.
  soc.Build(kScale, workload::CdbMix::Default(), /*mem=*/0.056,
            /*ssd=*/0.168, kCores, sim::DeviceProfile::DirectDrive(), 4,
            kCpuScale);
  auto s = soc.Run(kClients, kMeasure);
  soc.deployment->Stop();

  printf("\n%-10s %8s %12s %12s %12s\n", "", "CPU %", "Write TPS",
         "Read TPS", "Total TPS");
  printf("%-10s %8.1f %12.0f %12.0f %12.0f   (paper: 99.1 / 347 / 1055 "
         "/ 1402)\n",
         "HADR", 100 * h.cpu_utilization, h.write_tps, h.read_tps,
         h.total_tps);
  printf("%-10s %8.1f %12.0f %12.0f %12.0f   (paper: 96.4 / 330 / 1005 "
         "/ 1335)\n",
         "Socrates", 100 * s.cpu_utilization, s.write_tps, s.read_tps,
         s.total_tps);
  double deficit = 100.0 * (1.0 - s.total_tps / h.total_tps);
  printf("\nSocrates deficit vs HADR: %.1f%%  (paper: ~5%%)\n", deficit);
  printf("Socrates local cache hit rate: %.0f%%\n",
         100 * soc.deployment->primary()->pool()->stats().LocalHitRate());
  printf("Failed transactions: HADR %llu, Socrates %llu\n",
         (unsigned long long)h.aborts, (unsigned long long)s.aborts);
  // The commit mutex is held across Phase 1/2 page fetches; every commit
  // with writes samples it, the bulk load's included.
  const engine::EngineStats& es = soc.deployment->primary_engine()->stats();
  printf("Socrates commit mutex (us): wait %s\n",
         es.commit_mutex_wait_us.ToString().c_str());
  printf("                            hold %s\n",
         es.commit_mutex_hold_us.ToString().c_str());
  json.Line("{\"bench\":\"table2_cdb_throughput\",\"system\":\"hadr\","
            "\"cpu_pct\":%.1f,\"write_tps\":%.0f,\"read_tps\":%.0f,"
            "\"total_tps\":%.0f,\"failed\":%llu}",
            100 * h.cpu_utilization, h.write_tps, h.read_tps, h.total_tps,
            (unsigned long long)h.aborts);
  json.Line("{\"bench\":\"table2_cdb_throughput\",\"system\":\"socrates\","
            "\"cpu_pct\":%.1f,\"write_tps\":%.0f,\"read_tps\":%.0f,"
            "\"total_tps\":%.0f,\"deficit_pct\":%.1f,"
            "\"local_hit_rate\":%.3f,\"failed\":%llu,"
            "\"commit_mutex_wait_p50_us\":%.0f,"
            "\"commit_mutex_wait_p99_us\":%.0f,"
            "\"commit_mutex_hold_p50_us\":%.0f,"
            "\"commit_mutex_hold_p99_us\":%.0f}",
            100 * s.cpu_utilization, s.write_tps, s.read_tps, s.total_tps,
            deficit,
            soc.deployment->primary()->pool()->stats().LocalHitRate(),
            (unsigned long long)s.aborts,
            es.commit_mutex_wait_us.Percentile(50),
            es.commit_mutex_wait_us.Percentile(99),
            es.commit_mutex_hold_us.Percentile(50),
            es.commit_mutex_hold_us.Percentile(99));
  return 0;
}
