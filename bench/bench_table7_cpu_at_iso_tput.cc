// Table 7 (Appendix A) — CPU cost at iso log throughput, XIO vs DD.
//
// Paper:        Threads   Log MB/s   CPU %
//   XIO         128       69         30
//   DD          16        70         9
//
// Mechanism: XIO's higher commit latency means it needs far more client
// concurrency to reach the same log rate, and its REST-based I/O path
// burns ~3x the Primary CPU to push the same bytes. Following the
// paper's method, we fix DD at 16 threads and calibrate the XIO thread
// count until the two log rates roughly match, then compare CPU.

#include "harness.h"

using namespace socrates;
using namespace socrates::bench;

namespace {

struct IsoResult {
  int threads;
  double log_mb_s;
  double cpu_pct;
  double p50_us = 0;
  double p99_us = 0;
  double stored_ratio = 1.0;  // logical / stored log bytes
};

IsoResult Measure(sim::DeviceProfile lz, int clients, bool zip = false) {
  SocratesBed soc;
  soc.tweak_dopts = [&](service::DeploymentOptions* d) {
    d->xlog_client.compress_blocks = zip;
  };
  // Small updates of ~2 KiB rows: enough log volume per transaction that
  // the landing-zone I/O stack's CPU cost is visible next to the
  // transaction-processing CPU (as in the paper's 70 MB/s setup).
  soc.tweak_copts = [](workload::CdbOptions* c) {
    // Uniform ~1.4 KiB rows loaded AND written: enough log volume per
    // transaction for the I/O stack's CPU to be visible, without update-
    // driven row growth (which would split pages all run long).
    c->payload_bytes = {1400, 1400, 1400, 1400, 1400, 1400};
    c->lite_payload_bytes = 1400;
  };
  soc.Build(/*scale=*/50, workload::CdbMix::UpdateLite(), /*mem=*/1.0,
            /*ssd=*/1.0, /*cores=*/16, lz, /*page_servers=*/4,
            /*cpu_scale=*/0.25);
  uint64_t log0 = soc.deployment->log_client().end_lsn();
  const SimTime kMeasure = 1200 * 1000;
  auto r = soc.Run(clients, kMeasure);
  uint64_t log_bytes = soc.deployment->log_client().end_lsn() - log0;
  const xlog::LandingZone& lzz = soc.deployment->landing_zone();
  IsoResult out{clients, log_bytes / (kMeasure / 1e6) / 1e6,
                100 * r.cpu_utilization};
  out.p50_us = r.latency_us.Percentile(50);
  out.p99_us = r.latency_us.Percentile(99);
  if (lzz.stored_bytes_written() > 0) {
    out.stored_ratio =
        static_cast<double>(lzz.logical_bytes_written()) /
        static_cast<double>(lzz.stored_bytes_written());
  }
  soc.deployment->Stop();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  JsonOut json("table7_cpu_at_iso_tput", argc, argv);
  PrintHeader("Table 7: CPU at iso log throughput (XIO vs DD)",
              "XIO: 128 threads, 69 MB/s, 30% CPU; DD: 16 threads, "
              "70 MB/s, 9% CPU");

  IsoResult dd = Measure(sim::DeviceProfile::DirectDrive(), 16);

  // Calibrate XIO's client count to reach DD's log rate (the paper
  // "varied the number of client threads such that ... roughly the same
  // log throughput").
  IsoResult xio{0, 0, 0};
  for (int threads : {48, 96, 160}) {
    xio = Measure(sim::DeviceProfile::Xio(), threads);
    if (xio.log_mb_s >= dd.log_mb_s * 0.92) break;
  }

  printf("\n%-6s %10s %12s %10s\n", "", "Threads", "Log MB/s", "CPU %");
  printf("%-6s %10d %12.2f %10.1f   (paper: 128 / 69 / 30)\n", "XIO",
         xio.threads, xio.log_mb_s, xio.cpu_pct);
  printf("%-6s %10d %12.2f %10.1f   (paper: 16 / 70 / 9)\n", "DD",
         dd.threads, dd.log_mb_s, dd.cpu_pct);
  printf("\nThreads ratio XIO/DD at iso rate: %.1fx (paper: 8x)\n",
         static_cast<double>(xio.threads) / dd.threads);
  printf("CPU ratio XIO/DD at iso rate:     %.1fx (paper: ~3.3x)\n",
         dd.cpu_pct > 0 ? xio.cpu_pct / dd.cpu_pct : 0.0);
  json.Line("{\"bench\":\"table7_cpu_at_iso_tput\",\"lz\":\"xio\","
            "\"threads\":%d,\"log_mb_s\":%.2f,\"cpu_pct\":%.1f}",
            xio.threads, xio.log_mb_s, xio.cpu_pct);
  json.Line("{\"bench\":\"table7_cpu_at_iso_tput\",\"lz\":\"dd\","
            "\"threads\":%d,\"log_mb_s\":%.2f,\"cpu_pct\":%.1f}",
            dd.threads, dd.log_mb_s, dd.cpu_pct);

  // Policy sweep at fixed load on XIO: the REST path charges CPU per
  // stored byte, so compression (fewer bytes per block) should cut
  // Primary CPU per logged MB at the same offered load.
  struct PolicyRow {
    const char* name;
    bool zip;
  };
  constexpr PolicyRow kRows[] = {
      {"fixed", false},
      {"zip", true},
  };
  printf("\n--- Policy sweep on XIO ---\n");
  printf("%-13s %8s %12s %8s %10s %10s %8s\n", "policy", "threads",
         "Log MB/s", "CPU %", "p50 (us)", "p99 (us)", "zip x");
  for (int threads : {16, 96}) {
    for (const PolicyRow& row : kRows) {
      IsoResult r = Measure(sim::DeviceProfile::Xio(), threads, row.zip);
      printf("%-13s %8d %12.2f %8.1f %10.0f %10.0f %7.2fx\n", row.name,
             threads, r.log_mb_s, r.cpu_pct, r.p50_us, r.p99_us,
             r.stored_ratio);
      json.Line(
          "{\"bench\":\"table7_cpu_at_iso_tput\",\"sweep\":\"policy\","
          "\"policy\":\"%s\",\"threads\":%d,\"log_mb_s\":%.2f,"
          "\"cpu_pct\":%.1f,\"p50_us\":%.0f,\"p99_us\":%.0f,"
          "\"stored_ratio\":%.2f}",
          row.name, threads, r.log_mb_s, r.cpu_pct, r.p50_us, r.p99_us,
          r.stored_ratio);
    }
  }
  return 0;
}
