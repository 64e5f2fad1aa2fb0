// Table 5 — log throughput under the update-heavy ("max log") CDB mix,
// HADR vs Socrates (16 cores, 256 clients).
//
// Paper:            Log MB/s    CPU %
//   HADR            56.9        46.2
//   Socrates        89.8        73.2
//
// Mechanism to reproduce: in HADR, log production is throttled by the
// XStore backup egress (log + database backups stream through the
// Compute node). Socrates backs up with XStore snapshots, so the Primary
// can push log as fast as the landing zone accepts it — higher log rate
// AND higher CPU utilization. In the paper neither system is CPU-
// saturated. Here the Socrates Primary is: it runs at ~98% CPU, so its
// log rate is what its CPU can generate, not what the log pipeline can
// take (EXPERIMENTS.md, Table 5).

#include "harness.h"

using namespace socrates;
using namespace socrates::bench;

int main(int argc, char** argv) {
  JsonOut json("table5_log_throughput", argc, argv);
  PrintHeader("Table 5: CDB max-log mix, log throughput",
              "HADR 56.9 MB/s @46.2% CPU; Socrates 89.8 MB/s @73.2% CPU");

  // Write-write conflicts between the 256 concurrent bulk updates still
  // abort 13% of the Socrates transactions in the window (660 of 4968)
  // and 8% of HADR's (276 of 3512), so part of each log rate is retries;
  // both rows print `aborts`. The paper's 1 TB database has no such
  // contention.
  const uint64_t kScale = 1000;
  const int kCores = 16;
  const int kClients = 256;
  const SimTime kMeasure = 2 * 1000 * 1000;

  // The paper's Table 5 runs with the log component saturated on both
  // systems, so the setup aims at the log path: light CPU cost per row
  // (cpu_scale) and a fully cached compute tier (reads never stall the
  // commit path). The Socrates Primary still saturates its CPU first.
  const double kCpuScale = 1.2;

  // HADR: XStore egress shared between continuous log backup and
  // delta/database backups throttles the log.
  HadrBed hadr;
  hadr::HadrOptions hopts;
  hopts.max_backup_lag_bytes = 4 * MiB;
  hopts.background_backup_bytes_per_s = 24 * MiB;
  hadr.Build(kScale, workload::CdbMix::MaxLog(), kCores, hopts,
             /*xstore_bandwidth_mb_s=*/80.0, kCpuScale);
  uint64_t h_log0 = hadr.cluster->sink()->end_lsn();
  auto h = hadr.Run(kClients, kMeasure);
  uint64_t h_log = hadr.cluster->sink()->end_lsn() - h_log0;
  hadr.cluster->Stop();

  // Socrates: DirectDrive landing zone, snapshot backups (no coupling).
  // A single in-flight LZ write models the paper's log-writer cadence.
  SocratesBed soc;
  soc.Build(kScale, workload::CdbMix::MaxLog(), /*mem=*/1.0, /*ssd=*/1.0,
            kCores, sim::DeviceProfile::DirectDrive(),
            /*page_servers=*/4, kCpuScale, /*lz_max_inflight=*/2);
  uint64_t s_log0 = soc.deployment->log_client().end_lsn();
  auto s = soc.Run(kClients, kMeasure);
  uint64_t s_log = soc.deployment->log_client().end_lsn() - s_log0;

  // Apply-path counters (parallel redo lanes + pipelined XLOG pulls) for
  // each Page Server, gathered before teardown.
  printf("\nPage Server apply path (lanes=%d):\n",
         soc.deployment->page_server(0)->applier().lanes());
  printf("%-4s %10s %8s %8s %8s %10s %10s %10s %10s\n", "ps", "records",
         "batches", "stalls", "occup", "busy us", "pull us", "pulls",
         "pipelined");
  for (int i = 0; i < soc.deployment->num_page_servers(); i++) {
    pageserver::PageServer* ps = soc.deployment->page_server(i);
    const engine::RedoApplier& ap = ps->applier();
    printf("%-4d %10llu %8llu %8llu %8.2f %10llu %10llu %10llu %10llu\n", i,
           (unsigned long long)ap.records_applied(),
           (unsigned long long)ap.parallel_batches(),
           (unsigned long long)ap.barrier_stalls(), ap.LaneOccupancy(),
           (unsigned long long)ap.apply_busy_us(),
           (unsigned long long)ps->pull_wait_us(),
           (unsigned long long)ps->pulls(),
           (unsigned long long)ps->pipelined_pull_hits());
    printf("     freshness wait us: %s\n",
           ps->freshness_wait_us().ToString().c_str());
  }

  // Commit-path phase split (enqueue -> quorum ack -> in-order harden ->
  // visible) and LZ flush-size / occupancy counters for the Socrates log
  // pipeline.
  xlog::XLogClient& lc = soc.deployment->log_client();
  xlog::LandingZone& lz = soc.deployment->landing_zone();
  printf("\nCommit-path phases (us):\n");
  printf("  enqueue  %s\n", lc.enqueue_phase().ToString().c_str());
  printf("  quorum   %s\n", lc.quorum_phase().ToString().c_str());
  printf("  harden   %s\n", lc.harden_wait_phase().ToString().c_str());
  printf("  visible  %s\n", lc.visible_phase().ToString().c_str());
  printf("LZ flush sizes (bytes): %s\n",
         lc.flush_sizes().ToString().c_str());
  printf("LZ occupancy: peak %llu / %llu stored bytes, stalls %llu\n",
         (unsigned long long)lz.peak_stored_bytes(),
         (unsigned long long)lz.capacity(),
         (unsigned long long)lc.lz_stalls());
  json.Line(
      "{\"bench\":\"table5_log_throughput\",\"detail\":\"phases\","
      "\"enqueue_p50_us\":%.0f,\"enqueue_p99_us\":%.0f,"
      "\"quorum_p50_us\":%.0f,\"quorum_p99_us\":%.0f,"
      "\"harden_wait_p50_us\":%.0f,\"harden_wait_p99_us\":%.0f,"
      "\"visible_p50_us\":%.0f,\"visible_p99_us\":%.0f,"
      "\"flush_mean_bytes\":%.0f,\"lz_peak_stored_bytes\":%llu,"
      "\"lz_stalls\":%llu}",
      lc.enqueue_phase().Percentile(50), lc.enqueue_phase().Percentile(99),
      lc.quorum_phase().Percentile(50), lc.quorum_phase().Percentile(99),
      lc.harden_wait_phase().Percentile(50),
      lc.harden_wait_phase().Percentile(99),
      lc.visible_phase().Percentile(50),
      lc.visible_phase().Percentile(99), lc.flush_sizes().mean(),
      (unsigned long long)lz.peak_stored_bytes(),
      (unsigned long long)lc.lz_stalls());
  soc.deployment->Stop();

  double secs = kMeasure / 1e6;
  double h_mb_s = h_log / secs / 1e6;
  double s_mb_s = s_log / secs / 1e6;
  printf("\n%-10s %12s %10s\n", "", "Log MB/s", "CPU %");
  printf("%-10s %12.1f %10.1f   (paper: 56.9 / 46.2)\n", "HADR", h_mb_s,
         100 * h.cpu_utilization);
  printf("%-10s %12.1f %10.1f   (paper: 89.8 / 73.2)\n", "Socrates",
         s_mb_s, 100 * s.cpu_utilization);
  printf("\nSocrates/HADR log throughput ratio: %.2fx  (paper: 1.58x)\n",
         s_mb_s / h_mb_s);
  printf("HADR backup stalls: %llu (log throttled by backup egress)\n",
         (unsigned long long)hadr.cluster->sink()->backup_stalls());
  printf("Aborted transactions: HADR %llu of %llu, Socrates %llu of "
         "%llu transactions\n",
         (unsigned long long)h.aborts,
         (unsigned long long)(h.commits + h.aborts),
         (unsigned long long)s.aborts,
         (unsigned long long)(s.commits + s.aborts));
  json.Line("{\"bench\":\"table5_log_throughput\",\"system\":\"hadr\","
            "\"log_mb_s\":%.2f,\"cpu_pct\":%.1f,\"backup_stalls\":%llu,"
            "\"commits\":%llu,\"aborts\":%llu}",
            h_mb_s, 100 * h.cpu_utilization,
            (unsigned long long)hadr.cluster->sink()->backup_stalls(),
            (unsigned long long)h.commits, (unsigned long long)h.aborts);
  json.Line("{\"bench\":\"table5_log_throughput\",\"system\":\"socrates\","
            "\"log_mb_s\":%.2f,\"cpu_pct\":%.1f,\"ratio_vs_hadr\":%.2f,"
            "\"commits\":%llu,\"aborts\":%llu}",
            s_mb_s, 100 * s.cpu_utilization, s_mb_s / h_mb_s,
            (unsigned long long)s.commits, (unsigned long long)s.aborts);
  return 0;
}
