// Table 6 (Appendix A) — commit latency of the CDB UpdateLite mix with a
// single client, landing zone on XIO vs DirectDrive.
//
// Paper (microseconds):    STDEV    Min     Median   Max
//   XIO                    431      2518    3300     36864
//   DD                     167      484     800      39857
//
// Shape to reproduce: DD's median ~4x lower; DD min well under 1 ms while
// XIO's min is above 2 ms; max dominated by rare stragglers in both.
//
// Extended sweep: commit latency across load levels (client fan-in) and
// log-block policies — raw blocks vs the same cut with wire/LZ
// compression — on the XIO profile, where per-I/O and per-byte costs
// make the policy differences visible.
// Each (policy, load) cell reports transaction p50/p99 plus the
// commit-path phase split (enqueue / quorum / visible) and LZ flush-size
// and occupancy counters.

#include "harness.h"

using namespace socrates;
using namespace socrates::bench;

namespace {

Histogram MeasureCommitLatency(sim::DeviceProfile lz_profile) {
  SocratesBed soc;
  soc.Build(/*scale=*/50, workload::CdbMix::UpdateLite(), /*mem=*/1.0,
            /*ssd=*/1.0, /*cores=*/8, lz_profile);
  Histogram h;
  RunSim(soc.sim, [&]() -> sim::Task<> {
    Random rng(123);
    engine::Engine* e = soc.deployment->primary_engine();
    for (int i = 0; i < 2000; i++) {
      SimTime begin = soc.sim.now();
      workload::TxnResult r =
          co_await soc.cdb->RunOne(e, nullptr, &rng);
      if (r.committed && i >= 100) {
        h.Add(static_cast<double>(soc.sim.now() - begin));
      }
    }
  });
  soc.deployment->Stop();
  return h;
}

struct Policy {
  const char* name;
  bool zip;
};

constexpr Policy kPolicies[] = {
    {"fixed", false},
    {"zip", true},
};

struct SweepCell {
  double p50 = 0, p99 = 0;
  double enq_p50 = 0, enq_p99 = 0;
  double quo_p50 = 0, quo_p99 = 0;
  double hw_p50 = 0, hw_p99 = 0;
  double vis_p50 = 0, vis_p99 = 0;
  double flush_mean = 0;
  uint64_t blocks = 0, zipped = 0;
  uint64_t logical_bytes = 0, stored_bytes = 0;
  uint64_t lz_peak = 0;
};

SweepCell MeasureSweepCell(const Policy& pol, int clients) {
  SocratesBed soc;
  // Appendix-A style: give each lite update a fixed 2 KiB payload so the
  // commit path carries real log volume (the median commit block is the
  // update itself, not a bare commit record).
  soc.tweak_copts = [&](workload::CdbOptions* c) {
    c->lite_payload_bytes = 2048;
  };
  soc.tweak_dopts = [&](service::DeploymentOptions* d) {
    d->xlog_client.compress_blocks = pol.zip;
  };
  // A larger scale factor keeps write-write conflicts rare at 256
  // clients (as in Table 5), so the sweep measures the commit pipeline
  // rather than row contention.
  soc.Build(/*scale=*/400, workload::CdbMix::UpdateLite(), /*mem=*/1.0,
            /*ssd=*/1.0, /*cores=*/8, sim::DeviceProfile::Xio());
  auto r = soc.Run(clients, /*measure_us=*/1500 * 1000);
  xlog::XLogClient& lc = soc.deployment->log_client();
  xlog::LandingZone& lz = soc.deployment->landing_zone();
  SweepCell c;
  c.p50 = r.latency_us.Percentile(50);
  c.p99 = r.latency_us.Percentile(99);
  c.enq_p50 = lc.enqueue_phase().Percentile(50);
  c.enq_p99 = lc.enqueue_phase().Percentile(99);
  c.quo_p50 = lc.quorum_phase().Percentile(50);
  c.quo_p99 = lc.quorum_phase().Percentile(99);
  c.hw_p50 = lc.harden_wait_phase().Percentile(50);
  c.hw_p99 = lc.harden_wait_phase().Percentile(99);
  c.vis_p50 = lc.visible_phase().Percentile(50);
  c.vis_p99 = lc.visible_phase().Percentile(99);
  c.flush_mean = lc.flush_sizes().mean();
  c.blocks = lc.blocks_written();
  c.zipped = lc.compressed_blocks();
  c.logical_bytes = lz.logical_bytes_written();
  c.stored_bytes = lz.stored_bytes_written();
  c.lz_peak = lz.peak_stored_bytes();
  soc.deployment->Stop();
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  JsonOut json("table6_lz_latency", argc, argv);
  PrintHeader("Table 6: UpdateLite commit latency, XIO vs DirectDrive",
              "XIO min/median 2518/3300 us; DD min/median 484/800 us");

  Histogram xio = MeasureCommitLatency(sim::DeviceProfile::Xio());
  Histogram dd = MeasureCommitLatency(sim::DeviceProfile::DirectDrive());

  printf("\n%-6s %10s %10s %12s %10s\n", "", "STDEV", "Min (us)",
         "Median (us)", "Max (us)");
  printf("%-6s %10.0f %10.0f %12.0f %10.0f   (paper: 431 / 2518 / 3300 "
         "/ 36864)\n",
         "XIO", xio.stddev(), xio.min(), xio.Median(), xio.max());
  printf("%-6s %10.0f %10.0f %12.0f %10.0f   (paper: 167 / 484 / 800 / "
         "39857)\n",
         "DD", dd.stddev(), dd.min(), dd.Median(), dd.max());
  printf("\nXIO/DD median ratio: %.1fx  (paper: 4.1x)\n",
         xio.Median() / dd.Median());
  json.Line("{\"bench\":\"table6_lz_latency\",\"lz\":\"xio\","
            "\"stddev_us\":%.0f,\"min_us\":%.0f,\"median_us\":%.0f,"
            "\"max_us\":%.0f}",
            xio.stddev(), xio.min(), xio.Median(), xio.max());
  json.Line("{\"bench\":\"table6_lz_latency\",\"lz\":\"dd\","
            "\"stddev_us\":%.0f,\"min_us\":%.0f,\"median_us\":%.0f,"
            "\"max_us\":%.0f}",
            dd.stddev(), dd.min(), dd.Median(), dd.max());

  printf("\n--- Raw vs compressed blocks (XIO landing zone) ---\n");
  printf("%-13s %8s %10s %10s | %9s %9s %9s %9s | %9s %7s %6s\n",
         "policy", "clients", "p50 (us)", "p99 (us)", "enq p50",
         "quo p50", "hw p50", "vis p50", "blk mean", "blocks", "zip%");
  for (int clients : {1, 32, 256}) {
    for (const Policy& pol : kPolicies) {
      SweepCell c = MeasureSweepCell(pol, clients);
      double zip_pct =
          c.blocks > 0 ? 100.0 * c.zipped / c.blocks : 0.0;
      double ratio =
          c.stored_bytes > 0
              ? static_cast<double>(c.logical_bytes) / c.stored_bytes
              : 1.0;
      printf("%-13s %8d %10.0f %10.0f | %9.0f %9.0f %9.0f %9.0f | %9.0f "
             "%7llu %5.0f%%\n",
             pol.name, clients, c.p50, c.p99, c.enq_p50, c.quo_p50,
             c.hw_p50, c.vis_p50, c.flush_mean, (unsigned long long)c.blocks,
             zip_pct);
      json.Line(
          "{\"bench\":\"table6_lz_latency\",\"sweep\":\"policy\","
          "\"policy\":\"%s\",\"clients\":%d,\"p50_us\":%.0f,"
          "\"p99_us\":%.0f,\"enqueue_p50_us\":%.0f,"
          "\"enqueue_p99_us\":%.0f,\"quorum_p50_us\":%.0f,"
          "\"quorum_p99_us\":%.0f,\"harden_wait_p50_us\":%.0f,"
          "\"harden_wait_p99_us\":%.0f,\"visible_p50_us\":%.0f,"
          "\"visible_p99_us\":%.0f,\"flush_mean_bytes\":%.0f,"
          "\"blocks\":%llu,\"compressed_blocks\":%llu,"
          "\"compression_ratio\":%.2f,\"lz_peak_stored_bytes\":%llu}",
          pol.name, clients, c.p50, c.p99, c.enq_p50, c.enq_p99,
          c.quo_p50, c.quo_p99, c.hw_p50, c.hw_p99, c.vis_p50, c.vis_p99,
          c.flush_mean,
          (unsigned long long)c.blocks, (unsigned long long)c.zipped, ratio,
          (unsigned long long)c.lz_peak);
    }
  }
  return 0;
}
