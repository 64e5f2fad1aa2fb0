// Ablation — backup off the critical path (§3.5, §7.4).
//
// Paper claim: HADR must stream log + database backups through the
// Compute node, so log production is throttled by backup egress;
// Socrates' snapshot backups remove the coupling entirely. Isolate the
// effect on HADR itself: identical max-log workload with the backup
// throttle enabled vs disabled. Each row reports log MB/s and committed
// transactions/s: their quotient is the log a transaction writes, so a
// change to the log-record format shows apart from a change in the
// coupling.

#include "harness.h"

using namespace socrates;
using namespace socrates::bench;

namespace {

struct Rates {
  double log_mb_s = 0;
  double txn_per_s = 0;  // committed transactions
};

Rates Measure(uint64_t lag_bytes, double xstore_mb_s) {
  HadrBed hadr;
  hadr::HadrOptions hopts;
  hopts.max_backup_lag_bytes = lag_bytes;
  hopts.background_backup_bytes_per_s = 24 * MiB;
  hadr.Build(/*scale=*/150, workload::CdbMix::MaxLog(), /*cores=*/16,
             hopts, xstore_mb_s, /*cpu_scale=*/0.5);
  const SimTime kMeasure = 1500 * 1000;
  uint64_t log0 = hadr.cluster->sink()->end_lsn();
  const workload::DriverReport report =
      hadr.Run(/*clients=*/96, kMeasure);
  uint64_t bytes = hadr.cluster->sink()->end_lsn() - log0;
  hadr.cluster->Stop();
  return {bytes / (kMeasure / 1e6) / 1e6, report.total_tps};
}

}  // namespace

int main(int argc, char** argv) {
  JsonOut json("ablation_backup", argc, argv);
  PrintHeader("Ablation: backup coupling on the log path (§3.5 / §7.4)",
              "backup egress throttles HADR log production; snapshots "
              "remove the coupling");

  const Rates throttled = Measure(/*lag=*/4 * MiB, /*xstore=*/25.0);
  const Rates uncoupled = Measure(/*lag=*/1ull << 40, /*xstore=*/25.0);

  printf("\n%-38s %12s %12s %12s\n", "", "Log MB/s", "Txn/s",
         "Log KB/txn");
  for (const auto& [name, r] :
       {std::pair{"HADR, backup-throttled (production)", throttled},
        std::pair{"HADR, backup off critical path", uncoupled}}) {
    printf("%-38s %12.1f %12.0f %12.2f\n", name, r.log_mb_s, r.txn_per_s,
           r.txn_per_s > 0 ? r.log_mb_s * 1e3 / r.txn_per_s : 0.0);
  }
  printf("\nDecoupling speedup: %.2fx log, %.2fx txn/s — this is the "
         "headroom\nSocrates recovers by pushing backup down into XStore "
         "snapshots.\n",
         throttled.log_mb_s > 0 ? uncoupled.log_mb_s / throttled.log_mb_s
                                : 0.0,
         throttled.txn_per_s > 0
             ? uncoupled.txn_per_s / throttled.txn_per_s
             : 0.0);
  json.Line("{\"bench\":\"ablation_backup\",\"throttled_mb_s\":%.1f,"
            "\"uncoupled_mb_s\":%.1f,\"throttled_txn_s\":%.0f,"
            "\"uncoupled_txn_s\":%.0f}",
            throttled.log_mb_s, uncoupled.log_mb_s, throttled.txn_per_s,
            uncoupled.txn_per_s);
  return 0;
}
