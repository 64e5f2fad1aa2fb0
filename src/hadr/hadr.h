// HADR: the pre-Socrates SQL DB architecture (paper §2, Figure 1) — a
// log-replicated state machine. This is the baseline every experiment
// compares against.
//
// Shape reproduced:
//  * One Primary and three Secondaries, each holding a FULL local
//    copy of the database (local reads never leave the node; cache hit
//    rate is 100% by construction).
//  * Log shipping: the Primary writes log locally and ships every block
//    to all Secondaries; a transaction commits when a quorum of nodes
//    (Primary + majority of Secondaries) has persisted it.
//  * Backups to XStore: the log is backed up continuously (every five
//    minutes in production); crucially, log production is throttled to
//    what the backup egress can sustain — the effect behind Table 5.
//  * O(size-of-data) operations: seeding a new Secondary copies the whole
//    database; backup/restore stream all data through XStore.

#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/buffer_pool.h"
#include "engine/log_sink.h"
#include "engine/redo.h"
#include "engine/txn_engine.h"
#include "sim/cpu.h"
#include "sim/latency.h"
#include "xstore/xstore.h"

namespace socrates {
namespace hadr {

struct HadrOptions {
  /// Quorum counts the Primary's local write plus Secondary acks.
  int commit_quorum = 3;
  int cpu_cores = 8;
  size_t mem_pages = 4096;
  /// Max bytes of log produced but not yet backed up to XStore before
  /// the Primary stalls (backup egress throttling, §7.4).
  uint64_t max_backup_lag_bytes = 8 * MiB;
  /// Continuous page/delta backup traffic that shares XStore egress with
  /// the log backup, in bytes per second (0 = none).
  uint64_t background_backup_bytes_per_s = 20 * MiB;
};

class HadrSecondary;

/// The Primary's log sink: local log write + ship to all Secondaries;
/// hardened at quorum; backpressured by the XStore log-backup lag.
class HadrLogSink : public engine::LogSink {
 public:
  HadrLogSink(sim::Simulator& sim, sim::CpuResource* cpu,
              std::vector<HadrSecondary*>* secondaries,
              xstore::XStore* xstore, const HadrOptions& options);

  void Start();
  void Stop();

  Lsn Append(const engine::LogRecord& rec) override;
  Lsn end_lsn() const override { return end_lsn_; }
  Lsn hardened_lsn() const override { return hardened_.value(); }
  sim::Task<Status> WaitHardened(Lsn lsn) override;
  sim::Task<Status> Flush();
  /// Where the next shipped block starts: everything below it is in a
  /// block already on its way to the current Secondaries.
  Lsn shipped_lsn() const { return flushed_; }

  uint64_t backup_stalls() const { return backup_stalls_; }
  const std::string& stream() const { return stream_; }

 private:
  sim::Task<> FlusherLoop();
  sim::Task<> BackupLoop();
  sim::Task<> BackgroundBackupLoop();

  sim::Simulator& sim_;
  sim::CpuResource* cpu_;
  std::vector<HadrSecondary*>* secondaries_;
  xstore::XStore* xstore_;
  HadrOptions opts_;
  Random rng_;

  std::string stream_;   // full logical stream (local log file)
  Lsn flushed_;          // shipped/persisted boundary
  Lsn end_lsn_;
  sim::Watermark hardened_;
  sim::Watermark backup_progress_;
  Lsn backed_up_ = engine::kLogStreamStart;
  sim::Event work_;
  bool running_ = false;
  uint64_t backup_stalls_ = 0;
  std::unique_ptr<storage::SimBlockDevice> log_disk_;
};

/// A Secondary: full local copy, applies every shipped block.
class HadrSecondary {
 public:
  HadrSecondary(sim::Simulator& sim, const HadrOptions& options, int index);

  /// Deliver a log block (called by the sink's shipping tasks). Applies
  /// the records and returns once persisted locally (the ack point).
  /// The payload is shared immutably with every other replica's shipping
  /// task — delivery is a refcount bump, not a copy of the block.
  sim::Task<Status> Receive(Lsn start_lsn,
                            std::shared_ptr<const std::string> payload);

  engine::Engine* engine() { return engine_.get(); }
  engine::RedoApplier* applier() { return applier_.get(); }
  Lsn applied_lsn() const { return applier_->applied_lsn().value(); }
  sim::CpuResource& cpu() { return *cpu_; }

 private:
  sim::Simulator& sim_;
  HadrOptions opts_;
  std::unique_ptr<sim::CpuResource> cpu_;
  std::unique_ptr<storage::SimBlockDevice> log_disk_;
  std::unique_ptr<engine::BufferPool> pool_;
  std::unique_ptr<engine::RedoApplier> applier_;
  std::unique_ptr<engine::Engine> engine_;
  Random rng_;
};

/// The four-node HADR deployment.
class HadrCluster {
 public:
  HadrCluster(sim::Simulator& sim, xstore::XStore* xstore,
              const HadrOptions& options = {});
  ~HadrCluster();

  sim::Task<Status> Start();  // bootstrap the primary engine
  void Stop();

  /// The engine currently accepting read/write transactions (switches on
  /// failover).
  engine::Engine* primary_engine() { return active_engine_; }
  /// The active replication set — nodes currently receiving shipped log.
  /// A crashed Secondary and a promoted (now-Primary) node drop out even
  /// though their objects stay alive for the engines they own.
  HadrSecondary* secondary(int i) { return secondary_ptrs_[i]; }
  int num_secondaries() const {
    return static_cast<int>(secondary_ptrs_.size());
  }
  HadrLogSink* sink() { return sink_.get(); }
  sim::CpuResource& primary_cpu() { return *cpu_; }

  /// Seed one more Secondary by copying the full database — an
  /// O(size-of-data) operation (§2). Returns the seeding duration.
  sim::Task<Result<SimTime>> SeedNewSecondary();

  /// Promote secondary 0 after a primary failure. O(1) apply-tail wait
  /// but requires full local copy to exist.
  sim::Task<Status> Failover();

  /// Primary VM death: stop serving transactions until Failover() rewires
  /// the cluster. Log shipping to Secondaries also stops.
  void CrashPrimary();
  bool primary_alive() const { return primary_alive_; }

  /// Secondary VM death: removed from the shipping/quorum set. Replacing
  /// it requires SeedNewSecondary() — the O(size-of-data) operation.
  void CrashSecondary(int i);

 private:
  sim::Simulator& sim_;
  xstore::XStore* xstore_;
  HadrOptions opts_;
  std::unique_ptr<sim::CpuResource> cpu_;
  std::vector<std::unique_ptr<HadrSecondary>> secondaries_;
  std::vector<HadrSecondary*> secondary_ptrs_;
  std::unique_ptr<HadrLogSink> sink_;
  std::unique_ptr<engine::BufferPool> pool_;
  std::unique_ptr<engine::Engine> engine_;
  engine::Engine* active_engine_ = nullptr;
  bool primary_alive_ = true;
};

}  // namespace hadr
}  // namespace socrates
