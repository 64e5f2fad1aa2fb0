// PageServer (paper §4.6): owns one partition of the database.
//
// Responsibilities reproduced:
//  (i)   maintain the partition by consuming the (filtered) log stream
//        from XLOG and applying it to local pages;
//  (ii)  answer GetPage@LSN requests: wait until applied-LSN >= the
//        requested LSN, then return the page — the freshness protocol of
//        §4.4;
//  (iii) distributed checkpointing (ship dirty pages to XStore, with
//        write aggregation) and constant-time backups (XStore snapshots).
//
// Other §4.6 behaviours: the covering RBPEX cache (the pool's SSD tier is
// sized to the whole partition, so scans never suffer read
// amplification); insulation from XStore outages (a failed checkpoint
// round leaves pages dirty and retries later; log apply and page serving
// continue); asynchronous seeding (a new server serves requests while a
// background task warms its cache).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/buffer_pool.h"
#include "engine/redo.h"
#include "rbio/rbio.h"
#include "sim/cpu.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "xlog/log_block.h"
#include "xlog/log_consumer.h"
#include "xlog/xlog_process.h"
#include "xstore/xstore.h"

namespace socrates {
namespace pageserver {

struct PageServerOptions {
  PartitionId partition = 0;
  xlog::PartitionMap partition_map;
  size_t mem_pages = 1024;
  /// Covering cache: defaults to the partition size at Start().
  size_t ssd_pages = 0;
  SimTime checkpoint_interval_us = 500 * 1000;
  /// Deterministic per-server jitter on the checkpoint interval: each
  /// round waits interval * (1 ± jitter), drawn from an RNG seeded by
  /// this server's data blob name. Replicas of one database therefore
  /// drift apart instead of checkpointing in lockstep and thundering-
  /// herd XStore. 0 restores fixed-period rounds.
  double checkpoint_jitter_frac = 0.1;
  /// Checkpoint pipeline concurrency: up to this many XStore extent
  /// writes in flight per round (capture → write overlapped across
  /// batches under a semaphore). 1 reproduces the serialized
  /// capture→write→clear loop exactly.
  int checkpoint_inflight_writes = 4;
  int cpu_cores = 4;
  /// Redo apply lanes: page records are sharded by PageId across this
  /// many concurrent apply coroutines (same page -> same lane), so apply
  /// throughput scales with cpu_cores. 1 = the serial applier.
  int apply_lanes = 4;
  /// Stop applying log at this LSN (point-in-time restore); kMaxLsn =
  /// follow the live tail forever.
  Lsn apply_until = kMaxLsn;
  /// Use this XStore blob instead of the default partition blob name
  /// (PITR attaches restored snapshot copies under fresh names; Page
  /// Server replicas checkpoint to their own blob).
  std::string blob_override;
  /// Disable the periodic checkpoint loop (hot standby replicas that
  /// exist purely for availability can skip checkpointing, §6).
  bool checkpointing_enabled = true;

  // ----- Scan admission (§4.6: scan CPU must not starve the GetPage
  // path). ServeScan work is metered against a serving-health signal:
  // the recent p99 of one-page GetPage frames. While healthy,
  // scans are admitted immediately; while degraded they queue behind a
  // token bucket and are rejected with kOverloaded once the queue wait
  // exceeds its bound (kScanAdmissionMaxWaitUs; the client treats that
  // as "fall back locally, back off this endpoint").
  /// Master switch; off = pre-admission behavior (scans always admitted).
  bool scan_admission_enabled = true;
  /// Degraded while the recent GetPage service p99 exceeds this (µs over
  /// a sliding window of served one-page frames). 0 disables the trigger.
  SimTime scan_admission_p99_us = 5000;
  /// Token bucket draining queued scans while degraded: refill rate.
  double scan_admission_tokens_per_s = 100.0;

  // ----- Fleet colocation (multi-tenant shared hosts).
  /// When set, this server runs on a shared host CPU instead of owning
  /// its own: co-resident tenants' serving, apply, and scan-evaluation
  /// work contend for the same cores — the noisy-neighbor substrate.
  sim::CpuResource* shared_cpu = nullptr;
};

class PageServer : public rbio::RbioServer {
 public:
  PageServer(sim::Simulator& sim, xlog::XLogProcess* xlog,
             xstore::XStore* xstore, const PageServerOptions& options);
  ~PageServer();

  /// Bring the server online: recover RBPEX (if warm), read the
  /// checkpoint metadata from XStore, start the log-apply and checkpoint
  /// loops. Serving starts immediately; the cache warms asynchronously.
  sim::Task<Status> Start();

  /// Stop loops (the object remains queryable for tests).
  void Stop();

  /// GetPage@LSN (§4.4): returns a copy of the page with all updates up
  /// to `min_lsn` (or later) applied. Blocks until log apply catches up.
  /// In-process entry point: served as a one-entry kGetPageBatch frame.
  sim::Task<Result<storage::Page>> GetPageAtLsn(PageId page_id,
                                                Lsn min_lsn);

  /// rbio::RbioServer: decode a typed request frame and serve it.
  sim::Task<Result<std::string>> HandleRbio(
      const std::string& frame) override;

  /// Join a deployment-wide fault hub under `site` (the RBIO endpoint
  /// name, e.g. "ps-0", so client-side link faults and server-side site
  /// faults key on the same string). Site outages and transient-failure
  /// credits fail RBIO requests with Unavailable; gray delay slows them.
  void AttachChaos(chaos::Injector* hub, const std::string& site) {
    chaos_port_ = chaos::SitePort(hub, site);
  }
  const std::string& chaos_site() const { return chaos_port_.site(); }

  /// Run one checkpoint round now (also runs periodically). Rounds are
  /// serialized by an internal mutex; within a round, contiguous dirty
  /// runs are captured and written to XStore with up to
  /// `checkpoint_inflight_writes` writes in flight.
  sim::Task<Status> Checkpoint();

  /// Constant-time backup: checkpoint, then snapshot the XStore blob.
  /// Returns the snapshot id; its replay point is restart_lsn(). The
  /// forced-checkpoint vs snapshot latency split is recorded in
  /// last_backup_checkpoint_us()/last_backup_snapshot_us().
  sim::Task<Result<xstore::SnapshotId>> Backup();

  /// Background cache warm-up over the whole partition (§4.6 async
  /// seeding). Returns immediately; seeding_done() turns true at the end.
  void SeedAsync();

  /// Crash the process: volatile state is lost; RBPEX survives.
  void Crash();

  /// Enable the periodic checkpoint loop on a server constructed with
  /// checkpointing_enabled = false. Live migration builds the
  /// replacement server with checkpointing off (two writers on one blob
  /// would interleave extents) and flips it on here after cutover, once
  /// the incumbent has stopped. Idempotent.
  void ResumeCheckpointing();

  PartitionId partition() const { return opts_.partition; }
  /// True between a successful Start() and the next Stop()/Crash() —
  /// the liveness bit the cluster monitor's heartbeats read.
  bool running() const { return running_; }
  /// Restart generation (bumped by every Start and Crash/Stop); the
  /// monitor stamps its ledger with it to tell incarnations apart.
  uint64_t epoch() const { return epoch_; }
  sim::Watermark& applied_lsn() { return applier_->applied_lsn(); }
  Lsn restart_lsn() const { return restart_lsn_; }
  engine::BufferPool* pool() { return pool_.get(); }
  sim::CpuResource& cpu() { return *cpu_; }
  const std::string& data_blob() const { return data_blob_; }
  bool seeding_done() const { return seeding_done_; }
  uint64_t checkpoints_completed() const { return checkpoints_; }
  uint64_t checkpoint_failures() const { return checkpoint_failures_; }

  // Checkpoint pipeline health (§4.6; the benches print these).
  /// Pages / XStore extent writes persisted by successful batches.
  uint64_t checkpoint_pages_written() const {
    return checkpoint_pages_written_;
  }
  uint64_t checkpoint_batches() const { return checkpoint_batches_; }
  /// Virtual duration of each completed checkpoint round.
  const Histogram& checkpoint_duration_us() const {
    return checkpoint_duration_us_;
  }
  /// applied_lsn − restart_lsn, sampled at the start of every round: the
  /// log-replay window a crash at that instant would pay (recovery and
  /// seeding cost both scale with it).
  const Histogram& restart_lag_bytes() const { return restart_lag_bytes_; }
  /// Backup() latency split: the forced checkpoint vs the (constant-
  /// time) snapshot, so the §3.5 claim is measured rather than asserted.
  SimTime last_backup_checkpoint_us() const {
    return last_backup_checkpoint_us_;
  }
  SimTime last_backup_snapshot_us() const {
    return last_backup_snapshot_us_;
  }
  /// Start times of the first few checkpoint rounds (jitter tests).
  const std::vector<SimTime>& checkpoint_starts() const {
    return checkpoint_starts_;
  }
  uint64_t getpage_requests() const { return getpage_requests_; }
  /// kGetPageBatch frames served (GetPageAtLsn counts as one) / entries
  /// carried in them.
  uint64_t batch_requests() const { return batch_requests_; }
  uint64_t batch_subrequests() const { return batch_subrequests_; }

  // Pushdown-evaluator health (RBIO kScanRange; the benches print
  // these — rows vs tuples is the server-observed selectivity).
  /// kScanRange frames served.
  uint64_t scan_requests() const { return scan_requests_; }
  /// Visible rows the evaluator examined.
  uint64_t scan_rows_scanned() const { return scan_rows_scanned_; }
  /// Qualifying tuples shipped back.
  uint64_t scan_tuples_returned() const { return scan_tuples_returned_; }

  // Scan-admission health (the interference bench prints these).
  /// Scans that found the server degraded and waited on the token bucket
  /// (whether or not they were eventually admitted).
  uint64_t scans_queued() const { return scans_queued_; }
  /// Scans shed with kOverloaded (queue wait exceeded its bound).
  uint64_t scans_rejected() const { return scans_rejected_; }
  /// Admission-queue wait of every queued scan, admitted or shed.
  const Histogram& scan_queue_wait_us() const { return scan_queue_wait_us_; }
  /// Recent GetPage service p99 (µs) over the sliding sample window the
  /// admission gate reads; 0 until enough point reads have been served.
  SimTime recent_getpage_p99_us() const { return RecentGetPageP99Us(); }
  /// Full-lifetime GetPage service-time distribution (freshness wait +
  /// pool read), server side — the interference bench's defended metric.
  const Histogram& getpage_service_us() const { return getpage_service_us_; }
  /// Freshness waiters woken by the event-driven watermark hook (as
  /// opposed to requests that found the LSN already applied).
  uint64_t waiter_wakes() const { return waiter_wakes_; }
  /// Lag between the applied watermark crossing a waiter's threshold and
  /// the waiter resuming. Event-driven wakes make this 0 in virtual time
  /// (the old 300 µs poll quantized it).
  const Histogram& waiter_wake_lag_us() const { return waiter_wake_lag_us_; }

  // Apply-path health (the benches print these).
  engine::RedoApplier& applier() { return *applier_; }
  uint64_t pulls() const { return consumer_.pulls(); }
  uint64_t pipelined_pull_hits() const {
    return consumer_.pipelined_pull_hits();
  }
  SimTime pull_wait_us() const { return consumer_.pull_wait_us(); }
  /// GetPage@LSN wait-for-apply latency (§4.4 freshness waits).
  const Histogram& freshness_wait_us() const { return freshness_wait_us_; }

  /// Name of the XStore data blob for a partition.
  static std::string BlobName(PartitionId p) {
    return "db/partition-" + std::to_string(p);
  }

 private:
  class XStoreFetcher;
  struct CheckpointJoin;

  // One GetPage@LSN freshness wait parked until the applied watermark
  // crosses `lsn` (or the incarnation dies). Heap-ordered by lsn.
  struct FreshnessWaiter {
    FreshnessWaiter(sim::Simulator& sim, Lsn lsn) : lsn(lsn), event(sim) {}
    Lsn lsn;
    SimTime woken_at = 0;
    sim::Event event;
  };

  sim::Task<> CheckpointLoop(uint64_t epoch);
  // One contiguous dirty run: capture images (generation-stamped),
  // write the extent, clear the still-unchanged dirty bits.
  sim::Task<> CheckpointWriteBatch(std::vector<PageId> run,
                                   std::shared_ptr<CheckpointJoin> join,
                                   sim::Semaphore* sem, uint64_t epoch);
  sim::Task<Status> LoadMeta();
  sim::Task<Status> StoreMeta(Lsn restart_lsn);
  sim::Task<Status> WaitApplied(Lsn min_lsn);
  sim::Task<> SeedLoop(uint64_t epoch);

  // Serve one page from the local pool (no freshness wait — the caller
  // has already waited).
  sim::Task<Result<storage::Page>> ServeLocal(PageId page_id);
  // Per-frame state of the GetPage serve path, pooled so that serving a
  // frame allocates nothing but its encoded response.
  struct GetPageScratch {
    rbio::GetPageBatchResponse resp;
    std::vector<uint32_t> order;  // entry indexes in serve order
  };
  GetPageScratch AcquireScratch();
  void ReleaseScratch(GetPageScratch&& scratch);
  sim::Task<> ServeGetPages(rbio::GetPageBatchRequest req,
                            GetPageScratch* scratch);
  // kScanRange pushdown evaluator (§4.6 covering RBPEX + PushdownDB
  // economics): wait for min_lsn, pin the listed leaves at once, then
  // walk leaves from req.leaves[0] evaluating predicate/projection/
  // aggregate at req.read_ts.
  sim::Task<Result<std::string>> ServeScan(rbio::ScanRangeRequest req);

  // Scan admission (§4.6 serving-health defense): decide whether a
  // kScanRange request may run now. OK = admitted (possibly after a
  // token-bucket wait); kOverloaded = shed, the client falls back to a
  // local scan and backs off this endpoint.
  sim::Task<Status> AdmitScan();
  // True while the point-read path looks unhealthy (recent p99 over
  // threshold): scans must queue.
  bool ServingDegraded() const;
  // Sliding-window p99 of GetPage service time (0 = not enough samples).
  SimTime RecentGetPageP99Us() const;
  void RecordGetPageServiceTime(SimTime us);

  // Hook the current applier's watermark so every Advance wakes exactly
  // the waiters whose threshold was crossed.
  void AttachWaiterWake();
  void WakeWaiters(uint64_t applied);
  // Stop/Crash: wake everything; waiters observe the epoch bump and fail
  // Unavailable (coroutines must resume to clean up — never destroyed
  // while suspended).
  void WakeAllWaiters();

  bool Live(uint64_t epoch) const { return running_ && epoch == epoch_; }

  bool InPartition(PageId id) const {
    return opts_.partition_map.PartitionOf(id) == opts_.partition;
  }

  sim::Simulator& sim_;
  xlog::XLogProcess* xlog_;
  xstore::XStore* xstore_;
  PageServerOptions opts_;
  std::string data_blob_;
  std::string meta_blob_;

  // Owned unless the options bind this server to a shared host CPU.
  std::unique_ptr<sim::CpuResource> owned_cpu_;
  sim::CpuResource* cpu_;
  std::unique_ptr<XStoreFetcher> fetcher_;
  std::unique_ptr<engine::BufferPool> pool_;
  std::unique_ptr<engine::RedoApplier> applier_;
  // One per server, not per incarnation: its counters span restarts.
  xlog::LogConsumer consumer_;

  bool running_ = false;
  // Restart generation: a crash+restart bumps the epoch so service loops
  // spawned before the crash exit instead of racing the new ones.
  uint64_t epoch_ = 0;
  Lsn restart_lsn_ = engine::kLogStreamStart;
  bool seeding_done_ = false;
  uint64_t checkpoints_ = 0;
  uint64_t checkpoint_failures_ = 0;
  uint64_t checkpoint_pages_written_ = 0;
  uint64_t checkpoint_batches_ = 0;
  Histogram checkpoint_duration_us_;
  Histogram restart_lag_bytes_;
  SimTime last_backup_checkpoint_us_ = 0;
  SimTime last_backup_snapshot_us_ = 0;
  std::vector<SimTime> checkpoint_starts_;
  // Serializes checkpoint rounds (the periodic loop, manual Checkpoint()
  // calls, and Backup() can otherwise overlap and double-write extents).
  std::unique_ptr<sim::Mutex> checkpoint_mu_;
  // Per-server deterministic jitter source (seeded by the blob name).
  Random checkpoint_rng_;
  uint64_t getpage_requests_ = 0;
  uint64_t batch_requests_ = 0;
  uint64_t batch_subrequests_ = 0;
  uint64_t scan_requests_ = 0;
  uint64_t scan_rows_scanned_ = 0;
  uint64_t scan_tuples_returned_ = 0;
  // Scan admission state. One-page GetPage service times feed a small
  // ring whose p99 is the health signal.
  uint64_t scans_queued_ = 0;
  uint64_t scans_rejected_ = 0;
  Histogram scan_queue_wait_us_;
  double scan_tokens_ = 0;
  SimTime scan_tokens_refill_at_ = 0;
  static constexpr size_t kGetPageLatWindow = 128;
  SimTime getpage_lat_ring_[kGetPageLatWindow] = {};
  size_t getpage_lat_next_ = 0;
  size_t getpage_lat_count_ = 0;
  Histogram getpage_service_us_;
  Histogram freshness_wait_us_;
  // Min-heap of parked freshness waiters, ordered by lsn (front = lowest
  // threshold). Owned by the server, not the applier, so it survives the
  // applier swap on restart.
  std::vector<std::shared_ptr<FreshnessWaiter>> waiters_;
  uint64_t waiter_wakes_ = 0;
  Histogram waiter_wake_lag_us_;
  chaos::SitePort chaos_port_;
  std::vector<GetPageScratch> scratch_pool_;
};

}  // namespace pageserver
}  // namespace socrates
