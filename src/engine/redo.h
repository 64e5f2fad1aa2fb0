// RedoApplier: consumes the logical log stream and applies records to a
// buffer pool. One class serves all three consumers in the paper:
//
//  * Page Servers (§4.6): MissPolicy::kMaterialize with a partition
//    filter — every record of the partition is applied; new pages are
//    created; after a restart, old pages come back through the pool's
//    fetcher (XStore) and idempotent redo skips what the image already
//    contains.
//  * Secondaries (§4.5): MissPolicy::kIgnoreUncached — records for pages
//    that are not locally cached are skipped. The GetPage registration
//    protocol closes the resulting race: a fetch in flight registers its
//    page; records for registered pages are queued and drained into the
//    fetched image before it is installed.
//  * Crash recovery on any node: replay of the hardened log tail over the
//    recovered RBPEX cache.
//
// Applying a kTxnCommit record advances the applied-commit timestamp
// (snapshot visibility on read-only tiers); every record advances the
// applied-LSN watermark that GetPage@LSN waits on.
//
// Parallel redo (ConfigureLanes): page records are sharded by PageId into
// K apply lanes that run as concurrent coroutines, each consuming the
// node's CPU, so apply throughput scales with cores (the Taurus-style
// slice-partitioned replay). Same page -> same lane preserves per-page
// order; cross-page records (kTxnCommit, kCheckpoint) are barriers — the
// coordinator applies them, and advances applied_commit_ts / the applied
// watermark, only once every lane has drained the preceding stream
// prefix. Lanes may run ahead past a barrier (their effects are invisible
// at older MVCC snapshots until the commit timestamp advances), but the
// watermark never moves past a record some lane has not applied.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/buffer_pool.h"
#include "engine/log_record.h"
#include "sim/cpu.h"
#include "sim/sync.h"

namespace socrates {
namespace engine {

struct ParallelApplyState;

class RedoApplier {
 public:
  enum class MissPolicy {
    kMaterialize,    // fetch via the pool (or create) — Page Servers
    kIgnoreUncached  // skip records for uncached pages — Secondaries
  };

  RedoApplier(sim::Simulator& sim, BufferPool* pool, MissPolicy policy)
      : sim_(sim), pool_(pool), policy_(policy), applied_lsn_(sim) {}

  /// Restrict page records to a subset of pages (Page Server partition).
  void SetPageFilter(std::function<bool(PageId)> filter) {
    filter_ = std::move(filter);
  }

  /// Shard page records into `lanes` PageId-affine apply lanes. `cpu`
  /// (nullable) is the node CPU that pays the apply cost ApplyStream
  /// charges. Lane count never changes results — only how much virtual
  /// time the apply takes.
  void ConfigureLanes(int lanes, sim::CpuResource* cpu);
  int lanes() const { return lanes_; }

  /// Apply one record (already decoded from the stream at `lsn`,
  /// occupying `framed_size` bytes).
  sim::Task<Status> Apply(Lsn lsn, uint64_t framed_size,
                          const LogRecord& rec);

  /// Apply every record in a framed stream segment whose first byte is
  /// `start_lsn`. Records below the applied watermark are skipped
  /// (framing is still walked); records with lsn >= stop_at are not
  /// applied (point-in-time restore). Returns the LSN after the last
  /// record consumed.
  sim::Task<Result<Lsn>> ApplyStream(Slice stream, Lsn start_lsn,
                                     Lsn stop_at = kMaxLsn);

  /// §4.5 registration protocol. A reader about to fetch page `id`
  /// remotely registers it; Apply() queues records for registered pages.
  void RegisterPendingFetch(PageId id) { pending_[id]; }

  /// Drain queued records into the fetched image (applying those newer
  /// than the image) and unregister. Call before installing the image.
  Status DrainPendingInto(PageId id, storage::Page* image);

  /// Abandon a registration without an image (failed fetch).
  void CancelPendingFetch(PageId id) { pending_.erase(id); }

  sim::Watermark& applied_lsn() { return applied_lsn_; }
  Timestamp applied_commit_ts() const { return applied_commit_ts_; }

  /// Next page id carried by the most recent checkpoint record seen.
  PageId checkpoint_next_page_id() const { return checkpoint_next_page_id_; }

  uint64_t records_applied() const { return records_applied_; }

  // Parallel-apply counters (the benches print these).
  uint64_t parallel_batches() const { return parallel_batches_; }
  uint64_t barrier_stalls() const { return barrier_stalls_; }
  SimTime apply_busy_us() const { return apply_busy_us_; }
  const std::vector<uint64_t>& lane_records() const { return lane_records_; }
  /// Lane balance in (0,1]: mean over max per-lane record count; 1.0
  /// means perfectly even sharding.
  double LaneOccupancy() const;

  /// Highest page id seen in any page record (even filtered/skipped
  /// ones). A promoted Secondary restores its page-allocation counter to
  /// max_page_seen() + 1.
  PageId max_page_seen() const { return max_page_seen_; }

  struct StreamItem {
    Lsn lsn;
    uint64_t framed;
    LogRecord rec;
  };

 private:
  /// Cross-page (barrier) record: commit timestamps, checkpoint state.
  void ApplySystemRecord(const LogRecord& rec);
  /// Page record, WITHOUT advancing the applied watermark (the caller —
  /// serial Apply or the parallel coordinator — owns ordering).
  sim::Task<Status> ApplyPageRecord(Lsn lsn, const LogRecord& rec);

  // Pay `cost` microseconds of apply CPU on `cpu_` (if any).
  sim::Task<> ChargeApply(SimTime cost);

  sim::Task<Result<Lsn>> ApplyItemsParallel(StreamItem* items, size_t count,
                                            Lsn walked_end, SimTime cost);
  sim::Task<> LaneTask(std::shared_ptr<ParallelApplyState> st, int lane);
  sim::Task<> BarrierTask(std::shared_ptr<ParallelApplyState> st);

  sim::Simulator& sim_;
  BufferPool* pool_;
  MissPolicy policy_;
  std::function<bool(PageId)> filter_;
  sim::Watermark applied_lsn_;
  Timestamp applied_commit_ts_ = 0;
  PageId checkpoint_next_page_id_ = kInvalidPageId;
  uint64_t records_applied_ = 0;
  PageId max_page_seen_ = 0;

  int lanes_ = 1;
  sim::CpuResource* cpu_ = nullptr;
  uint64_t parallel_batches_ = 0;
  uint64_t barrier_stalls_ = 0;
  SimTime apply_busy_us_ = 0;
  std::vector<uint64_t> lane_records_;

  struct PendingRecord {
    Lsn lsn;
    LogRecord rec;
  };
  std::map<PageId, std::vector<PendingRecord>> pending_;

  // Decode arena for ApplyStream: StreamItems (and the value buffers
  // inside their records) are recycled across calls, so steady-state
  // stream parsing allocates nothing. `scratch_busy_` guards against a
  // reentrant ApplyStream (falls back to a local buffer).
  std::vector<StreamItem> scratch_items_;
  bool scratch_busy_ = false;
};

}  // namespace engine
}  // namespace socrates
