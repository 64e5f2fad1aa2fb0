// XLogProcess: the heart of the XLOG service (paper §4.3, Figure 3).
//
// The Primary sends every log block here twice, in parallel:
//   * synchronously + durably to the LandingZone (for durability), and
//   * asynchronously, fire-and-forget over a lossy channel, to this
//     process (for availability).
// Because that second path is *speculative* (a block can arrive here
// before it is durable), blocks wait in the **pending area** and enter the
// **LogBroker** only once the Primary confirms they hardened in the LZ.
// Lost or out-of-order blocks are repaired by reading the missing byte
// range back from the LZ.
//
// On the wire blocks travel as checksummed frames (optionally
// compressed); DeliverFrame drops damaged ones and the repair path above
// covers the gap.
//
// Once admitted, blocks live in the in-memory **sequence map** for fast
// dissemination. A Page Server's filtered pull is one walk of it: blocks
// touching its partition are served whole, and each irrelevant stretch
// between them collapses into a single metadata-only gap run. Every pull
// is bounded by the global `available` watermark — the admitted
// (hardened + contiguous) frontier — so no partition's stream can ever
// expose a record whose stream predecessors are unacknowledged.
//
// A **destaging** pipeline writes admitted blocks to a fixed-size local
// SSD block cache and appends them to the long-term archive (LT) in
// XStore over several parallel lanes, each batch one gather write that
// maps the blocks' own payloads; the destaged frontier (and LZ
// truncation) advances only over the contiguous prefix of completed
// batches. Consumers (Secondaries, Page Servers) *pull* blocks — the
// broker does not track consumers — optionally filtered by partition,
// served from (in order): sequence map, local SSD cache, LZ, LT.

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/log_record.h"
#include "engine/log_sink.h"
#include "sim/channel.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/block_device.h"
#include "xlog/landing_zone.h"
#include "xlog/log_block.h"
#include "xstore/xstore.h"

namespace socrates {
namespace xlog {

struct XLogOptions {
  uint64_t sequence_map_bytes = 8 * MiB;  // in-memory tail for dissemination
  std::string lt_blob = "log/lt";         // long-term archive blob in XStore
  PartitionMap partition_map;
};

class XLogProcess {
 public:
  /// Concurrent destage batches in flight (SSD + LT writes overlap; the
  /// destaged frontier still advances in order).
  static constexpr int kDestageLanes = 4;

  XLogProcess(sim::Simulator& sim, LandingZone* lz, xstore::XStore* lt,
              const XLogOptions& options);

  /// Start the destaging pipeline. Call once.
  void Start();

  /// Stop background loops (drains the destage queue first).
  void Stop();

  // ----- Primary-facing interface (lossy fire-and-forget delivery).

  /// A block arriving from the Primary's async channel. Goes to the
  /// pending area until its range is confirmed hardened.
  void DeliverBlock(LogBlock block);

  /// A wire frame arriving from the Primary's async channel. Returns
  /// Corruption for damaged frames (dropped; the lossy-channel repair
  /// path covers the gap).
  Status DeliverFrame(Slice frame);

  /// The Primary confirms durability up to `lsn`. Pending blocks whose
  /// range is covered move into the LogBroker; gaps are repaired from
  /// the LZ.
  void NotifyHardened(Lsn lsn);

  // ----- Consumer-facing interface (pull).

  /// Blocks covering [from, ...), at most `max_bytes` of payload. If
  /// `filter` is set, blocks not touching that partition are returned as
  /// metadata-only (filtered) blocks so the consumer's applied LSN still
  /// advances; consecutive irrelevant blocks coalesce into one gap run.
  /// Returns an empty vector if `from` >= available end.
  sim::Task<Result<std::vector<LogBlock>>> Pull(
      Lsn from, std::optional<PartitionId> filter, uint64_t max_bytes);
  /// `max_bytes` of one round of a consumer's apply loop (Page Servers,
  /// Secondaries, Primary recovery).
  static constexpr uint64_t kPullBytes = 1 * MiB;

  /// Watermark of log available for dissemination (end of the LogBroker).
  sim::Watermark& available() { return available_; }

  /// How long XLOG waits for an in-flight delivery before reading the
  /// missing range back from the LZ.
  static constexpr SimTime kRepairDelayUs = 2000;
  /// Destage retry backoff while XStore is unavailable.
  static constexpr SimTime kDestageRetryUs = 50000;
  /// Destaging batches contiguous blocks into LT writes up to this size.
  static constexpr uint64_t kDestageBatchBytes = 4 * MiB;
  /// Local SSD block cache, circular over the stream like the LZ.
  static constexpr uint64_t kSsdCacheBytes = 64 * MiB;

  Lsn hardened_lsn() const { return hardened_; }
  Lsn destaged_lsn() const { return destaged_; }
  uint64_t pending_blocks() const { return pending_.size(); }
  uint64_t sequence_map_blocks() const { return seq_map_.size(); }
  uint64_t repairs() const { return repairs_; }
  uint64_t pulls_from_seq_map() const { return pulls_seq_; }
  uint64_t pulls_from_ssd() const { return pulls_ssd_; }
  uint64_t pulls_from_lz() const { return pulls_lz_; }
  uint64_t pulls_from_lt() const { return pulls_lt_; }
  uint64_t frames_corrupt() const { return frames_corrupt_; }

 private:
  // Move contiguous hardened pending blocks into the broker; repair gaps.
  void TryAdmit();
  sim::Task<> RepairGap(Lsn from, Lsn to);
  void Admit(LogBlock block);
  void EvictSequenceMap();
  sim::Task<> DestageLoop();
  sim::Task<> DestageBatchTask(Lsn start, storage::SegmentList batch);
  void MaybeSetDestageIdle();

  // Compute the partition annotation of a raw stream range (used when a
  // block is reconstructed from LZ/LT bytes).
  std::set<PartitionId> AnnotatePayload(Slice payload) const;

  // Read stream bytes [from, to) from the best tier below the seq map.
  sim::Task<Result<std::string>> ReadRange(Lsn from, Lsn to,
                                           uint64_t* tier_counter_ssd,
                                           uint64_t* tier_counter_lz,
                                           uint64_t* tier_counter_lt);

  sim::Simulator& sim_;
  LandingZone* lz_;
  xstore::XStore* lt_;
  XLogOptions opts_;

  std::map<Lsn, LogBlock> pending_;   // by start LSN, awaiting hardening
  // Admitted tail. Its blocks share their payloads with the destage
  // queue and every pull result.
  std::map<Lsn, LogBlock> seq_map_;
  uint64_t seq_map_bytes_ = 0;
  sim::Watermark available_;          // == admitted end
  Lsn hardened_ = engine::kLogStreamStart;
  Lsn destaged_ = engine::kLogStreamStart;
  Lsn ssd_cache_start_ = engine::kLogStreamStart;

  std::unique_ptr<storage::SimBlockDevice> ssd_cache_;
  sim::Channel<LogBlock> destage_q_;
  std::unique_ptr<sim::Semaphore> destage_slots_;
  int inflight_destages_ = 0;
  std::map<Lsn, Lsn> destage_done_;   // out-of-order batch completions
  bool running_ = false;
  bool repairing_ = false;
  sim::Event destage_idle_;

  uint64_t repairs_ = 0;
  uint64_t pulls_seq_ = 0;
  uint64_t pulls_ssd_ = 0;
  uint64_t pulls_lz_ = 0;
  uint64_t pulls_lt_ = 0;
  uint64_t frames_corrupt_ = 0;
};

}  // namespace xlog
}  // namespace socrates
