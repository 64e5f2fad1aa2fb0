// XLogClient: the Primary-side log writer (paper §4.3, upper-left of
// Figure 3), implementing engine::LogSink.
//
// Appends buffer into the current block; a single flusher coroutine takes
// one of max_inflight_writes write slots, then cuts a block of everything
// buffered (up to 60 KiB) — so commits that arrive while every slot is
// busy ride the next block together; with a slot free the cut is
// immediate, so a lone commit pays one quorum write. For each block,
// *in parallel*, it:
//   * writes it synchronously + durably to the LandingZone (commit path;
//     quorum write; burns per-I/O CPU on the Primary — the XIO-vs-DD
//     effect of Table 7), and
//   * sends it asynchronously, fire-and-forget over a lossy channel, to
//     the XLOG process (availability path; speculative logging).
// Once the LZ write completes, the hardened watermark advances (waking
// all commits in the block — group commit) and a durability notification
// is sent to XLOG so it can move the block out of the pending area.
//
// Blocks may be compressed, once per block: the same stored bytes go to
// the LZ and travel the async wire inside a checksummed frame.
//
// If the LZ is full (destaging behind) the flusher stalls and retries:
// the Primary cannot process update transactions until space frees (§4.3).

#pragma once

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/types.h"
#include "engine/log_sink.h"
#include "sim/cpu.h"
#include "sim/latency.h"
#include "sim/sync.h"
#include "xlog/landing_zone.h"
#include "xlog/log_block.h"
#include "xlog/xlog_process.h"

namespace socrates {
namespace xlog {

struct XLogClientOptions {
  uint64_t max_block_bytes = kMaxLogBlockSize;
  /// Outstanding LZ block writes (the real log writer keeps several
  /// I/Os in flight; hardening still advances in log order).
  int max_inflight_writes = 8;
  PartitionMap partition_map;
  /// Chaos injection: async block deliveries ask the log writer's port
  /// ("logwriter" in a deployment) for a partition / lossy-link verdict
  /// on the link to chaos::kXLogSite and pay any configured link delay.
  /// Durability notifications stay on the reliable control channel
  /// (they are cumulative; XLOG repairs lost blocks from the LZ — §4.3
  /// liveness does not depend on delivery).
  chaos::SitePort chaos;

  /// Compress block payloads (LZ storage and the wire frame). Blocks
  /// that do not shrink are kept raw.
  bool compress_blocks = false;
};

class XLogClient : public engine::LogSink {
 public:
  /// `cpu` (nullable) is the Primary's CPU; LZ writes charge their
  /// per-I/O cost there. `xlog` may be null (durability-only deployments
  /// in unit tests).
  XLogClient(sim::Simulator& sim, LandingZone* lz, XLogProcess* xlog,
             sim::CpuResource* cpu, const XLogClientOptions& options,
             uint64_t seed = 0xc11e);

  void Start();
  void Stop();

  /// Attach/replace the CPU that pays for LZ I/O (the current Primary's;
  /// re-pointed on failover).
  void SetCpu(sim::CpuResource* cpu) { cpu_ = cpu; }

  // engine::LogSink:
  Lsn Append(const engine::LogRecord& rec) override;
  Lsn end_lsn() const override { return end_lsn_; }
  Lsn hardened_lsn() const override { return hardened_.value(); }
  sim::Task<Status> WaitHardened(Lsn lsn) override;

  /// Wait until everything appended so far is hardened.
  sim::Task<Status> Flush();

  /// CPU cost of compressing one block of `bytes` (charged on the
  /// Primary when compression is enabled).
  static constexpr double kCompressCpuUsPerKb = 0.4;

  uint64_t blocks_written() const { return blocks_written_; }
  uint64_t bytes_written() const { return bytes_written_; }
  /// Physical bytes handed to the LZ (== bytes_written when raw).
  uint64_t stored_bytes_written() const { return stored_bytes_written_; }
  uint64_t compressed_blocks() const { return compressed_blocks_; }
  uint64_t deliveries_lost() const { return deliveries_lost_; }
  uint64_t lz_stalls() const { return lz_stalls_; }
  uint64_t wire_bytes_sent() const { return wire_bytes_sent_; }

  // Commit-path phase histograms (all in microseconds except flush size),
  // one sample per block:
  //   enqueue     — first append in a block until the block is cut,
  //                 including the wait for a free write slot;
  //   quorum      — cut until the block's own LZ quorum write completes;
  //   harden_wait — that completion until the durable end passes the
  //                 block (an earlier block's write was still in flight);
  //   visible     — hardened until XLOG admits the block for dissemination.
  // enqueue + quorum + harden_wait is the block's first append to hardened.
  const Histogram& enqueue_phase() const { return hist_enqueue_us_; }
  const Histogram& quorum_phase() const { return hist_quorum_us_; }
  const Histogram& harden_wait_phase() const { return hist_harden_wait_us_; }
  const Histogram& visible_phase() const { return hist_visible_us_; }
  /// Cut-block payload sizes in bytes.
  const Histogram& flush_sizes() const { return hist_flush_bytes_; }

 private:
  sim::Task<> FlusherLoop();
  // `stored` is the block's compressed payload, null when it stays raw.
  sim::Task<> WriteBlockTask(LogBlock block,
                             std::shared_ptr<const std::string> stored,
                             SimTime cut_at_us);
  sim::Task<> VisibleWatch(Lsn end, SimTime hardened_at_us);
  sim::Task<> DeliverAsync(LogBlock block,
                           std::shared_ptr<const std::string> stored);
  sim::Task<> NotifyAsync(Lsn hardened);
  // Samples harden_wait for every written block the durable end has now
  // passed; runs in the LZ's durable-advance callback, so it schedules
  // nothing.
  void RecordHardenWaits(Lsn durable);

  sim::Simulator& sim_;
  LandingZone* lz_;
  XLogProcess* xlog_;
  sim::CpuResource* cpu_;
  XLogClientOptions opts_;
  Random rng_;
  // Async block delivery and durability notification to XLOG.
  const sim::LatencyModel delivery_latency_ =
      sim::DeviceProfile::IntraDcNetwork().write;

  // Current (un-cut) block buffer.
  std::string buffer_;
  Lsn buffer_start_;
  std::set<PartitionId> buffer_partitions_;
  SimTime buffer_first_append_us_ = 0;

  Lsn end_lsn_;
  sim::Watermark hardened_;
  sim::Event work_available_;
  std::unique_ptr<sim::Semaphore> inflight_;
  // Written blocks not yet hardened: (end LSN, write completion time).
  // At most max_inflight_writes entries.
  std::vector<std::pair<Lsn, SimTime>> awaiting_harden_;
  bool running_ = false;

  uint64_t blocks_written_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t stored_bytes_written_ = 0;
  uint64_t compressed_blocks_ = 0;
  uint64_t deliveries_lost_ = 0;
  uint64_t lz_stalls_ = 0;
  uint64_t wire_bytes_sent_ = 0;

  Histogram hist_enqueue_us_;
  Histogram hist_quorum_us_;
  Histogram hist_harden_wait_us_;
  Histogram hist_visible_us_;
  Histogram hist_flush_bytes_;
};

}  // namespace xlog
}  // namespace socrates
