// LogConsumer: the one XLOG pull-and-apply loop (paper §4.3, §4.5, §4.6),
// shared by Secondaries (whole stream), Page Servers (their partition's
// records; other blocks arrive metadata-only, "filtered") and Primary
// recovery. Each node supplies only what differs (Spec). See DESIGN.md §6.

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/redo.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "xlog/log_block.h"
#include "xlog/xlog_process.h"

namespace socrates {
namespace xlog {

class LogConsumer {
 public:
  /// What one consuming node contributes.
  struct Spec {
    /// Tags fatal-error messages.
    std::string name;
    /// Pull only this partition's records (Page Servers); nullopt takes
    /// the complete stream.
    std::optional<PartitionId> partition = std::nullopt;
    /// Stop applying at this LSN (point-in-time restore).
    Lsn apply_until = kMaxLsn;
    /// Log-shipping delay paid by every pull (geo-replicas, §6), drawn
    /// from the consumer's own generator.
    sim::LatencyModel ship_latency = sim::LatencyModel::Zero();
    /// True while the node is cut off from XLOG: pulls fail like a
    /// transient XLOG error.
    std::function<bool()> partitioned = nullptr;
    /// Called once when Run() stops on a fatal error.
    std::function<void()> on_fatal = nullptr;
  };

  LogConsumer(sim::Simulator& sim, XLogProcess* xlog, Spec spec);
  // Detached prefetch pulls hold `this`.
  LogConsumer(const LogConsumer&) = delete;
  LogConsumer& operator=(const LogConsumer&) = delete;

  /// Apply the stream into `applier` from its watermark until `live()`
  /// turns false, `apply_until` is reached or an error is fatal (a gap,
  /// or an apply error other than Unavailable / Busy / TimedOut; reported
  /// through Spec::on_fatal). Other errors back off (pull 10 ms, apply
  /// 20 ms) and re-pull. Liveness is checked before every pull and every
  /// block: a dead node never applies.
  sim::Task<> Run(engine::RedoApplier* applier, std::function<bool()> live);

  /// Serial replay (Primary recovery): pull and apply, with no prefetch,
  /// until the watermark reaches `until`. Any pull or apply error is
  /// returned.
  sim::Task<Status> Replay(engine::RedoApplier* applier, Lsn until);

  /// Successful pulls by Run().
  uint64_t pulls() const { return pulls_; }
  /// Pulls whose prefetch had already resolved when the apply reached it.
  uint64_t pipelined_pull_hits() const { return pipelined_pull_hits_; }
  /// Virtual micros Run() spent waiting for pulled log (vs the applier's
  /// apply_busy_us, the time spent applying).
  SimTime pull_wait_us() const { return pull_wait_us_; }

 private:
  struct PendingPull;

  // Resolve one pull as soon as log past `pull->from` is available.
  // Awaited directly for a fresh pull; spawned detached as the prefetch.
  sim::Task<> PullTask(std::shared_ptr<PendingPull> pull,
                       std::function<bool()> live);
  // Apply one pulled batch, block by block. Returns OK when the batch is
  // done, `apply_until` is reached or `live()` turned false; otherwise
  // the apply error.
  sim::Task<Status> ApplyBatch(engine::RedoApplier* applier,
                               const std::vector<LogBlock>& blocks,
                               const std::function<bool()>& live);

  sim::Simulator& sim_;
  XLogProcess* xlog_;
  Spec spec_;
  Random ship_rng_{0x9e0};
  uint64_t pulls_ = 0;
  uint64_t pipelined_pull_hits_ = 0;
  SimTime pull_wait_us_ = 0;
};

}  // namespace xlog
}  // namespace socrates
