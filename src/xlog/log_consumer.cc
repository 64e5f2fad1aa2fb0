#include "xlog/log_consumer.h"

#include <cstdio>
#include <utility>

#include "sim/sync.h"

namespace socrates {
namespace xlog {

// One double-buffered pull in flight: PullTask fills `result` and fires
// `done`; Run consumes it when the watermark reaches `from`.
struct LogConsumer::PendingPull {
  PendingPull(sim::Simulator& sim, Lsn from) : from(from), done(sim) {}
  Lsn from;
  std::optional<Result<std::vector<LogBlock>>> result;
  sim::Event done;
};

LogConsumer::LogConsumer(sim::Simulator& sim, XLogProcess* xlog, Spec spec)
    : sim_(sim), xlog_(xlog), spec_(std::move(spec)) {}

sim::Task<> LogConsumer::PullTask(std::shared_ptr<PendingPull> pull,
                                  std::function<bool()> live) {
  co_await xlog_->available().WaitFor(pull->from + 1);
  SimTime ship = spec_.ship_latency.Sample(ship_rng_);
  if (ship > 0) co_await sim::Delay(sim_, ship);
  if (!live() || (spec_.partitioned && spec_.partitioned())) {
    pull->result = Result<std::vector<LogBlock>>(
        Status::Unavailable("consumer stopped or partitioned"));
  } else {
    pull->result = co_await xlog_->Pull(pull->from, spec_.partition,
                                        XLogProcess::kPullBytes);
  }
  pull->done.Set();
}

sim::Task<> LogConsumer::Run(engine::RedoApplier* applier,
                             std::function<bool()> live) {
  std::shared_ptr<PendingPull> next;
  while (live()) {
    const Lsn from = applier->applied_lsn().value();
    if (from >= spec_.apply_until) break;  // PITR target reached
    std::shared_ptr<PendingPull> pull = std::move(next);
    const SimTime wait_start = sim_.now();
    if (pull != nullptr && pull->from == from) {
      if (pull->done.is_set()) pipelined_pull_hits_++;
      co_await pull->done.Wait();
    } else {
      // No usable prefetch (startup, or a retry moved the position).
      pull = std::make_shared<PendingPull>(sim_, from);
      co_await PullTask(pull, live);
    }
    pull_wait_us_ += sim_.now() - wait_start;
    if (!live()) break;
    Result<std::vector<LogBlock>>& blocks = *pull->result;
    if (!blocks.ok()) {
      co_await sim::Delay(sim_, 10000);
      continue;
    }
    pulls_++;
    if (!blocks->empty() && blocks->back().end_lsn() < spec_.apply_until) {
      // Overlap the next pull with applying this batch.
      next = std::make_shared<PendingPull>(sim_, blocks->back().end_lsn());
      sim::Spawn(sim_, PullTask(next, live));
    }
    Status s = co_await ApplyBatch(applier, *blocks, live);
    if (s.IsUnavailable() || s.IsBusy() || s.IsTimedOut()) {
      // The storage tier failed under redo (an XStore outage while a Page
      // Server fetches a page): keep serving, re-pull from the watermark.
      co_await sim::Delay(sim_, 20000);
    } else if (!s.ok()) {
      fprintf(stderr, "[%s] FATAL at lsn %llu: %s\n", spec_.name.c_str(),
              (unsigned long long)applier->applied_lsn().value(),
              s.ToString().c_str());
      if (spec_.on_fatal) spec_.on_fatal();
      co_return;
    }
  }
}

sim::Task<Status> LogConsumer::Replay(engine::RedoApplier* applier,
                                      Lsn until) {
  co_await xlog_->available().WaitFor(until);
  while (applier->applied_lsn().value() < until) {
    Result<std::vector<LogBlock>> blocks =
        co_await xlog_->Pull(applier->applied_lsn().value(), spec_.partition,
                             XLogProcess::kPullBytes);
    if (!blocks.ok()) co_return blocks.status();
    if (blocks->empty()) break;
    SOCRATES_CO_RETURN_IF_ERROR(
        co_await ApplyBatch(applier, *blocks, [] { return true; }));
  }
  co_return Status::OK();
}

sim::Task<Status> LogConsumer::ApplyBatch(engine::RedoApplier* applier,
                                          const std::vector<LogBlock>& blocks,
                                          const std::function<bool()>& live) {
  for (const LogBlock& block : blocks) {
    if (!live()) break;
    if (block.start_lsn > applier->applied_lsn().value()) {
      co_return Status::Corruption("gap in pulled log stream before " +
                                   std::to_string(block.start_lsn));
    }
    if (block.filtered) {
      // No records for this consumer: just advance the watermark.
      applier->applied_lsn().Advance(block.end_lsn());
      continue;
    }
    Result<Lsn> end = co_await applier->ApplyStream(
        Slice(block.payload()), block.start_lsn, spec_.apply_until);
    if (!live()) break;  // crashed during the apply await
    if (!end.ok()) co_return end.status();
    applier->applied_lsn().Advance(*end);
    if (block.end_lsn() >= spec_.apply_until) {
      // PITR target reached (it always lies on a record boundary, but be
      // robust to mid-gap targets): report the watermark as caught up so
      // GetPage@LSN waits at the target resolve.
      applier->applied_lsn().Advance(spec_.apply_until);
      break;
    }
  }
  co_return Status::OK();
}

}  // namespace xlog
}  // namespace socrates
