#include "engine/redo.h"

#include <algorithm>

namespace socrates {
namespace engine {

// CPU cost model for log apply: a segment costs kApplyCpuFixedUs plus one
// microsecond per kApplyCpuBytesPerUs of payload, whatever the lane count.
// One lane (or a segment that decodes to at most one record) pays it in
// one piece; parallel lanes split it in proportion to their bytes, in
// shares that sum to the whole.
constexpr SimTime kApplyCpuFixedUs = 10;
constexpr uint64_t kApplyCpuBytesPerUs = 2000;

// Shared state of one ApplyItemsParallel batch: a span over the caller's
// decoded items, the per-lane work lists, and the barrier positions.
// Heap-allocated and shared_ptr-held because lanes and coordinator are
// detached coroutines joined via sim::Gather; the item storage itself
// stays in ApplyStream's arena, which outlives the Gather.
struct ParallelLane {
  explicit ParallelLane(sim::Simulator& sim) : progress(sim) {}
  std::vector<uint32_t> items;  // indices into state items, stream order
  uint64_t bytes = 0;           // framed bytes of this lane's records
  SimTime cost = 0;             // this lane's share of the apply cost
  // Count of this lane's items processed; barriers wait on prefixes.
  sim::Watermark progress;
};

struct ParallelApplyState {
  ParallelApplyState(sim::Simulator& sim, int lanes) {
    lane.reserve(lanes);
    for (int i = 0; i < lanes; i++) {
      lane.push_back(std::make_unique<ParallelLane>(sim));
    }
  }

  const RedoApplier::StreamItem* items = nullptr;
  size_t count = 0;
  std::vector<std::unique_ptr<ParallelLane>> lane;

  struct Barrier {
    uint32_t item;  // index of the system record in `items`
    // Per-lane count of lane items preceding this barrier in the stream.
    std::vector<uint64_t> lane_prefix;
  };
  std::vector<Barrier> barriers;

  // First (lowest stream index) failing item; lanes skip later items,
  // the coordinator stops advancing the watermark before it.
  uint32_t first_error_item = UINT32_MAX;
  Status first_error;
};

void RedoApplier::ConfigureLanes(int lanes, sim::CpuResource* cpu) {
  lanes_ = std::max(1, lanes);
  cpu_ = cpu;
  lane_records_.assign(static_cast<size_t>(lanes_), 0);
}

double RedoApplier::LaneOccupancy() const {
  if (lane_records_.empty()) return 1.0;
  uint64_t max = 0;
  uint64_t sum = 0;
  for (uint64_t c : lane_records_) {
    sum += c;
    max = std::max(max, c);
  }
  if (max == 0) return 1.0;
  return (static_cast<double>(sum) / lane_records_.size()) / max;
}

void RedoApplier::ApplySystemRecord(const LogRecord& rec) {
  if (rec.type == LogRecordType::kTxnCommit) {
    if (rec.commit_ts > applied_commit_ts_) {
      applied_commit_ts_ = rec.commit_ts;
    }
  } else if (rec.type == LogRecordType::kCheckpoint) {
    checkpoint_next_page_id_ = rec.next_page_id;
    if (rec.commit_ts > applied_commit_ts_) {
      applied_commit_ts_ = rec.commit_ts;
    }
  }
}

sim::Task<Status> RedoApplier::ApplyPageRecord(Lsn lsn,
                                               const LogRecord& rec) {
  if (rec.page_id != kInvalidPageId && rec.page_id > max_page_seen_) {
    max_page_seen_ = rec.page_id;
  }
  // Outside the partition -> skip.
  if (filter_ && !filter_(rec.page_id)) co_return Status::OK();

  // A fetch for this page is in flight: queue the record; it is drained
  // into the fetched image before installation (§4.5). Correct under
  // lanes too: a page's records all pass through its one lane, so the
  // queue stays in per-page stream order.
  auto pending = pending_.find(rec.page_id);
  if (pending != pending_.end()) {
    pending->second.push_back(PendingRecord{lsn, rec});
    co_return Status::OK();
  }

  Status result = Status::OK();
  if (policy_ == MissPolicy::kIgnoreUncached) {
    Result<PageRef> ref = co_await pool_->GetIfCached(rec.page_id);
    if (!ref.ok()) {
      if (ref.status().IsNotFound()) co_return Status::OK();
      co_return ref.status();
    }
    result = ApplyToPage(rec, lsn, ref->page());
    if (result.ok()) ref.value().MarkDirty();
  } else {
    // kMaterialize: creation records may target brand-new pages.
    Result<PageRef> ref = co_await pool_->GetPage(rec.page_id);
    if (!ref.ok() && ref.status().IsNotFound()) {
      ref = pool_->NewPage(rec.page_id);
    }
    if (!ref.ok()) co_return ref.status();
    result = ApplyToPage(rec, lsn, ref->page());
    if (result.ok()) ref.value().MarkDirty();
  }
  if (result.ok()) records_applied_++;
  co_return result;
}

sim::Task<Status> RedoApplier::Apply(Lsn lsn, uint64_t framed_size,
                                     const LogRecord& rec) {
  if (!rec.HasPage()) {
    ApplySystemRecord(rec);
    records_applied_++;
    applied_lsn_.Advance(lsn + framed_size);
    co_return Status::OK();
  }
  Status result = co_await ApplyPageRecord(lsn, rec);
  if (result.ok()) applied_lsn_.Advance(lsn + framed_size);
  co_return result;
}

sim::Task<> RedoApplier::ChargeApply(SimTime cost) {
  if (cpu_ == nullptr || cost == 0) co_return;
  co_await cpu_->Consume(cost);
  apply_busy_us_ += cost;
}

sim::Task<Result<Lsn>> RedoApplier::ApplyStream(Slice stream, Lsn start_lsn,
                                                Lsn stop_at) {
  const SimTime cost =
      kApplyCpuFixedUs + stream.size() / kApplyCpuBytesPerUs;
  // One lane pays the whole segment up front; with more lanes the charge
  // waits until the decoded segment shows whether lanes will split it.
  if (lanes_ == 1) co_await ChargeApply(cost);
  // Collect the frames first (the visitor cannot co_await), then apply.
  // Frames decode into the recycled scratch arena: each StreamItem (and
  // the value buffer inside its record) is reused across calls, so the
  // steady state walks the stream without allocating. A reentrant call
  // (scratch in use by an in-flight apply) falls back to a local buffer.
  std::vector<StreamItem> local;
  const bool use_scratch = !scratch_busy_;
  if (use_scratch) scratch_busy_ = true;
  std::vector<StreamItem>& buf = use_scratch ? scratch_items_ : local;
  // The watermark is read after the serial charge: concurrent ApplyStream
  // calls (HADR secondaries receive blocks in parallel) may advance it.
  const Lsn resume_from = applied_lsn_.value();
  size_t used = 0;
  Status parse = Status::OK();
  Lsn walked_end = start_lsn;
  Status iter = ForEachRecord(
      stream, start_lsn, [&](Lsn lsn, Slice payload) {
        if (lsn >= stop_at) return false;  // PITR boundary
        walked_end = lsn + FramedSize(payload.size());
        if (lsn < resume_from) return true;
        if (used == buf.size()) buf.emplace_back();
        StreamItem& item = buf[used];
        item.lsn = lsn;
        item.framed = FramedSize(payload.size());
        parse = LogRecord::Decode(payload, &item.rec);
        if (!parse.ok()) return false;
        used++;
        return true;
      });
  Result<Lsn> result = walked_end;
  const bool parallel = iter.ok() && parse.ok() && lanes_ > 1 && used > 1;
  if (lanes_ > 1 && !parallel) co_await ChargeApply(cost);
  if (!iter.ok()) {
    result = Result<Lsn>(iter);
  } else if (!parse.ok()) {
    result = Result<Lsn>(parse);
  } else if (parallel) {
    result = co_await ApplyItemsParallel(buf.data(), used, walked_end, cost);
  } else {
    for (size_t i = 0; i < used; i++) {
      Status s = co_await Apply(buf[i].lsn, buf[i].framed, buf[i].rec);
      if (!s.ok()) {
        result = Result<Lsn>(s);
        break;
      }
    }
  }
  if (use_scratch) scratch_busy_ = false;
  co_return result;
}

sim::Task<Result<Lsn>> RedoApplier::ApplyItemsParallel(
    StreamItem* items, size_t count, Lsn walked_end, SimTime cost) {
  auto st = std::make_shared<ParallelApplyState>(sim_, lanes_);
  st->items = items;
  st->count = count;
  for (uint32_t i = 0; i < st->count; i++) {
    const LogRecord& rec = st->items[i].rec;
    if (!rec.HasPage()) {
      ParallelApplyState::Barrier b;
      b.item = i;
      b.lane_prefix.reserve(lanes_);
      for (auto& ln : st->lane) b.lane_prefix.push_back(ln->items.size());
      st->barriers.push_back(std::move(b));
    } else {
      ParallelLane& ln = *st->lane[rec.page_id % lanes_];
      ln.items.push_back(i);
      ln.bytes += st->items[i].framed;
    }
  }
  // Split `cost` by lane bytes; the cumulative rounding makes the shares
  // sum to exactly `cost`. A batch of barriers alone pays it here.
  uint64_t total_bytes = 0;
  for (const auto& ln : st->lane) total_bytes += ln->bytes;
  if (total_bytes == 0) {
    co_await ChargeApply(cost);
  } else {
    uint64_t cum = 0;
    for (auto& ln : st->lane) {
      const SimTime before = cost * cum / total_bytes;
      cum += ln->bytes;
      ln->cost = cost * cum / total_bytes - before;
    }
  }
  parallel_batches_++;
  std::vector<sim::Task<>> tasks;
  tasks.reserve(lanes_ + 1);
  for (int l = 0; l < lanes_; l++) tasks.push_back(LaneTask(st, l));
  tasks.push_back(BarrierTask(st));
  co_await sim::Gather(sim_, std::move(tasks));
  if (st->first_error_item != UINT32_MAX) {
    co_return Result<Lsn>(st->first_error);
  }
  // Every lane drained and every barrier applied: safe to report the
  // whole walked segment (trailing page records included).
  co_return walked_end;
}

sim::Task<> RedoApplier::LaneTask(std::shared_ptr<ParallelApplyState> st,
                                  int lane) {
  ParallelLane& ln = *st->lane[lane];
  // This lane's share of the batch apply cost, paid against a real core.
  // Lanes queue when the node has fewer cores than lanes.
  co_await ChargeApply(ln.cost);
  uint64_t done = 0;
  for (uint32_t idx : ln.items) {
    // After an earlier-in-stream error everything behind it is skipped,
    // but progress still advances so barrier waits never hang.
    if (idx < st->first_error_item) {
      const StreamItem& item = st->items[idx];
      Status s = co_await ApplyPageRecord(item.lsn, item.rec);
      if (!s.ok() && idx < st->first_error_item) {
        st->first_error_item = idx;
        st->first_error = s;
      }
      lane_records_[lane]++;
    }
    ln.progress.Advance(++done);
  }
}

sim::Task<> RedoApplier::BarrierTask(std::shared_ptr<ParallelApplyState> st) {
  // Applies system records and advances the applied watermark in stream
  // order: each barrier waits until every lane has drained the stream
  // prefix before it. Page records between barriers become visible to
  // GetPage@LSN at the next barrier (or at the batch end via the
  // caller's final Advance) — never before every lane reached them.
  for (const ParallelApplyState::Barrier& b : st->barriers) {
    for (int l = 0; l < lanes_; l++) {
      ParallelLane& ln = *st->lane[l];
      if (ln.progress.value() < b.lane_prefix[l]) {
        barrier_stalls_++;
        co_await ln.progress.WaitFor(b.lane_prefix[l]);
      }
    }
    // All errors at stream positions before this barrier are recorded by
    // now (the failing lane advanced past them). Stop the watermark at
    // the failure point; idempotent redo re-covers the tail on retry.
    if (st->first_error_item < b.item) co_return;
    const StreamItem& item = st->items[b.item];
    ApplySystemRecord(item.rec);
    records_applied_++;
    applied_lsn_.Advance(item.lsn + item.framed);
  }
}

Status RedoApplier::DrainPendingInto(PageId id, storage::Page* image) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return Status::OK();
  Status s = Status::OK();
  for (const PendingRecord& p : it->second) {
    s = ApplyToPage(p.rec, p.lsn, image);
    if (!s.ok()) break;
  }
  pending_.erase(it);
  return s;
}

}  // namespace engine
}  // namespace socrates
