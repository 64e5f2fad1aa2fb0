#include "xlog/xlog_process.h"

#include <algorithm>

namespace socrates {
namespace xlog {

XLogProcess::XLogProcess(sim::Simulator& sim, LandingZone* lz,
                         xstore::XStore* lt, const XLogOptions& options)
    : sim_(sim),
      lz_(lz),
      lt_(lt),
      opts_(options),
      available_(sim),
      ssd_cache_(std::make_unique<storage::SimBlockDevice>(
          sim, sim::DeviceProfile::LocalSsd(), /*seed=*/0x10c)),
      destage_q_(sim),
      destage_slots_(std::make_unique<sim::Semaphore>(
          sim, kDestageLanes)),
      destage_idle_(sim) {
  available_.Advance(engine::kLogStreamStart);
  destage_idle_.Set();
}

void XLogProcess::Start() {
  running_ = true;
  sim::Spawn(sim_, DestageLoop());
}

void XLogProcess::Stop() {
  running_ = false;
  destage_q_.Close();
}

void XLogProcess::DeliverBlock(LogBlock block) {
  if (block.end_lsn() <= available_.value()) return;  // stale duplicate
  pending_.emplace(block.start_lsn, std::move(block));
  TryAdmit();
}

Status XLogProcess::DeliverFrame(Slice frame) {
  LogBlock block;
  Status s = DecodeBlockFrame(frame, &block);
  if (!s.ok()) {
    // Damaged on the lossy channel; drop it and let the repair path
    // reconstruct the range from the LZ.
    frames_corrupt_++;
    return s;
  }
  DeliverBlock(std::move(block));
  return Status::OK();
}

void XLogProcess::NotifyHardened(Lsn lsn) {
  if (lsn > hardened_) hardened_ = lsn;
  TryAdmit();
}

void XLogProcess::TryAdmit() {
  // Admit pending blocks in LSN order, but only hardened ones: XLOG never
  // disseminates speculative log (§4.3).
  while (true) {
    Lsn end = available_.value();
    // Discard stale pending blocks (already admitted via repair).
    while (!pending_.empty() && pending_.begin()->second.end_lsn() <= end) {
      pending_.erase(pending_.begin());
    }
    if (pending_.empty()) break;
    auto it = pending_.begin();
    if (it->first == end && it->second.end_lsn() <= hardened_) {
      LogBlock block = std::move(it->second);
      pending_.erase(it);
      Admit(std::move(block));
      continue;
    }
    // Gap: the next pending block starts beyond our end (the lossy
    // channel dropped something), or nothing is admissible yet.
    if (it->first > end && hardened_ > end && !repairing_) {
      Lsn repair_to = std::min(it->first, hardened_);
      repairing_ = true;
      sim::Spawn(sim_, RepairGap(end, repair_to));
    }
    break;
  }
  // Also repair a trailing gap: everything delivered was admitted but the
  // hardened mark is ahead of us and the block never arrived.
  if (pending_.empty() && hardened_ > available_.value() && !repairing_) {
    // Give the in-flight delivery a moment; if it is truly lost, repair.
    repairing_ = true;
    sim::Spawn(sim_, [](XLogProcess* self) -> sim::Task<> {
      Lsn end = self->available_.value();
      co_await sim::Delay(self->sim_, kRepairDelayUs);
      if (self->available_.value() == end &&
          self->hardened_ > end) {
        co_await self->RepairGap(end, self->hardened_);
      } else {
        self->repairing_ = false;
        self->TryAdmit();
      }
    }(this));
  }
}

sim::Task<> XLogProcess::RepairGap(Lsn from, Lsn to) {
  Result<std::string> bytes = co_await lz_->Read(from, to);
  repairs_++;
  if (!bytes.ok()) {
    // A failed read (LZ outage window, or a hardened mark that ran ahead
    // of the LZ's durable end) can complete without ever suspending; a
    // synchronous retry would recurse TryAdmit -> RepairGap on the C++
    // stack. Back off on the simulator clock instead.
    co_await sim::Delay(sim_, kRepairDelayUs);
    repairing_ = false;
    TryAdmit();
    co_return;
  }
  repairing_ = false;
  if (available_.value() == from) {
    std::string payload = std::move(bytes).value();
    std::set<PartitionId> parts = AnnotatePayload(Slice(payload));
    Admit(LogBlock::Make(from, std::move(payload), std::move(parts)));
  }
  TryAdmit();
}

void XLogProcess::Admit(LogBlock block) {
  Lsn end = block.end_lsn();
  seq_map_bytes_ += block.payload_size;
  // The queue's copy shares the payload — a refcount bump, not a memcpy.
  destage_q_.Push(block);
  const Lsn start = block.start_lsn;
  seq_map_.emplace(start, std::move(block));
  available_.Advance(end);
  EvictSequenceMap();
}

void XLogProcess::EvictSequenceMap() {
  // Keep the newest blocks; older consumers fall back to the SSD cache,
  // LZ, or LT.
  while (seq_map_bytes_ > opts_.sequence_map_bytes &&
         seq_map_.size() > 1) {
    auto it = seq_map_.begin();
    seq_map_bytes_ -= it->second.payload_size;
    seq_map_.erase(it);
  }
}

void XLogProcess::MaybeSetDestageIdle() {
  if (destage_q_.empty() && inflight_destages_ == 0) destage_idle_.Set();
}

sim::Task<> XLogProcess::DestageLoop() {
  while (true) {
    auto item = co_await destage_q_.Pop();
    if (!item.has_value()) {
      MaybeSetDestageIdle();
      co_return;
    }
    destage_idle_.Reset();
    // Batch contiguous queued blocks into one archive write: the LT
    // write pays a full XStore round trip, so per-block writes would cap
    // destaging far below the log production rate. The batch is a gather
    // list of the blocks' own payloads, so the SSD cache and the LT map
    // the bytes the sequence map already holds.
    const Lsn start = item->start_lsn;
    storage::SegmentList batch(item->payload_ptr());
    while (batch.size() < kDestageBatchBytes && !destage_q_.empty()) {
      auto next = co_await destage_q_.Pop();
      if (!next.has_value()) break;
      // Admission order makes the queue contiguous by construction.
      batch.Append(next->payload_ptr());
    }
    // Hand the batch to a destage lane; bounded lanes keep several SSD +
    // LT writes in flight while the destaged frontier (and the LZ
    // truncation it drives) advances only over the contiguous prefix of
    // completed batches.
    co_await destage_slots_->Acquire();
    inflight_destages_++;
    sim::Spawn(sim_, DestageBatchTask(start, std::move(batch)));
  }
}

sim::Task<> XLogProcess::DestageBatchTask(Lsn start,
                                          storage::SegmentList batch) {
  // The SSD cache and the LT archive both map the blocks' own payloads.
  // Local SSD block cache: circular over the stream, like the LZ.
  const uint64_t cap = kSsdCacheBytes;
  const uint64_t off = start % cap;
  const uint64_t first = std::min<uint64_t>(batch.size(), cap - off);
  co_await ssd_cache_->Write(off, batch.Sub(0, first));
  if (first < batch.size()) {
    co_await ssd_cache_->Write(0, batch.Sub(first, batch.size() - first));
  }
  const Lsn batch_end = start + batch.size();
  if (batch_end > ssd_cache_start_ + cap) {
    ssd_cache_start_ = batch_end - cap;
  }
  // Long-term archive in XStore (cheap, durable, slow). Retry in place on
  // outage: the LZ keeps the batch until the archive write lands, so an
  // XStore outage never loses log — it only pauses truncation.
  while (true) {
    Status lt_status = co_await lt_->Write(
        opts_.lt_blob, start - engine::kLogStreamStart, batch);
    if (lt_status.ok()) break;
    co_await sim::Delay(sim_, kDestageRetryUs);
  }
  destage_done_[start] = batch_end;
  while (true) {
    auto it = destage_done_.find(destaged_);
    if (it == destage_done_.end()) break;
    destaged_ = it->second;
    destage_done_.erase(it);
  }
  // The LZ only needs to retain what has not been archived yet.
  lz_->Truncate(destaged_);
  inflight_destages_--;
  destage_slots_->Release();
  MaybeSetDestageIdle();
}

std::set<PartitionId> XLogProcess::AnnotatePayload(Slice payload) const {
  std::set<PartitionId> parts;
  (void)engine::ForEachRecord(
      payload, 0, [&](Lsn, Slice rec_payload) {
        engine::LogRecord rec;
        if (engine::LogRecord::Decode(rec_payload, &rec).ok() &&
            rec.HasPage()) {
          parts.insert(opts_.partition_map.PartitionOf(rec.page_id));
        }
        return true;
      });
  return parts;
}

sim::Task<Result<std::vector<LogBlock>>> XLogProcess::Pull(
    Lsn from, std::optional<PartitionId> filter, uint64_t max_bytes) {
  std::vector<LogBlock> out;
  Lsn end = available_.value();
  if (from >= end) co_return std::move(out);

  // A filtered pull serves the blocks touching its partition whole. The
  // stretches between them coalesce into metadata-only gap runs: one
  // filtered block per stretch, however many blocks it spans.
  auto skip = [&out](Lsn start, uint64_t size) {
    if (out.empty() || !out.back().filtered) {
      LogBlock run;
      run.start_lsn = start;
      run.filtered = true;
      out.push_back(std::move(run));
    }
    out.back().payload_size += size;
  };
  uint64_t bytes = 0;
  Lsn pos = from;
  while (pos < end && bytes < max_bytes) {
    auto it = seq_map_.find(pos);
    if (it != seq_map_.end()) {
      pulls_seq_++;
      const LogBlock& b = it->second;
      if (!filter.has_value() || b.TouchesPartition(*filter)) {
        out.push_back(b);
        bytes += b.payload_size;
      } else {
        skip(pos, b.payload_size);
      }
      pos = b.end_lsn();
      continue;
    }
    // Not in the sequence map: reconstruct a block from storage. Read up
    // to the next block boundary we do know about (or a bounded chunk).
    Lsn upper = end;
    auto next = seq_map_.lower_bound(pos);
    if (next != seq_map_.end()) upper = std::min(upper, next->first);
    upper = std::min<Lsn>(upper, pos + kMaxLogBlockSize);
    Result<std::string> range =
        co_await ReadRange(pos, upper, &pulls_ssd_, &pulls_lz_, &pulls_lt_);
    if (!range.ok()) {
      if (range.status().IsBusy() && !out.empty()) {
        co_return std::move(out);  // serve what we have; caller retries
      }
      co_return Result<std::vector<LogBlock>>(range.status());
    }
    std::string payload = std::move(range).value();
    // The byte-range cut may have split the trailing record frame; serve
    // only whole frames so consumers can parse the block standalone.
    // `pos` always sits on a frame boundary (consumers advance by whole
    // frames), so the prefix is non-empty whenever the range holds at
    // least one complete record.
    uint64_t aligned =
        engine::FrameAlignedPrefix(Slice(payload), payload.size());
    if (aligned == 0) break;  // partial single record: retry when longer
    payload.resize(aligned);
    std::set<PartitionId> parts = AnnotatePayload(Slice(payload));
    LogBlock block =
        LogBlock::Make(pos, std::move(payload), std::move(parts));
    if (!filter.has_value() || block.TouchesPartition(*filter)) {
      bytes += block.payload_size;
      out.push_back(std::move(block));
    } else {
      skip(pos, aligned);
    }
    pos += aligned;
  }
  co_return std::move(out);
}

sim::Task<Result<std::string>> XLogProcess::ReadRange(
    Lsn from, Lsn to, uint64_t* ssd_ctr, uint64_t* lz_ctr,
    uint64_t* lt_ctr) {
  // The SSD cache and LT only hold destaged log; the [destaged, durable)
  // tail lives in the LZ. Clamp a straddling read to the destage
  // frontier — the caller's loop continues from there and the next read
  // is served by the LZ. Never fall through to the LT past destaged_:
  // that range would read as zeros.
  if (from < destaged_ && to > destaged_) to = destaged_;
  if (from >= to) {
    co_return Result<std::string>(
        Status::Busy("log range not yet destaged"));
  }
  // Tier 1: local SSD block cache.
  if (from >= ssd_cache_start_ && to <= destaged_) {
    (*ssd_ctr)++;
    uint64_t cap = kSsdCacheBytes;
    uint64_t off = from % cap;
    uint64_t len = to - from;
    uint64_t first = std::min<uint64_t>(len, cap - off);
    std::string out;
    out.reserve(len);
    Status s = co_await ssd_cache_->Read(off, first, &out);
    if (s.ok() && first < len) {
      s = co_await ssd_cache_->Read(0, len - first, &out);
    }
    if (s.ok()) co_return std::move(out);
  }
  // Tier 2: the landing zone.
  if (from >= lz_->start_lsn() && to <= lz_->durable_end()) {
    (*lz_ctr)++;
    Result<std::string> r = co_await lz_->Read(from, to);
    if (r.ok()) co_return r;
  }
  // Tier 3: the long-term archive — holds all destaged log.
  if (to > destaged_) {
    // Unreachable given the clamp above, but never read undestaged LT.
    co_return Result<std::string>(
        Status::Busy("log range not yet destaged"));
  }
  (*lt_ctr)++;
  std::string out;
  Status s = co_await lt_->Read(opts_.lt_blob,
                                from - engine::kLogStreamStart, to - from,
                                &out);
  if (!s.ok()) co_return Result<std::string>(s);
  co_return std::move(out);
}

}  // namespace xlog
}  // namespace socrates
