#include "xlog/xlog_client.h"

namespace socrates {
namespace xlog {

XLogClient::XLogClient(sim::Simulator& sim, LandingZone* lz,
                       XLogProcess* xlog, sim::CpuResource* cpu,
                       const XLogClientOptions& options, uint64_t seed)
    : sim_(sim),
      lz_(lz),
      xlog_(xlog),
      cpu_(cpu),
      opts_(options),
      rng_(seed),
      buffer_start_(lz->durable_end()),
      end_lsn_(lz->durable_end()),
      hardened_(sim),
      work_available_(sim),
      inflight_(std::make_unique<sim::Semaphore>(
          sim, options.max_inflight_writes)) {
  hardened_.Advance(lz->durable_end());
  // Hardening follows the LZ's in-order durable frontier; each advance
  // wakes committed transactions (group commit) and tells XLOG it may
  // move pending blocks into the LogBroker.
  lz_->set_on_durable_advance([this](Lsn durable) {
    hardened_.Advance(durable);
    RecordHardenWaits(durable);
    if (xlog_ != nullptr) sim::Spawn(sim_, NotifyAsync(durable));
  });
}

void XLogClient::Start() {
  running_ = true;
  sim::Spawn(sim_, FlusherLoop());
}

void XLogClient::Stop() {
  running_ = false;
  work_available_.Set();  // wake the flusher so it can exit
}

Lsn XLogClient::Append(const engine::LogRecord& rec) {
  std::string payload = rec.Encode();
  Lsn lsn = end_lsn_;
  if (buffer_.empty()) buffer_first_append_us_ = sim_.now();
  engine::FrameRecord(&buffer_, Slice(payload));
  end_lsn_ = lsn + engine::FramedSize(payload.size());
  if (rec.HasPage()) {
    buffer_partitions_.insert(
        opts_.partition_map.PartitionOf(rec.page_id));
  }
  work_available_.Set();
  return lsn;
}

sim::Task<Status> XLogClient::WaitHardened(Lsn lsn) {
  co_await hardened_.WaitFor(lsn);
  co_return Status::OK();
}

sim::Task<Status> XLogClient::Flush() {
  Lsn target = end_lsn_;
  co_await hardened_.WaitFor(target);
  co_return Status::OK();
}

sim::Task<> XLogClient::FlusherLoop() {
  while (true) {
    if (buffer_.empty()) {
      work_available_.Reset();
      if (!running_) break;
      co_await work_available_.Wait();
      if (!running_ && buffer_.empty()) break;
      continue;
    }
    // Take a write slot before cutting (group commit): while all
    // max_inflight_writes are busy the buffer keeps growing, and the
    // block cut when a slot frees carries everything that arrived
    // meanwhile. With a slot free this does not suspend.
    co_await inflight_->Acquire();
    // Cut a block: whole record frames only, up to the block size cap
    // (consumers parse block payloads independently, so a frame must
    // never straddle a block boundary).
    uint64_t take =
        engine::FrameAlignedPrefix(Slice(buffer_), opts_.max_block_bytes);
    if (take == 0) take = buffer_.size();  // defensive: partial frame
    LogBlock block = LogBlock::Make(
        buffer_start_, buffer_.substr(0, take), buffer_partitions_);
    buffer_.erase(0, take);
    buffer_start_ += take;
    if (buffer_.empty()) buffer_partitions_.clear();

    SimTime now = sim_.now();
    hist_enqueue_us_.Add(static_cast<double>(now - buffer_first_append_us_));
    if (!buffer_.empty()) buffer_first_append_us_ = now;
    hist_flush_bytes_.Add(static_cast<double>(take));

    // Compress once when enabled: the same stored bytes go to the LZ and
    // onto the XLOG wire. Null means the block stays raw.
    std::shared_ptr<const std::string> stored;
    if (opts_.compress_blocks) stored = CompressBlockPayload(block);
    const bool compressed = stored != nullptr;
    uint64_t stored_size =
        compressed ? stored->size() : block.payload().size();

    // Reserve the block's LZ range in log order; stall while the LZ is
    // full (destaging behind, §4.3).
    while (true) {
      Status r = lz_->TryReserve(block.start_lsn, block.payload().size(),
                                 stored_size, compressed);
      if (r.ok()) break;
      lz_stalls_++;
      co_await sim::Delay(sim_, 1000);
    }

    // Availability path: fire-and-forget to XLOG (lossy).
    if (xlog_ != nullptr) {
      sim::Spawn(sim_, DeliverAsync(block, stored));
    }

    // Durability path: pipelined quorum write on the slot taken above.
    sim::Spawn(sim_,
               WriteBlockTask(std::move(block), std::move(stored), now));
  }
}

sim::Task<> XLogClient::WriteBlockTask(
    LogBlock block, std::shared_ptr<const std::string> stored,
    SimTime cut_at_us) {
  const bool compressed = stored != nullptr;
  const storage::SegmentRef data(compressed ? std::move(stored)
                                            : block.payload_ptr());
  // The per-I/O + per-byte CPU cost (REST vs RDMA path) lands on the
  // Primary (Table 7); compression trades a cheap per-KB encode for the
  // much larger per-KB wire cost of the stored bytes.
  if (cpu_ != nullptr) {
    SimTime cost = lz_->WriteCpuCostUs(data.size());
    if (opts_.compress_blocks) {
      cost += static_cast<SimTime>(kCompressCpuUsPerKb *
                                   block.payload().size() / 1024.0);
    }
    co_await cpu_->Consume(cost);
  }
  while (true) {
    Status s = co_await lz_->WriteReserved(block.start_lsn, data);
    if (s.ok()) break;
    lz_stalls_++;
    co_await sim::Delay(sim_, 1000);  // transient replica-set outage
  }
  SimTime done = sim_.now();
  hist_quorum_us_.Add(static_cast<double>(done - cut_at_us));
  blocks_written_++;
  bytes_written_ += block.payload().size();
  stored_bytes_written_ += data.size();
  if (compressed) compressed_blocks_++;
  // This write's completion may have advanced the durable end past the
  // block already; otherwise an earlier block's write is still in flight.
  if (hardened_.value() >= block.end_lsn()) {
    hist_harden_wait_us_.Add(0);
  } else {
    awaiting_harden_.emplace_back(block.end_lsn(), done);
  }
  if (xlog_ != nullptr) {
    sim::Spawn(sim_, VisibleWatch(block.end_lsn(), done));
  }
  inflight_->Release();
}

void XLogClient::RecordHardenWaits(Lsn durable) {
  std::erase_if(awaiting_harden_, [&](const auto& w) {
    if (w.first > durable) return false;
    hist_harden_wait_us_.Add(static_cast<double>(sim_.now() - w.second));
    return true;
  });
}

sim::Task<> XLogClient::VisibleWatch(Lsn end, SimTime hardened_at_us) {
  co_await xlog_->available().WaitFor(end);
  hist_visible_us_.Add(static_cast<double>(sim_.now() - hardened_at_us));
}

sim::Task<> XLogClient::DeliverAsync(
    LogBlock block, std::shared_ptr<const std::string> stored) {
  std::string frame = EncodeBlockFrame(block, stored.get());
  wire_bytes_sent_ += frame.size();
  SimTime link_delay = opts_.chaos.LinkDelayUs(chaos::kXLogSite);
  co_await sim::Delay(sim_, delivery_latency_.Sample(rng_) + link_delay);
  if (opts_.chaos.DropTo(chaos::kXLogSite)) {
    deliveries_lost_++;
    co_return;  // lost on the wire; XLOG will repair from the LZ
  }
  // A damaged frame is dropped (and counted) by XLOG; the repair path
  // reads the range back from the LZ.
  (void)xlog_->DeliverFrame(Slice(frame));
}

sim::Task<> XLogClient::NotifyAsync(Lsn hardened) {
  // Durability notifications ride a reliable control channel (they are
  // tiny and cumulative).
  co_await sim::Delay(sim_, delivery_latency_.Sample(rng_));
  xlog_->NotifyHardened(hardened);
}

}  // namespace xlog
}  // namespace socrates
