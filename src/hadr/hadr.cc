#include "hadr/hadr.h"

namespace socrates {
namespace hadr {

namespace {
// One Primary and three Secondaries (§2).
constexpr int kNumSecondaries = 3;
// Each node stores the full database on local disk; this is the node
// storage budget in pages (deployments cannot exceed it — the 4 TB cap
// of Table 1).
constexpr size_t kNodeStoragePages = 1 << 20;
// Node-to-node network (log shipping, seeding) and each node's local log
// disk.
const sim::LatencyModel kNetwork = sim::DeviceProfile::IntraDcNetwork().write;
const sim::DeviceProfile kLocalLogDisk = sim::DeviceProfile::LocalSsd();
}  // namespace

// ------------------------------------------------------------ HadrLogSink

HadrLogSink::HadrLogSink(sim::Simulator& sim, sim::CpuResource* cpu,
                         std::vector<HadrSecondary*>* secondaries,
                         xstore::XStore* xstore, const HadrOptions& options)
    : sim_(sim),
      cpu_(cpu),
      secondaries_(secondaries),
      xstore_(xstore),
      opts_(options),
      rng_(0xadb),
      flushed_(engine::kLogStreamStart),
      end_lsn_(engine::kLogStreamStart),
      hardened_(sim),
      backup_progress_(sim),
      work_(sim),
      log_disk_(std::make_unique<storage::SimBlockDevice>(
          sim, kLocalLogDisk, 0xd15c)) {
  hardened_.Advance(engine::kLogStreamStart);
  backup_progress_.Advance(engine::kLogStreamStart);
}

void HadrLogSink::Start() {
  running_ = true;
  sim::Spawn(sim_, FlusherLoop());
  sim::Spawn(sim_, BackupLoop());
  if (opts_.background_backup_bytes_per_s > 0) {
    sim::Spawn(sim_, BackgroundBackupLoop());
  }
}

void HadrLogSink::Stop() {
  running_ = false;
  work_.Set();
}

Lsn HadrLogSink::Append(const engine::LogRecord& rec) {
  std::string payload = rec.Encode();
  Lsn lsn = end_lsn_;
  engine::FrameRecord(&stream_, Slice(payload));
  end_lsn_ = lsn + engine::FramedSize(payload.size());
  work_.Set();
  return lsn;
}

sim::Task<Status> HadrLogSink::WaitHardened(Lsn lsn) {
  co_await hardened_.WaitFor(lsn);
  co_return Status::OK();
}

sim::Task<Status> HadrLogSink::Flush() {
  Lsn target = end_lsn_;
  co_await hardened_.WaitFor(target);
  co_return Status::OK();
}

sim::Task<> HadrLogSink::FlusherLoop() {
  while (true) {
    if (flushed_ >= end_lsn_) {
      work_.Reset();
      if (!running_) break;
      co_await work_.Wait();
      if (!running_ && flushed_ >= end_lsn_) break;
      continue;
    }
    // Backup throttling (§7.4): log production is restricted to the rate
    // the XStore backup egress can absorb.
    while (flushed_ - backed_up_ > opts_.max_backup_lag_bytes) {
      backup_stalls_++;
      co_await backup_progress_.WaitFor(flushed_ -
                                        opts_.max_backup_lag_bytes);
    }
    Lsn block_start = flushed_;
    // Cut at record-frame boundaries: secondaries parse each block
    // independently.
    uint64_t avail = end_lsn_ - flushed_;
    Slice pending(stream_.data() + (flushed_ - engine::kLogStreamStart),
                  avail);
    uint64_t take = engine::FrameAlignedPrefix(pending, kMaxLogBlockSize);
    if (take == 0) take = avail;  // defensive: partial frame
    // One shared immutable copy of the block: the local write and every
    // Secondary shipment alias it instead of copying it per replica.
    auto payload = std::make_shared<const std::string>(
        stream_, block_start - engine::kLogStreamStart, take);
    flushed_ += take;

    // Persist locally and ship to all Secondaries in parallel; harden at
    // quorum (local write counts as one vote).
    struct ShipState {
      explicit ShipState(sim::Simulator& s) : done(s) {}
      int acks = 0;
      int needed = 0;
      sim::Event done;
    };
    auto state = std::make_shared<ShipState>(sim_);
    state->needed = opts_.commit_quorum;
    Lsn block_end = block_start + take;

    if (cpu_ != nullptr) co_await cpu_->Consume(12);  // block formation

    auto vote = [state]() {
      state->acks++;
      if (state->acks == state->needed) state->done.Set();
    };

    // Local log write.
    sim::Spawn(sim_, [](HadrLogSink* self, Lsn start,
                        std::shared_ptr<const std::string> data,
                        std::function<void()> v) -> sim::Task<> {
      (void)co_await self->log_disk_->Write(start % (64 * MiB),
                                            std::move(data));
      v();
    }(this, block_start, payload, vote));

    // Ship to every Secondary.
    for (HadrSecondary* sec : *secondaries_) {
      sim::Spawn(sim_, [](HadrLogSink* self, HadrSecondary* s, Lsn start,
                          std::shared_ptr<const std::string> data,
                          std::function<void()> v) -> sim::Task<> {
        co_await sim::Delay(self->sim_, kNetwork.Sample(self->rng_));
        Status st = co_await s->Receive(start, std::move(data));
        if (st.ok()) {
          co_await sim::Delay(self->sim_, kNetwork.Sample(self->rng_));
          v();
        }
      }(this, sec, block_start, payload, vote));
    }

    co_await state->done.Wait();
    hardened_.Advance(block_end);
  }
}

sim::Task<> HadrLogSink::BackupLoop() {
  // Continuously stream the log to XStore (production: every 5 minutes;
  // under load the stream is effectively continuous and bandwidth-bound).
  while (running_ || backed_up_ < hardened_.value()) {
    Lsn target = hardened_.value();
    if (backed_up_ >= target) {
      co_await sim::Delay(sim_, 5000);
      continue;
    }
    uint64_t take = std::min<uint64_t>(target - backed_up_, 2 * MiB);
    std::string chunk = stream_.substr(
        backed_up_ - engine::kLogStreamStart, take);
    Status s = co_await xstore_->Write(
        "hadr/log-backup", backed_up_ - engine::kLogStreamStart,
        storage::SegmentRef::Adopt(std::move(chunk)));
    if (!s.ok()) {
      co_await sim::Delay(sim_, 50000);
      continue;
    }
    backed_up_ += take;
    backup_progress_.Advance(backed_up_);
  }
}

sim::Task<> HadrLogSink::BackgroundBackupLoop() {
  // Delta/full database backups continuously compete for XStore egress
  // with the log backup (HADR must "drive log and database backup from
  // the compute nodes in parallel with the user workload", §7.4).
  const uint64_t chunk = 256 * KiB;
  const storage::SegmentRef data =
      storage::SegmentRef::Adopt(std::string(chunk, 'd'));
  uint64_t offset = 0;
  while (running_) {
    (void)co_await xstore_->Write("hadr/delta-backup", offset, data);
    offset += chunk;
    // Pace to the configured background rate.
    SimTime pace_us = static_cast<SimTime>(
        1e6 * static_cast<double>(chunk) /
        static_cast<double>(opts_.background_backup_bytes_per_s));
    co_await sim::Delay(sim_, pace_us);
  }
}

// ---------------------------------------------------------- HadrSecondary

HadrSecondary::HadrSecondary(sim::Simulator& sim,
                             const HadrOptions& options, int index)
    : sim_(sim),
      opts_(options),
      cpu_(std::make_unique<sim::CpuResource>(sim, options.cpu_cores)),
      log_disk_(std::make_unique<storage::SimBlockDevice>(
          sim, kLocalLogDisk, 0x5ec + index)),
      rng_(0x5eed + index) {
  engine::BufferPoolOptions pool_opts;
  pool_opts.mem_pages = options.mem_pages;
  // Full local copy: the "SSD tier" is the node's local disk, sized to
  // hold the entire database.
  pool_opts.ssd_pages = kNodeStoragePages;
  pool_opts.ssd_recoverable = true;
  pool_ = std::make_unique<engine::BufferPool>(sim, pool_opts, nullptr,
                                               0xab + index);
  applier_ = std::make_unique<engine::RedoApplier>(
      sim, pool_.get(), engine::RedoApplier::MissPolicy::kMaterialize);
  applier_->ConfigureLanes(1, cpu_.get());
  applier_->applied_lsn().Advance(engine::kLogStreamStart);
  engine_ = std::make_unique<engine::Engine>(sim, pool_.get(), nullptr);
  engine_->SetReadTsProvider(
      [this] { return applier_->applied_commit_ts(); });
}

sim::Task<Status> HadrSecondary::Receive(
    Lsn start_lsn, std::shared_ptr<const std::string> payload) {
  // Persist the block locally (the ack is meaningless otherwise), then
  // apply it to the local full copy.
  (void)co_await log_disk_->Write(start_lsn % (64 * MiB), payload);
  // Each block ships with its own network delay, so a later block can
  // arrive first. Apply in LSN order, as a log-shipping stream would:
  // redo derives leaf chains and split halves from the page it applies
  // to, so a page must see its records in order.
  co_await applier_->applied_lsn().WaitFor(start_lsn);
  Result<Lsn> end = co_await applier_->ApplyStream(Slice(*payload), start_lsn);
  if (!end.ok()) co_return end.status();
  applier_->applied_lsn().Advance(*end);
  co_return Status::OK();
}

// ------------------------------------------------------------ HadrCluster

HadrCluster::HadrCluster(sim::Simulator& sim, xstore::XStore* xstore,
                         const HadrOptions& options)
    : sim_(sim),
      xstore_(xstore),
      opts_(options),
      cpu_(std::make_unique<sim::CpuResource>(sim, options.cpu_cores)) {
  for (int i = 0; i < kNumSecondaries; i++) {
    secondaries_.push_back(
        std::make_unique<HadrSecondary>(sim, options, i));
    secondary_ptrs_.push_back(secondaries_.back().get());
  }
  sink_ = std::make_unique<HadrLogSink>(sim, cpu_.get(), &secondary_ptrs_,
                                        xstore, options);
  engine::BufferPoolOptions pool_opts;
  pool_opts.mem_pages = options.mem_pages;
  pool_opts.ssd_pages = kNodeStoragePages;  // full local copy
  pool_opts.ssd_recoverable = true;
  pool_ = std::make_unique<engine::BufferPool>(sim, pool_opts, nullptr,
                                               0x11ad);
  engine_ = std::make_unique<engine::Engine>(sim, pool_.get(),
                                             sink_.get());
  active_engine_ = engine_.get();
}

HadrCluster::~HadrCluster() = default;

sim::Task<Status> HadrCluster::Start() {
  sink_->Start();
  co_return co_await engine_->Bootstrap();
}

void HadrCluster::Stop() { sink_->Stop(); }

sim::Task<Result<SimTime>> HadrCluster::SeedNewSecondary() {
  // O(size-of-data): stream every page of the database to the new node
  // over the network (§2 "the cost of seeding a new node is linear with
  // the size of the database").
  SimTime begin = sim_.now();
  auto node = std::make_unique<HadrSecondary>(
      sim_, opts_, static_cast<int>(secondaries_.size()));
  Random rng(0x5eed);
  uint64_t copied = 0;
  // Iterate all pages the primary's tree ever allocated.
  PageId end_page = active_engine_->btree()->next_page_id();
  for (PageId id = 1; id < end_page; id++) {
    Result<engine::PageRef> ref = co_await pool_->GetPage(id);
    if (!ref.ok()) continue;
    storage::Page copy = *ref->page();
    copy.UpdateChecksum();
    co_await sim::Delay(sim_, kNetwork.Sample(rng));
    Result<engine::PageRef> dst = node->engine()->pool()->NewPage(id);
    if (dst.ok()) {
      *dst->page() = copy;
      dst.value().MarkDirty();
    }
    copied++;
    if (id % 64 == 0) co_await sim::Yield(sim_);
  }
  (void)copied;
  // The copied pages hold every record appended so far; the node joins
  // the shipping set at the next block, so its stream starts there.
  node->applier()->applied_lsn().Advance(sink_->shipped_lsn());
  secondaries_.push_back(std::move(node));
  secondary_ptrs_.push_back(secondaries_.back().get());
  co_return sim_.now() - begin;
}

sim::Task<Status> HadrCluster::Failover() {
  // Promote secondary 0: it already holds a full copy; wait for it to
  // drain the shipped log, then rewire the engine.
  HadrSecondary* next = secondary_ptrs_[0];
  co_await next->applier()->applied_lsn().WaitFor(sink_->hardened_lsn());
  // The promoted node leaves the shipping/quorum set: the sink must not
  // re-apply the new Primary's own log into its now-active engine.
  secondary_ptrs_.erase(secondary_ptrs_.begin());
  engine::Engine* e = next->engine();
  e->SetSink(sink_.get());
  e->SetReadTsProvider(nullptr);
  e->RestoreCounters(next->applier()->applied_commit_ts(),
                     next->applier()->max_page_seen() + 1);
  active_engine_ = e;
  primary_alive_ = true;
  co_return Status::OK();
}

void HadrCluster::CrashPrimary() { primary_alive_ = false; }

void HadrCluster::CrashSecondary(int i) {
  if (i < 0 || i >= static_cast<int>(secondary_ptrs_.size())) return;
  // The dead node drops out of the shipping/quorum set; its storage is
  // gone (full local copy — rebuilding means reseeding from scratch).
  secondary_ptrs_.erase(secondary_ptrs_.begin() + i);
}

}  // namespace hadr
}  // namespace socrates
