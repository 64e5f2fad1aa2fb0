#include "service/deployment.h"

#include "service/cluster_monitor.h"

namespace socrates {
namespace service {

// Landing-zone capacity (the LZ is a circular buffer over the log).
constexpr uint64_t kLzCapacityBytes = 256 * MiB;
// XStore bandwidth cap in MB/s (shared by checkpoints, backups, LT).
constexpr double kXStoreBandwidthMbS = 200.0;

Deployment::Deployment(sim::Simulator& sim,
                       const DeploymentOptions& options)
    : sim_(sim), opts_(options) {
  // Fleet mode: attach to the shared pools instead of owning them. The
  // shared XStore/chaos hub are attached once by the fleet ("xstore");
  // everything this tenant registers is namespaced by site_prefix /
  // blob_namespace so tenants cannot collide.
  if (opts_.shared_chaos != nullptr) {
    chaos_ = opts_.shared_chaos;
  } else {
    owned_chaos_ = std::make_unique<chaos::Injector>();
    chaos_ = owned_chaos_.get();
  }
  reconfig_mu_ = std::make_unique<sim::Mutex>(sim);
  if (opts_.shared_xstore != nullptr) {
    xstore_ = opts_.shared_xstore;
  } else {
    owned_xstore_ = std::make_unique<xstore::XStore>(
        sim, sim::DeviceProfile::XStore(), kXStoreBandwidthMbS);
    xstore_ = owned_xstore_.get();
    owned_xstore_->AttachChaos(chaos_, "xstore");
  }
  lz_ = std::make_unique<xlog::LandingZone>(sim, opts_.lz_profile,
                                            kLzCapacityBytes);
  lz_->device()->AttachChaos(chaos_, opts_.lz_site.empty()
                                         ? opts_.site_prefix + "lz"
                                         : opts_.lz_site);
  xlog::XLogOptions xopts;
  xopts.partition_map = opts_.partition_map;
  // The long-term log archive lives in the (possibly shared) XStore:
  // namespace it per tenant like every other blob.
  xopts.lt_blob = opts_.blob_namespace + xopts.lt_blob;
  owned_xlog_ = std::make_unique<xlog::XLogProcess>(sim, lz_.get(),
                                                    xstore_, xopts);
  xlog_ = owned_xlog_.get();
  router_ =
      std::make_unique<compute::PageServerRouter>(opts_.partition_map);
}

// PITR constructor: share the parent's XStore and XLOG (same log
// archive); no landing zone / client — the restored deployment is frozen
// at its target LSN and serves reads only.
Deployment::Deployment(sim::Simulator& sim,
                       const DeploymentOptions& options, Deployment* parent,
                       const std::string& blob_suffix)
    : sim_(sim), opts_(options) {
  xstore_ = parent->xstore_;
  xlog_ = parent->xlog_;
  chaos_ = parent->chaos_;  // shared fault hub, same site namespace
  reconfig_mu_ = std::make_unique<sim::Mutex>(sim);
  router_ =
      std::make_unique<compute::PageServerRouter>(opts_.partition_map);
  blob_suffix_ = blob_suffix;
  restored_ = true;
}

Deployment::~Deployment() = default;

sim::Task<Status> Deployment::Start() {
  xlog_->Start();
  xlog::XLogClientOptions copts = opts_.xlog_client;
  copts.partition_map = opts_.partition_map;
  copts.chaos = chaos::SitePort(chaos_, LogWriterSite());
  client_ = std::make_unique<xlog::XLogClient>(sim_, lz_.get(), xlog_,
                                               nullptr, copts);
  client_->Start();

  SOCRATES_CO_RETURN_IF_ERROR(co_await StartPageServers());

  compute::ComputeOptions primary_opts = opts_.compute;
  primary_opts.chaos = chaos::SitePort(chaos_, NextComputeSite());
  primary_ = std::make_unique<compute::ComputeNode>(
      sim_, compute::ComputeNode::Role::kPrimary, compute_router(), xlog_,
      client_.get(), primary_opts);
  // The log writer runs inside the Primary process: its LZ I/O burns the
  // Primary's CPU (the Table 7 effect).
  client_->SetCpu(&primary_->cpu());
  SOCRATES_CO_RETURN_IF_ERROR(co_await primary_->BootstrapPrimary());
  last_checkpoint_lsn_ = engine::kLogStreamStart;

  for (int i = 0; i < opts_.num_secondaries; i++) {
    Result<compute::ComputeNode*> s = co_await AddSecondary();
    if (!s.ok()) co_return s.status();
  }
  co_return Status::OK();
}

pageserver::PageServerOptions Deployment::MakePsOptions(
    PartitionId p, const PsHostBinding& binding) {
  pageserver::PageServerOptions ps_opts = opts_.page_server;
  ps_opts.partition = p;
  ps_opts.partition_map = opts_.partition_map;
  // Shared-pool tenants must never collide on blob names; standalone
  // deployments (empty namespace) keep the historical names exactly.
  if (!opts_.blob_namespace.empty() && ps_opts.blob_override.empty()) {
    ps_opts.blob_override = PartitionBlobName(p);
  }
  ps_opts.shared_cpu = binding.cpu;
  return ps_opts;
}

std::string Deployment::PageServerSite(PartitionId p) const {
  if (p < ps_sites_.size() && !ps_sites_[p].empty()) return ps_sites_[p];
  return opts_.site_prefix + "ps-" + std::to_string(p);
}

sim::Task<Status> Deployment::StartPageServers() {
  for (int p = 0; p < opts_.num_page_servers; p++) {
    const PartitionId part = static_cast<PartitionId>(p);
    PsHostBinding binding;
    if (opts_.ps_host) binding = opts_.ps_host(part);
    pageserver::PageServerOptions ps_opts = MakePsOptions(part, binding);
    auto ps = std::make_unique<pageserver::PageServer>(sim_, xlog_,
                                                       xstore_, ps_opts);
    ps_sites_.push_back(binding.site.empty()
                            ? opts_.site_prefix + "ps-" + std::to_string(p)
                            : binding.site);
    ps->AttachChaos(chaos_, ps_sites_.back());
    SOCRATES_CO_RETURN_IF_ERROR(co_await ps->Start());
    router_->Add(part, ps.get());
    page_servers_.push_back(std::move(ps));
  }
  co_return Status::OK();
}

void Deployment::Stop() {
  if (stopping_) return;  // idempotent: Stop during Stop is a no-op
  stopping_ = true;
  if (monitor_ != nullptr) monitor_->Stop();
  for (auto& ps : page_servers_) ps->Stop();
  if (client_ != nullptr) client_->Stop();
  if (owned_xlog_ != nullptr) owned_xlog_->Stop();
}

sim::Task<Status> Deployment::Checkpoint() {
  Result<Lsn> lsn = co_await primary_->LogCheckpoint();
  if (!lsn.ok()) co_return lsn.status();
  last_checkpoint_lsn_ = *lsn;
  // Persist the replay point: a control plane (or a replacement one)
  // must find it without any compute node's memory.
  std::string state;
  PutFixed64(&state, last_checkpoint_lsn_);
  Status ps = co_await xstore_->Write(
      opts_.blob_namespace + "control/state" + blob_suffix_, 0,
      Slice(state));
  // Control-state persistence is best-effort here: if XStore is out, the
  // in-memory value still covers this control plane's lifetime and the
  // next checkpoint retries.
  (void)ps;
  co_return Status::OK();
}

sim::Task<Status> Deployment::CheckpointAll() {
  // §5 distributed checkpointing: every Page Server flushes its
  // partition concurrently; the control record follows once all are in.
  struct JoinState {
    explicit JoinState(sim::Simulator& s) : wg(s) {}
    sim::WaitGroup wg;
    Status first_error;
  };
  auto state = std::make_shared<JoinState>(sim_);
  state->wg.Add(static_cast<int>(page_servers_.size()));
  for (auto& ps : page_servers_) {
    sim::Spawn(sim_, [](pageserver::PageServer* server,
                        std::shared_ptr<JoinState> js) -> sim::Task<> {
      Status s = co_await server->Checkpoint();
      if (!s.ok() && js->first_error.ok()) js->first_error = s;
      js->wg.Done();
    }(ps.get(), state));
  }
  co_await state->wg.Wait();
  SOCRATES_CO_RETURN_IF_ERROR(state->first_error);
  co_return co_await Checkpoint();
}

sim::Task<Result<Lsn>> Deployment::LoadControlCheckpointLsn() {
  std::string state;
  Status s = co_await xstore_->Read(
      opts_.blob_namespace + "control/state" + blob_suffix_, 0, 8, &state);
  if (!s.ok()) co_return Result<Lsn>(s);
  co_return DecodeFixed64(state.data());
}

sim::Task<Status> Deployment::Failover(int idx) {
  sim::Mutex::Guard g = co_await reconfig_mu_->Acquire();
  co_return co_await FailoverLocked(idx);
}

sim::Task<Status> Deployment::FailoverLocked(int idx) {
  // All checks run under the reconfiguration lock: a concurrent failover
  // may have consumed the secondary this caller picked (the bounds check
  // used to run before any serialization — see the regression test).
  if (stopping_) co_return Status::Unavailable("deployment stopping");
  if (idx < 0 || idx >= num_secondaries()) {
    co_return Status::InvalidArgument("no such secondary");
  }
  // The Primary dies; its state is disposable (§4.2: Compute nodes are
  // stateless). No log can be in flight that matters: only hardened log
  // counts, and that lives in the LZ. A monitor-initiated failover finds
  // the primary already crashed (never re-crash a dead node: Crash()
  // bumps the epoch fence a second time for nothing).
  if (primary_ != nullptr) {
    if (primary_->alive()) primary_->Crash();
    graveyard_.push_back(std::move(primary_));
  }
  // Promote the chosen Secondary once it drained the hardened log.
  std::unique_ptr<compute::ComputeNode> promoted =
      std::move(secondaries_[idx]);
  secondaries_.erase(secondaries_.begin() + idx);
  SOCRATES_CO_RETURN_IF_ERROR(
      co_await promoted->Promote(client_.get(), lz_->durable_end()));
  primary_ = std::move(promoted);
  client_->SetCpu(&primary_->cpu());
  BumpConfigEpoch();
  co_return Status::OK();
}

sim::Task<Status> Deployment::RestartPrimary() {
  sim::Mutex::Guard g = co_await reconfig_mu_->Acquire();
  if (primary_ != nullptr && primary_->alive()) primary_->Crash();
  co_return co_await RestartPrimaryLocked();
}

sim::Task<Status> Deployment::RestartPrimaryLocked() {
  if (stopping_) co_return Status::Unavailable("deployment stopping");
  if (primary_ == nullptr) {
    co_return Status::InvalidArgument("no primary to restart");
  }
  Status s = co_await primary_->RecoverPrimary(last_checkpoint_lsn_,
                                               lz_->durable_end());
  if (s.ok()) BumpConfigEpoch();
  co_return s;
}

sim::Task<Result<compute::ComputeNode*>> Deployment::AddSecondary() {
  co_return co_await AddSecondaryWithOptions(opts_.compute);
}

sim::Task<Result<compute::ComputeNode*>> Deployment::AddSecondaryWithOptions(
    const compute::ComputeOptions& copts) {
  compute::ComputeOptions node_opts = copts;
  node_opts.chaos = chaos::SitePort(chaos_, NextComputeSite());
  auto node = std::make_unique<compute::ComputeNode>(
      sim_, compute::ComputeNode::Role::kSecondary, compute_router(),
      xlog_, nullptr, node_opts);
  SOCRATES_CO_RETURN_IF_ERROR(co_await node->StartSecondary());
  secondaries_.push_back(std::move(node));
  co_return secondaries_.back().get();
}

sim::Task<Result<compute::ComputeNode*>> Deployment::AddGeoSecondary(
    SimTime rtt_us) {
  compute::ComputeOptions copts =
      compute::ComputeOptions::GeoReplica(rtt_us);
  copts.cpu_cores = opts_.compute.cpu_cores;
  copts.mem_pages = opts_.compute.mem_pages;
  copts.ssd_pages = opts_.compute.ssd_pages;
  co_return co_await AddSecondaryWithOptions(copts);
}

sim::Task<Status> Deployment::ResizeCompute(int new_cores) {
  compute::ComputeOptions copts = opts_.compute;
  copts.cpu_cores = new_cores;
  Result<compute::ComputeNode*> node =
      co_await AddSecondaryWithOptions(copts);
  if (!node.ok()) co_return node.status();
  opts_.compute.cpu_cores = new_cores;
  // The freshly added secondary is the last one; fail over to it.
  co_return co_await Failover(num_secondaries() - 1);
}

sim::Task<Status> Deployment::AddPageServerReplica(PartitionId partition) {
  if (partition >= page_servers_.size()) {
    co_return Status::InvalidArgument("no such partition");
  }
  pageserver::PageServerOptions ps_opts = opts_.page_server;
  ps_opts.partition = partition;
  ps_opts.partition_map = opts_.partition_map;
  ps_opts.blob_override = PartitionBlobName(partition) + "-replica";
  auto replica = std::make_unique<pageserver::PageServer>(
      sim_, xlog_, xstore_, ps_opts);
  replica->AttachChaos(chaos_, opts_.site_prefix + "ps-" +
                                   std::to_string(partition) + "-r0");
  SOCRATES_CO_RETURN_IF_ERROR(co_await replica->Start());
  // Visible to the RBIO client immediately: QoS replica selection can
  // route reads to it, and failover is a metadata flip.
  router_->AddReplica(partition, replica.get());
  ps_replicas_[partition] = std::move(replica);
  co_return Status::OK();
}

sim::Task<Status> Deployment::FailoverPageServer(PartitionId partition) {
  auto it = ps_replicas_.find(partition);
  if (it == ps_replicas_.end()) {
    co_return Status::InvalidArgument("partition has no replica");
  }
  if (partition < page_servers_.size()) {
    page_servers_[partition]->Crash();
  }
  // The replica is warm (it has been applying the same filtered log all
  // along); rerouting is a metadata operation — but it IS a topology
  // change: "ps-N" now resolves to the replica, so complete it like any
  // other reconfiguration.
  router_->Add(partition, it->second.get());
  BumpConfigEpoch();
  co_return Status::OK();
}

void Deployment::BumpConfigEpoch() {
  config_epoch_++;
  if (primary_ != nullptr && primary_->alive()) {
    primary_->ClearScanBackoff();
  }
  for (auto& s : secondaries_) {
    if (s != nullptr && s->alive()) s->ClearScanBackoff();
  }
}

ClusterMonitor* Deployment::EnableMonitor() {
  if (monitor_ == nullptr) {
    monitor_ = std::make_unique<ClusterMonitor>(sim_, this);
    monitor_->Start();
  }
  return monitor_.get();
}

void Deployment::CrashPrimary() {
  if (primary_ != nullptr && primary_->alive()) primary_->Crash();
}

void Deployment::CrashSecondary(int idx) {
  if (idx < 0 || idx >= num_secondaries()) return;
  if (secondaries_[idx]->alive()) secondaries_[idx]->Crash();
}

void Deployment::CrashPageServer(int p) {
  if (p < 0 || p >= num_page_servers()) return;
  if (page_servers_[p]->running()) page_servers_[p]->Crash();
}

chaos::FaultTargets Deployment::ChaosTargets() {
  chaos::FaultTargets t;
  t.injector = chaos_;
  t.primary_site = [this]() -> std::string {
    return primary_ != nullptr ? primary_->chaos_site() : std::string();
  };
  // Resolved through the deployment: in a fleet a partition's site is
  // its current host (and moves when a migration moves the partition).
  t.page_server_site = [this](int p) {
    return PageServerSite(static_cast<PartitionId>(p));
  };
  t.logwriter_site = LogWriterSite();
  t.lz_site =
      opts_.lz_site.empty() ? opts_.site_prefix + "lz" : opts_.lz_site;
  t.crash_primary = [this] { CrashPrimary(); };
  t.crash_secondary = [this](int i) { CrashSecondary(i); };
  t.crash_page_server = [this](int p) { CrashPageServer(p); };
  return t;
}

pageserver::PageServer* Deployment::ServingPageServer(PartitionId p) {
  return router_->ServerFor(opts_.partition_map.FirstPage(p));
}

sim::Task<Status> Deployment::RecoverPageServer(PartitionId p) {
  if (p >= page_servers_.size()) {
    co_return Status::InvalidArgument("no such partition");
  }
  pageserver::PageServer* ps = page_servers_[p].get();
  // Start() on a crashed server reseeds from the XStore checkpoint and
  // replays the log tail — the §4.3 restart path, no data copied from
  // any compute node.
  SOCRATES_CO_RETURN_IF_ERROR(co_await ps->Start());
  router_->Add(p, ps);  // re-point (a replica may have been serving)
  BumpConfigEpoch();
  co_return Status::OK();
}

sim::Task<Result<pageserver::PageServer*>> Deployment::MigratePartition(
    PartitionId p, const PsHostBinding& binding) {
  using ResultPs = Result<pageserver::PageServer*>;
  sim::Mutex::Guard g = co_await reconfig_mu_->Acquire();
  if (stopping_) co_return ResultPs(Status::Unavailable("deployment stopping"));
  if (p >= page_servers_.size()) {
    co_return ResultPs(Status::InvalidArgument("no such partition"));
  }
  pageserver::PageServer* old = page_servers_[p].get();

  // 1. Bound the replacement's replay window: force a checkpoint on the
  //    incumbent. Best-effort — if the incumbent is sick the replacement
  //    just replays a longer log tail (this is exactly the §4.3 restart
  //    path, which never depends on the outgoing server's health).
  if (old->running()) (void)co_await old->Checkpoint();

  // 2. Build the replacement on the destination host against the SAME
  //    namespaced blob, checkpointing off: two writers to one checkpoint
  //    blob until cutover would be a split-brain.
  pageserver::PageServerOptions ps_opts = MakePsOptions(p, binding);
  ps_opts.checkpointing_enabled = false;
  auto next = std::make_unique<pageserver::PageServer>(sim_, xlog_, xstore_,
                                                       ps_opts);
  const std::string site = binding.site.empty() ? PageServerSite(p)
                                                : binding.site;
  next->AttachChaos(chaos_, site);
  SOCRATES_CO_RETURN_IF_ERROR(co_await next->Start());
  next->SeedAsync();  // warm the covering cache in the background

  // 3. Catch up to the log hardened as of now, AND wait for the
  //    background seed to finish: cutting over to a cold replacement
  //    would turn the migration into a cache-miss storm (every read a
  //    multi-ms XStore fetch) — a far longer brownout than the cutover
  //    itself. The incumbent keeps serving; reads are never blocked on
  //    the migration. Poll (rather than WaitFor) so a replacement killed
  //    mid-catch-up by chaos aborts the migration instead of
  //    deadlocking the reconfiguration lock.
  const Lsn target = lz_->durable_end();
  while (!next->seeding_done() || next->applied_lsn().value() < target) {
    if (!next->running()) {
      ps_graveyard_.push_back(std::move(next));
      co_return ResultPs(
          Status::Unavailable("migration target died during catch-up"));
    }
    co_await sim::Delay(sim_, 2000);
  }

  // 4. Cutover: a metadata flip plus an epoch bump. Requests routed on
  //    the old epoch either land on the stopped incumbent (and retry) or
  //    observe the bumped epoch and re-resolve — never a stale answer,
  //    because the replacement has applied everything the incumbent had.
  pageserver::PageServer* fresh = next.get();
  router_->Add(p, fresh);
  if (old->running()) old->Stop();
  fresh->ResumeCheckpointing();
  if (ps_sites_.size() <= p) ps_sites_.resize(p + 1);
  ps_sites_[p] = site;
  ps_graveyard_.push_back(std::move(page_servers_[p]));
  page_servers_[p] = std::move(next);
  BumpConfigEpoch();
  co_return ResultPs(fresh);
}

void Deployment::RemoveSecondary(int idx) {
  if (idx < 0 || idx >= num_secondaries()) return;
  graveyard_.push_back(std::move(secondaries_[idx]));
  secondaries_.erase(secondaries_.begin() + idx);
  BumpConfigEpoch();
}

sim::Task<Result<BackupHandle>> Deployment::Backup() {
  BackupHandle handle;
  // Make the replay point recent, then snapshot every partition. The
  // snapshots are fuzzy relative to each other; the per-partition
  // restart LSNs plus the shared log make restore exact.
  SOCRATES_CO_RETURN_IF_ERROR(co_await Checkpoint());
  handle.checkpoint_lsn = last_checkpoint_lsn_;
  for (auto& ps : page_servers_) {
    Result<xstore::SnapshotId> snap = co_await ps->Backup();
    if (!snap.ok()) co_return snap.status();
    handle.partition_snapshots.push_back(*snap);
    handle.partition_restart_lsns.push_back(ps->restart_lsn());
    handle.checkpoint_us += ps->last_backup_checkpoint_us();
    handle.snapshot_us += ps->last_backup_snapshot_us();
  }
  handle.backup_lsn = lz_->durable_end();
  co_return std::move(handle);
}

sim::Task<Result<std::unique_ptr<Deployment>>>
Deployment::PointInTimeRestore(const BackupHandle& backup,
                               Lsn target_lsn) {
  if (backup.partition_snapshots.size() != page_servers_.size()) {
    co_return Result<std::unique_ptr<Deployment>>(
        Status::InvalidArgument("backup does not match deployment"));
  }
  // Named from this deployment's own count (nested under its suffix when
  // it is itself a restore), so names never depend on what else ran in
  // the process.
  std::string suffix =
      blob_suffix_ + "/restore-" + std::to_string(restores_++);

  auto restored = std::unique_ptr<Deployment>(
      new Deployment(sim_, opts_, this, suffix));

  // 1. Constant-time: copy each snapshot to a new blob and write its
  //    restore metadata (replay point).
  for (size_t p = 0; p < backup.partition_snapshots.size(); p++) {
    std::string blob = PartitionBlobName(static_cast<PartitionId>(p)) + suffix;
    SOCRATES_CO_RETURN_IF_ERROR(
        co_await xstore_->Restore(backup.partition_snapshots[p], blob));
    std::string meta;
    PutFixed64(&meta, backup.partition_restart_lsns[p]);
    SOCRATES_CO_RETURN_IF_ERROR(
        co_await xstore_->Write(blob + "/meta", 0, Slice(meta)));
  }

  // 2. Attach new Page Servers to the copied blobs; they replay the log
  //    range [restart, target) from the shared XLOG/LT and then freeze.
  for (size_t p = 0; p < backup.partition_snapshots.size(); p++) {
    pageserver::PageServerOptions ps_opts = opts_.page_server;
    ps_opts.partition = static_cast<PartitionId>(p);
    ps_opts.partition_map = opts_.partition_map;
    ps_opts.apply_until = target_lsn;
    // Restore blobs live inside the tenant's namespace: two tenants
    // restoring concurrently must not collide on "db/partition-N/restore-K".
    ps_opts.blob_override =
        PartitionBlobName(static_cast<PartitionId>(p)) + suffix;
    auto ps = std::make_unique<pageserver::PageServer>(
        sim_, xlog_, xstore_, ps_opts);
    SOCRATES_CO_RETURN_IF_ERROR(co_await ps->Start());
    restored->router_->Add(static_cast<PartitionId>(p), ps.get());
    restored->page_servers_.push_back(std::move(ps));
  }

  // 3. A read-only "primary" recovers engine state as of target_lsn.
  compute::ComputeOptions copts = opts_.compute;
  restored->primary_ = std::make_unique<compute::ComputeNode>(
      sim_, compute::ComputeNode::Role::kPrimary,
      restored->router_.get(), xlog_, nullptr, copts);
  SOCRATES_CO_RETURN_IF_ERROR(co_await restored->primary_->RecoverPrimary(
      backup.checkpoint_lsn, target_lsn));
  co_return std::move(restored);
}

}  // namespace service
}  // namespace socrates
