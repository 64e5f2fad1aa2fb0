// Deployment: the Socrates control plane (paper §5, §6).
//
// Wires the four tiers together — Compute (Primary + Secondaries), XLOG
// (landing zone + XLOG process), Page Servers, XStore — and implements
// the distributed workflows: bootstrap, checkpointing, primary failover,
// adding Secondaries and Page Server replicas, constant-time backup, and
// point-in-time restore (PITR). §6's flexibility claims map directly to
// DeploymentOptions: any number of Secondaries, any partition count, LZ
// on XIO or DirectDrive.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "compute/compute_node.h"
#include "hadr/hadr.h"
#include "pageserver/page_server.h"
#include "sim/sync.h"
#include "xlog/landing_zone.h"
#include "xlog/xlog_client.h"
#include "xlog/xlog_process.h"
#include "xstore/xstore.h"

namespace socrates {
namespace service {

class ClusterMonitor;

/// Where a Page Server runs in a multi-tenant fleet: the host's chaos
/// site (a host outage takes down every resident partition of every
/// tenant placed there) and the host's shared CPU. Empty/null fields
/// keep the single-tenant defaults.
struct PsHostBinding {
  std::string site;
  sim::CpuResource* cpu = nullptr;
};

struct DeploymentOptions {
  /// Landing-zone storage service (XIO vs DirectDrive, Appendix A).
  sim::DeviceProfile lz_profile = sim::DeviceProfile::DirectDrive();
  xlog::PartitionMap partition_map{/*pages_per_partition=*/16384};
  int num_page_servers = 1;
  int num_secondaries = 0;
  compute::ComputeOptions compute;
  pageserver::PageServerOptions page_server;  // partition filled per server
  xlog::XLogClientOptions xlog_client;

  // ----- Fleet mode (multi-tenant shared pools; src/fleet/). All off by
  // default: a standalone deployment owns its tiers and is byte-for-byte
  // the pre-fleet system.
  /// Shared XStore pool. When set the deployment does not own an XStore;
  /// every blob it writes MUST be namespaced via blob_namespace.
  xstore::XStore* shared_xstore = nullptr;
  /// Shared fault hub: all tenants' sites live in one chaos namespace so
  /// a fleet fault plan can take out a host under several tenants at
  /// once. When set the deployment does not own an Injector.
  chaos::Injector* shared_chaos = nullptr;
  /// Prefix for every chaos site this deployment registers ("t3/"):
  /// tenants sharing one hub cannot collide on "compute-0" or "lz".
  std::string site_prefix;
  /// Prefix for every XStore blob ("t3/"): partition data + checkpoint
  /// meta, the XLOG long-term archive, control state, PITR restores.
  /// Shared-pool tenants can never collide on blob names.
  std::string blob_namespace;
  /// Landing-zone chaos site override (fleet: several tenants' LZs can
  /// live on one "lzhost-<i>" so an LZ-host outage has a multi-tenant
  /// blast radius). Empty = site_prefix + "lz".
  std::string lz_site;
  /// Router handed to compute nodes instead of the deployment's own
  /// (the fleet gateway's per-tenant router). The deployment still
  /// maintains its internal router — that is the serving truth the
  /// gateway resolves against; this only redirects compute traffic
  /// through the gateway ports.
  compute::PageServerRouter* compute_router = nullptr;
  /// Page Server placement: partition -> host binding (chaos site,
  /// shared CPU, load board). Null = every server on its own
  /// site_prefix + "ps-<p>" with its own CPU.
  std::function<PsHostBinding(PartitionId)> ps_host;
};

/// Handle returned by Backup(); the input to PITR.
struct BackupHandle {
  std::vector<xstore::SnapshotId> partition_snapshots;
  std::vector<Lsn> partition_restart_lsns;
  Lsn backup_lsn = kInvalidLsn;      // durable log end at backup time
  Lsn checkpoint_lsn = kInvalidLsn;  // primary replay point
  // Latency split across all partitions: the forced checkpoints are the
  // variable part, the snapshots are the paper's constant-time part.
  SimTime checkpoint_us = 0;
  SimTime snapshot_us = 0;
};

class Deployment {
 public:
  Deployment(sim::Simulator& sim, const DeploymentOptions& options);
  ~Deployment();

  /// Bring up all tiers and bootstrap an empty database.
  sim::Task<Status> Start();
  void Stop();

  // ----- Accessors.
  compute::ComputeNode* primary() { return primary_.get(); }
  compute::ComputeNode* secondary(int i) { return secondaries_[i].get(); }
  int num_secondaries() const {
    return static_cast<int>(secondaries_.size());
  }
  pageserver::PageServer* page_server(int i) {
    return page_servers_[i].get();
  }
  int num_page_servers() const {
    return static_cast<int>(page_servers_.size());
  }
  xstore::XStore& xstore() { return *xstore_; }
  xlog::XLogProcess& xlog() { return *xlog_; }
  xlog::LandingZone& landing_zone() { return *lz_; }
  xlog::XLogClient& log_client() { return *client_; }
  engine::Engine* primary_engine() { return primary_->engine(); }
  Lsn durable_end() const { return lz_->durable_end(); }
  Lsn last_checkpoint_lsn() const { return last_checkpoint_lsn_; }
  const xlog::PartitionMap& partition_map() const {
    return opts_.partition_map;
  }

  // ----- Control plane & chaos.

  /// The deployment-wide fault hub. Every tier is attached under a
  /// stable site name: "compute-<serial>" (role-agnostic — a node keeps
  /// its site through promotion), "ps-<p>" / "ps-<p>-r<i>", "xstore",
  /// "lz", "logwriter".
  chaos::Injector& chaos() { return *chaos_; }

  /// Serializes every reconfiguration (failover, restart, monitor
  /// auto-recovery). Public so the monitor and tests can hold it across
  /// multi-step reconfigurations.
  sim::Mutex& reconfig_mutex() { return *reconfig_mu_; }

  /// Bumped after every completed reconfiguration; stale actors compare
  /// epochs to detect that the topology moved under them.
  uint64_t config_epoch() const { return config_epoch_; }
  bool stopping() const { return stopping_; }

  /// Attach and start the Service-Fabric-style failure detector +
  /// auto-recovery loop. Call after Start(); returns the monitor.
  ClusterMonitor* EnableMonitor();
  ClusterMonitor* monitor() { return monitor_.get(); }

  /// Fault-plan hooks: kill a tier (VM death). The dead object keeps its
  /// slot until a reconfiguration (Failover / monitor) replaces it.
  void CrashPrimary();
  void CrashSecondary(int idx);
  void CrashPageServer(int p);

  /// Callback bundle wiring chaos::SchedulePlan to this deployment.
  chaos::FaultTargets ChaosTargets();

  /// The server currently serving partition `p` (main or promoted
  /// replica), as the RBIO router sees it.
  pageserver::PageServer* ServingPageServer(PartitionId p);

  /// Restart a crashed Page Server in place: reseed caches from its
  /// XStore checkpoint + log replay, then re-point the router at it.
  sim::Task<Status> RecoverPageServer(PartitionId p);

  /// Live partition migration (fleet): bring up a replacement Page
  /// Server for `p` at `binding` — reseeded from the partition's XStore
  /// checkpoint (a forced checkpoint first bounds its replay window),
  /// warmed and caught up on the log — while the incumbent keeps
  /// serving; then swap the router and bump the config epoch. A
  /// migration is a bounded-MTTR "failover" to a server that was never
  /// sick: the only tenant-visible window is the cutover itself (stale
  /// in-flight requests fail Unavailable at the stopped incumbent and
  /// retry against the fresh route). If the replacement dies mid-build
  /// the migration aborts with the incumbent still serving — routes are
  /// never left broken. Returns the new serving server.
  sim::Task<Result<pageserver::PageServer*>> MigratePartition(
      PartitionId p, const PsHostBinding& binding);

  /// Chaos site of partition `p`'s main server (fleet host site when
  /// placed by ps_host, site_prefix + "ps-<p>" otherwise).
  std::string PageServerSite(PartitionId p) const;

  /// XStore blob for partition `p`'s data, namespaced for shared pools.
  std::string PartitionBlobName(PartitionId p) const {
    return opts_.blob_namespace + pageserver::PageServer::BlobName(p);
  }

  /// Drop a dead Secondary from the deployment (monitor replace path).
  /// The object is parked, not destroyed — in-flight coroutines of the
  /// dead incarnation must be allowed to observe their epoch fence.
  void RemoveSecondary(int idx);

  /// Failover/RestartPrimary bodies for callers that already hold
  /// reconfig_mutex() (the monitor's recovery path composes these with
  /// election under one critical section).
  sim::Task<Status> FailoverLocked(int idx);
  sim::Task<Status> RestartPrimaryLocked();

  // ----- Workflows (§5).

  /// Emit a checkpoint record on the primary and persist its LSN in the
  /// control blob (the control-plane "boot page" in XStore).
  sim::Task<Status> Checkpoint();

  /// Distributed checkpoint (§5): all Page Servers checkpoint their
  /// partitions in parallel, then the primary's checkpoint record is
  /// logged and the control state persisted.
  sim::Task<Status> CheckpointAll();

  /// Re-read the persisted control state (a brand-new control plane
  /// taking over the deployment would start here).
  sim::Task<Result<Lsn>> LoadControlCheckpointLsn();

  /// Kill the Primary and promote Secondary `idx` (default 0). The old
  /// Primary object is destroyed; no data is lost (statelessness).
  sim::Task<Status> Failover(int idx = 0);

  /// Restart a crashed Primary in place (warm RBPEX restart, §3.3).
  sim::Task<Status> RestartPrimary();

  /// Spin up one more read Secondary. O(1): no data copy; the cache
  /// fills on demand.
  sim::Task<Result<compute::ComputeNode*>> AddSecondary();

  /// Secondary with custom options (e.g. a different T-shirt size).
  sim::Task<Result<compute::ComputeNode*>> AddSecondaryWithOptions(
      const compute::ComputeOptions& copts);

  /// Read replica in another region (§6 geo-replication): page fetches
  /// and log shipping pay `rtt_us` of cross-region latency.
  sim::Task<Result<compute::ComputeNode*>> AddGeoSecondary(SimTime rtt_us);

  /// Serverless scale up/down (§5): bring up a Secondary with the new
  /// core count and fail over to it — O(1) regardless of database size.
  sim::Task<Status> ResizeCompute(int new_cores);

  /// Hot-standby replica of a partition's Page Server (§6, "a second way
  /// to add a Page Server"). It consumes the same filtered log stream
  /// and checkpoints to its own blob.
  sim::Task<Status> AddPageServerReplica(PartitionId partition);

  /// Fail a partition over to its replica: near-zero MTTR because the
  /// replica is already warm (§6).
  sim::Task<Status> FailoverPageServer(PartitionId partition);

  pageserver::PageServer* page_server_replica(PartitionId partition) {
    auto it = ps_replicas_.find(partition);
    return it == ps_replicas_.end() ? nullptr : it->second.get();
  }

  /// Constant-time backup of the whole database: checkpoint everywhere,
  /// snapshot every partition blob (no data copied).
  sim::Task<Result<BackupHandle>> Backup();

  /// Point-in-time restore: materialize a *new* set of Page Servers (and
  /// a new Primary) from the backup snapshots plus the log range
  /// [backup, target_lsn). The restored deployment is returned as a new
  /// Deployment sharing this cluster's XStore and XLOG (the log archive
  /// is the same log). target_lsn must be within (backup_lsn,
  /// durable_end].
  sim::Task<Result<std::unique_ptr<Deployment>>> PointInTimeRestore(
      const BackupHandle& backup, Lsn target_lsn);

 private:
  // Private constructor used by PITR: attach to existing storage tiers.
  Deployment(sim::Simulator& sim, const DeploymentOptions& options,
             Deployment* parent, const std::string& blob_suffix);

  sim::Task<Status> StartPageServers();
  std::string LogWriterSite() const { return opts_.site_prefix + "logwriter"; }
  std::string NextComputeSite() {
    return opts_.site_prefix + "compute-" +
           std::to_string(compute_serial_++);
  }
  // Build a partition's server options (shared by bootstrap, recovery,
  // and migration): namespaced blob, host binding, partition map.
  pageserver::PageServerOptions MakePsOptions(PartitionId p,
                                              const PsHostBinding& binding);
  compute::PageServerRouter* compute_router() {
    return opts_.compute_router != nullptr ? opts_.compute_router
                                           : router_.get();
  }

  // Complete a reconfiguration: bump the config epoch and clear every
  // live compute node's kOverloaded scan backoffs — an endpoint name may
  // now resolve to a different server (a replica promoted, a reseeded
  // server), whose load the old backoff says nothing about.
  void BumpConfigEpoch();

  sim::Simulator& sim_;
  DeploymentOptions opts_;

  std::unique_ptr<xstore::XStore> owned_xstore_;
  xstore::XStore* xstore_;
  std::unique_ptr<xlog::LandingZone> lz_;
  std::unique_ptr<xlog::XLogProcess> owned_xlog_;
  xlog::XLogProcess* xlog_;
  std::unique_ptr<xlog::XLogClient> client_;
  std::unique_ptr<compute::PageServerRouter> router_;
  std::vector<std::unique_ptr<pageserver::PageServer>> page_servers_;
  // Chaos site each partition's main server is attached under (fleet
  // migrations move a partition between host sites).
  std::vector<std::string> ps_sites_;
  // Migrated-away incumbents, parked like dead compute nodes: in-flight
  // requests of the old incarnation must unwind against a live object.
  std::vector<std::unique_ptr<pageserver::PageServer>> ps_graveyard_;
  std::map<PartitionId, std::unique_ptr<pageserver::PageServer>>
      ps_replicas_;
  std::unique_ptr<compute::ComputeNode> primary_;
  std::vector<std::unique_ptr<compute::ComputeNode>> secondaries_;
  // Dead nodes removed from the topology but kept alive: their crashed
  // incarnations' coroutines unwind against the epoch fence, never a
  // destroyed object.
  std::vector<std::unique_ptr<compute::ComputeNode>> graveyard_;

  std::unique_ptr<chaos::Injector> owned_chaos_;
  chaos::Injector* chaos_ = nullptr;
  std::unique_ptr<sim::Mutex> reconfig_mu_;
  std::unique_ptr<ClusterMonitor> monitor_;
  uint64_t config_epoch_ = 0;
  int compute_serial_ = 0;
  bool stopping_ = false;

  Lsn last_checkpoint_lsn_ = engine::kLogStreamStart;
  std::string blob_suffix_;  // PITR restores use fresh blob names
  int restores_ = 0;         // PITR restores made from this deployment
  bool restored_ = false;    // true for PITR deployments (frozen log)
};

}  // namespace service
}  // namespace socrates
