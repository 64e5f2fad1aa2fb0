// ComputeNode: a Socrates Compute-tier node (paper §4.4, §4.5).
//
// One class plays both roles:
//  * Primary — processes read/write transactions through the engine;
//    produces log into the attached LogSink (the XLogClient). It keeps no
//    full copy of the database: the buffer pool caches hot pages, and
//    misses go through GetPage@LSN to Page Servers. The LSN for a fetch
//    comes from the **evicted-LSN map**: a bounded hash map storing, per
//    bucket, the highest pageLSN of any page evicted into that bucket —
//    conservative (a colliding page may wait a little longer at the Page
//    Server) but always safe (§4.4).
//  * Secondary — consumes the complete log stream from XLOG, applying
//    records only to locally cached pages (the "ignore uncached" policy,
//    §4.5). The race between log apply and an in-flight GetPage is closed
//    by registering the fetch with the applier and draining the queued
//    records into the fetched image. Read-only transactions run at the
//    applied-commit snapshot.
//
// Failover (§5): Promote() turns a Secondary into a Primary once it has
// applied all hardened log; RecoverPrimary() restarts a crashed Primary
// from its RBPEX cache plus the hardened log tail (§3.3 warm restart).

#pragma once

#include <map>
#include <memory>
#include <vector>

#include "chaos/chaos.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/buffer_pool.h"
#include "engine/redo.h"
#include "engine/txn_engine.h"
#include "pageserver/page_server.h"
#include "rbio/rbio.h"
#include "sim/cpu.h"
#include "xlog/log_block.h"
#include "xlog/log_consumer.h"
#include "xlog/xlog_process.h"

namespace socrates {
namespace compute {

/// Routes pages to the Page Server(s) owning their partition: one main
/// server plus any number of hot-standby replicas (§6). The RBIO client
/// picks among them by observed latency and fails over on outages.
///
/// ServerFor/EndpointsFor are virtual so a fleet gateway can interpose:
/// a multi-tenant router resolves pages to per-tenant gateway ports
/// instead of Page Servers directly (src/fleet/gateway.h), and the
/// compute tier never knows the difference.
class PageServerRouter {
 public:
  explicit PageServerRouter(xlog::PartitionMap pmap) : pmap_(pmap) {}
  virtual ~PageServerRouter() = default;

  void Add(PartitionId partition, pageserver::PageServer* server) {
    servers_[partition] = server;
  }
  void AddReplica(PartitionId partition, pageserver::PageServer* server) {
    replicas_[partition].push_back(server);
  }
  void Remove(PartitionId partition) { servers_.erase(partition); }

  virtual pageserver::PageServer* ServerFor(PageId page) const {
    auto it = servers_.find(pmap_.PartitionOf(page));
    return it == servers_.end() ? nullptr : it->second;
  }

  /// RBIO endpoints for the partition owning `page`: main first, then
  /// replicas.
  virtual std::vector<rbio::Endpoint> EndpointsFor(PageId page) const {
    std::vector<rbio::Endpoint> out;
    PartitionId part = pmap_.PartitionOf(page);
    auto it = servers_.find(part);
    if (it != servers_.end()) {
      out.push_back(rbio::Endpoint{it->second,
                                   "ps-" + std::to_string(part)});
    }
    auto rit = replicas_.find(part);
    if (rit != replicas_.end()) {
      int i = 0;
      for (pageserver::PageServer* r : rit->second) {
        out.push_back(rbio::Endpoint{
            r, "ps-" + std::to_string(part) + "-r" + std::to_string(i++)});
      }
    }
    return out;
  }

  const xlog::PartitionMap& partition_map() const { return pmap_; }
  size_t size() const { return servers_.size(); }

 private:
  xlog::PartitionMap pmap_;
  std::map<PartitionId, pageserver::PageServer*> servers_;
  std::map<PartitionId, std::vector<pageserver::PageServer*>> replicas_;
};

/// Bounded-memory conservative map pageId -> highest evicted pageLSN.
class EvictedLsnMap {
 public:
  explicit EvictedLsnMap(size_t buckets = 1 << 16)
      : buckets_(buckets, kInvalidLsn) {}

  void Update(PageId page, Lsn lsn) {
    Lsn& slot = buckets_[Bucket(page)];
    if (lsn > slot) slot = lsn;
  }
  Lsn Get(PageId page) const { return buckets_[Bucket(page)]; }
  void Clear() { buckets_.assign(buckets_.size(), kInvalidLsn); }

 private:
  size_t Bucket(PageId page) const {
    // Fibonacci hashing: pages are sequential, so mix the bits.
    return (page * 11400714819323198485ull) % buckets_.size();
  }
  std::vector<Lsn> buckets_;
};

/// How ScanWhere plans a filtered scan.
enum class PushdownPlan : uint8_t {
  /// The residency-aware cost planner picks local or pushdown per range
  /// (Engine::ScanWhere).
  kCost,
  /// Never push: every scan fetches leaves via GetPage@LSN.
  kPages,
  /// Push every eligible scan (all but aggregates over the transaction's
  /// own writes); benches and tests use it to force the wire path.
  kPush,
};

struct ComputeOptions {
  int cpu_cores = 8;
  size_t mem_pages = 4096;
  size_t ssd_pages = 16384;  // RBPEX
  /// False degrades RBPEX to a plain (pre-Socrates) buffer-pool
  /// extension whose contents die with the process — the §3.3 ablation.
  bool rbpex_recoverable = true;
  sim::LatencyModel rpc_latency =
      sim::DeviceProfile::IntraDcNetwork().read;
  /// One-way latency added per XLOG pull round (log shipping distance).
  /// Intra-DC by default; geo-replicas (§6) set a cross-region profile.
  sim::LatencyModel pull_latency = sim::LatencyModel::Zero();
  /// B+-tree sequential-scan readahead: max prefetch window in leaves
  /// (ramps 2 → this on confirmed sequential access, collapses on a
  /// break; 0 disables and reproduces the serial scan exactly). Safe on
  /// Secondaries too — prefetch misses go through RemoteFetcher and thus
  /// the §4.5 pending-fetch registration.
  uint32_t scan_readahead = 32;
  /// After RecoverPrimary / Promote, promote the recovered RBPEX tier's
  /// MRU prefix into memory in the background (§3.3: failover resumes at
  /// warm-cache speed without waiting for demand misses).
  bool warmup_after_recovery = true;
  /// How ScanWhere plans filtered scans (computation pushdown, RBIO
  /// kScanRange); plain Scan and Get are never affected.
  PushdownPlan pushdown_plan = PushdownPlan::kCost;
  /// Simulated RBIO wire bandwidth in MB/s for transfer-time accounting
  /// on request/response legs (0 = infinite — the historical timing,
  /// bit-identical traces).
  double rbio_wire_mb_per_s = 0;
  /// Chaos injection: the deployment's fault hub and the node's network
  /// site (unique per node, stable across role changes). The RBIO client
  /// keys link faults on (this site, endpoint name).
  chaos::SitePort chaos;

  /// A Secondary in another region (§6 geo-replication): page fetches
  /// and log shipping both pay the cross-region round trip.
  static ComputeOptions GeoReplica(SimTime rtt_us) {
    ComputeOptions o;
    o.rpc_latency = sim::LatencyModel::LogNormal(
        static_cast<double>(rtt_us), 0.1, rtt_us / 2, rtt_us * 20);
    o.pull_latency = o.rpc_latency;
    return o;
  }
};

class ComputeNode {
 public:
  enum class Role { kPrimary, kSecondary };

  /// `sink` is required for kPrimary, ignored for kSecondary (until
  /// Promote). `xlog` is required for kSecondary (log consumption) and
  /// used by Primary recovery.
  ComputeNode(sim::Simulator& sim, Role role, PageServerRouter* router,
              xlog::XLogProcess* xlog, engine::LogSink* sink,
              const ComputeOptions& options);
  ~ComputeNode();

  /// Primary, fresh database: create the root and write the first
  /// checkpoint.
  sim::Task<Status> BootstrapPrimary();

  /// Secondary: start consuming the log stream.
  sim::Task<Status> StartSecondary();

  /// Primary restart after a crash: recover RBPEX (discarding anything
  /// past `durable_end`), replay hardened log [replay_from, durable_end)
  /// over the cache, restore counters. `replay_from` is the LSN of the
  /// last checkpoint record. ADR-style: pure redo, bounded by the
  /// checkpoint interval (§3.2).
  sim::Task<Status> RecoverPrimary(Lsn replay_from, Lsn durable_end);

  /// Secondary -> Primary: wait until all hardened log (`durable_end`)
  /// is applied, attach the sink, restore counters (§5 failover).
  sim::Task<Status> Promote(engine::LogSink* sink, Lsn durable_end);

  /// Emit a checkpoint record (Primary). Returns its LSN — the control
  /// plane persists it as the recovery replay point.
  sim::Task<Result<Lsn>> LogCheckpoint();

  /// Process/VM crash: memory state lost; recoverable RBPEX survives.
  void Crash();

  /// False between Crash() and the next successful recovery/promotion —
  /// the liveness bit the cluster monitor's heartbeats read. The dead
  /// object stays in the deployment until reconfiguration replaces it,
  /// exactly like a dead VM keeps its slot until the fabric acts.
  bool alive() const { return alive_; }
  const std::string& chaos_site() const { return opts_.chaos.site(); }

  engine::Engine* engine() { return engine_.get(); }
  engine::BufferPool* pool() { return pool_.get(); }
  sim::CpuResource& cpu() { return *cpu_; }
  engine::RedoApplier* applier() { return applier_.get(); }
  Lsn applied_lsn() const { return applier_->applied_lsn().value(); }
  uint64_t remote_fetches() const { return remote_fetches_; }
  /// End-to-end GetPage@LSN latency seen by this node, including any
  /// WaitApplied stall on the serving Page Server.
  const Histogram& remote_fetch_us() const { return remote_fetch_us_; }
  rbio::RbioClient& rbio_client() { return *rbio_; }

 private:
  class RemoteFetcher;
  class PushdownScanner;

  sim::Simulator& sim_;
  Role role_;
  PageServerRouter* router_;
  xlog::XLogProcess* xlog_;
  engine::LogSink* sink_;
  ComputeOptions opts_;

  std::unique_ptr<sim::CpuResource> cpu_;
  std::unique_ptr<rbio::RbioClient> rbio_;
  std::unique_ptr<RemoteFetcher> fetcher_;
  std::unique_ptr<PushdownScanner> scanner_;
  std::unique_ptr<engine::BufferPool> pool_;
  std::unique_ptr<engine::RedoApplier> applier_;
  std::unique_ptr<engine::Engine> engine_;
  EvictedLsnMap evicted_map_;

  Random rpc_rng_;
  xlog::LogConsumer consumer_;
  bool alive_ = true;
  // All fetches use at least this LSN; set to the durable log end after
  // a restart/promotion (the evicted-LSN map did not survive).
  Lsn recovery_floor_ = kInvalidLsn;
  uint64_t remote_fetches_ = 0;
  Histogram remote_fetch_us_;
};

}  // namespace compute
}  // namespace socrates
