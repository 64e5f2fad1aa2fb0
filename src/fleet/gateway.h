// Gateway: the fleet's routing tier. Compute nodes of every tenant send
// their RBIO traffic to per-(tenant, partition) gateway ports instead of
// directly to Page Servers; each port resolves the serving server
// through the TenantDirectory under the current route epoch, applies
// the cross-tenant scan hold-off, and forwards.
//
// Why a port per (tenant, partition) and not one per tenant: the RBIO
// client keys its batch queues, latency EWMAs and scan backoff by
// endpoint *name*. One shared "gw" endpoint would coalesce GetPage
// misses of different partitions into a single kGetPageBatch frame that
// no single Page Server could serve. Port names carry the tenant prefix
// ("t3/gw-ps-0"), so all of that per-endpoint client state — including
// the kOverloaded scan backoff — is scoped (tenant, endpoint) for free:
// tenant 3 tripping a server's admission control never pins tenant 5's
// scans into backoff against the same physical server.
//
// QoS is one cross-tenant rule: bulk yields to interactive. A scan
// bound for a host that forwarded another tenant's point read within
// scan_hold_off_us is shed with kOverloaded, which the tenant's own RBIO
// client converts into a local-plan fallback plus a (tenant, endpoint)
// backoff window. Point reads are never shed. The Page Server's own
// scan admission still acts behind the gateway; its kOverloaded replies
// reach the same per-(tenant, endpoint) client backoff.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "compute/compute_node.h"
#include "fleet/tenant_directory.h"
#include "rbio/rbio.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace socrates {
namespace fleet {

struct GatewayOptions {
  /// Cross-tenant bulk/interactive hold-off: a scan bound for a host
  /// that forwarded *another* tenant's point read within this window is
  /// shed with kOverloaded. The Page Server's own admission control is
  /// reactive — it sheds only once its host is already degraded — so a
  /// scan admitted between two point reads still lands its CPU burst on
  /// top of the next one. The gateway sees every tenant's traffic and
  /// can keep bulk work off an interactive host *before* the collision.
  /// 0 disables the hold-off, and with it all gateway QoS.
  SimTime scan_hold_off_us = 2000;
};

/// Per-tenant QoS counters (read by tests and the bench).
struct TenantQos {
  uint64_t points_forwarded = 0;
  uint64_t scans_forwarded = 0;
  uint64_t scans_shed_holdoff = 0;  // host busy with another tenant's points
  uint64_t route_refreshes = 0;     // re-resolves after an epoch bump
};

class Gateway;

/// RBIO endpoint fronting one (tenant, partition). Caches the resolved
/// server fenced on the route epoch at resolution time.
class TenantPort : public rbio::RbioServer {
 public:
  TenantPort(Gateway* gw, TenantId tenant, PartitionId partition)
      : gw_(gw),
        tenant_(tenant),
        partition_(partition),
        name_("t" + std::to_string(tenant) + "/gw-ps-" +
              std::to_string(partition)) {}

  sim::Task<Result<std::string>> HandleRbio(
      const std::string& frame) override;

  const std::string& name() const { return name_; }
  TenantId tenant() const { return tenant_; }
  PartitionId partition() const { return partition_; }

 private:
  friend class Gateway;
  Gateway* gw_;
  TenantId tenant_;
  PartitionId partition_;
  std::string name_;
  // Route cache, valid only at cached_epoch_.
  pageserver::PageServer* server_ = nullptr;
  uint64_t epoch_ = UINT64_MAX;
  std::string host_site_;  // the server's chaos/host site (hold-off key)
};

/// The router handed to one tenant's compute nodes: every partition
/// resolves to that tenant's gateway port, so all RBIO traffic funnels
/// through the gateway.
class TenantRouter : public compute::PageServerRouter {
 public:
  TenantRouter(Gateway* gw, TenantDirectory* directory, TenantId tenant,
               xlog::PartitionMap pmap)
      : PageServerRouter(pmap),
        gw_(gw),
        directory_(directory),
        tenant_(tenant) {}

  pageserver::PageServer* ServerFor(PageId page) const override;
  std::vector<rbio::Endpoint> EndpointsFor(PageId page) const override;

 private:
  Gateway* gw_;
  TenantDirectory* directory_;
  TenantId tenant_;
};

class Gateway {
 public:
  Gateway(sim::Simulator& sim, TenantDirectory* directory,
          const GatewayOptions& options);

  /// The router for `tenant`'s compute nodes (created on first call).
  compute::PageServerRouter* RouterFor(TenantId tenant,
                                       const xlog::PartitionMap& pmap);

  /// The port fronting (tenant, partition), created on demand.
  TenantPort* PortFor(TenantId tenant, PartitionId partition);

  /// QoS counters for a tenant (created on demand).
  TenantQos& qos(TenantId tenant) { return qos_[tenant]; }

  const GatewayOptions& options() const { return opts_; }

  uint64_t frames_forwarded() const { return frames_forwarded_; }
  uint64_t frames_shed() const { return frames_shed_; }

 private:
  friend class TenantPort;

  // The whole data path: epoch-fenced resolve, scan hold-off, forward.
  sim::Task<Result<std::string>> Forward(TenantPort* port,
                                         const std::string& frame);

  sim::Simulator& sim_;
  TenantDirectory* directory_;
  GatewayOptions opts_;
  sim::CpuResource cpu_;
  std::map<TenantId, std::unique_ptr<TenantRouter>> routers_;
  std::map<std::pair<TenantId, PartitionId>, std::unique_ptr<TenantPort>>
      ports_;
  std::map<TenantId, TenantQos> qos_;
  /// host site -> (tenant -> last point-read forward time). Feeds the
  /// cross-tenant scan hold-off.
  std::map<std::string, std::map<TenantId, SimTime>> host_points_;
  uint64_t frames_forwarded_ = 0;
  uint64_t frames_shed_ = 0;
};

}  // namespace fleet
}  // namespace socrates
