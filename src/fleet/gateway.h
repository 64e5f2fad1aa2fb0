// Gateway: the fleet's routing tier. Compute nodes of every tenant send
// their RBIO traffic to per-(tenant, partition) gateway ports instead of
// directly to Page Servers; each port resolves the serving server
// through the TenantDirectory under the current route epoch and
// forwards.
//
// Why a port per (tenant, partition) and not one per tenant: the RBIO
// client keys its batch queues and latency EWMAs by endpoint *name*. One
// shared "gw" endpoint would coalesce GetPage misses of different
// partitions into a single kGetPageBatch frame that no single Page
// Server could serve. Port names carry the tenant prefix ("t3/gw-ps-0"),
// so all of that per-endpoint client state is scoped (tenant, endpoint)
// for free.
//
// The gateway sheds nothing. Cross-tenant QoS lives on the shared host
// CPU: a Page Server's scan evaluation is background work there, so a
// neighbor's scans give every core they hold to a point read that finds
// none free.

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

/// Per-tenant forwarding counters (read by tests and the bench).
struct TenantQos {
  uint64_t points_forwarded = 0;
  uint64_t scans_forwarded = 0;
  uint64_t route_refreshes = 0;  // re-resolves after an epoch bump
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
  Gateway(sim::Simulator& sim, TenantDirectory* directory);

  /// The router for `tenant`'s compute nodes (created on first call).
  compute::PageServerRouter* RouterFor(TenantId tenant,
                                       const xlog::PartitionMap& pmap);

  /// The port fronting (tenant, partition), created on demand.
  TenantPort* PortFor(TenantId tenant, PartitionId partition);

  /// Forwarding counters for a tenant (created on demand).
  TenantQos& qos(TenantId tenant) { return qos_[tenant]; }

  uint64_t frames_forwarded() const { return frames_forwarded_; }

 private:
  friend class TenantPort;

  // The whole data path: epoch-fenced resolve, then forward.
  sim::Task<Result<std::string>> Forward(TenantPort* port,
                                         const std::string& frame);

  sim::Simulator& sim_;
  TenantDirectory* directory_;
  sim::CpuResource cpu_;
  std::map<TenantId, std::unique_ptr<TenantRouter>> routers_;
  std::map<std::pair<TenantId, PartitionId>, std::unique_ptr<TenantPort>>
      ports_;
  std::map<TenantId, TenantQos> qos_;
  uint64_t frames_forwarded_ = 0;
};

}  // namespace fleet
}  // namespace socrates
