// Fleet: N tenant deployments over shared infrastructure pools — one
// XStore, one chaos fault namespace, a set of Page Server hosts each
// running many tenants' partitions on one shared CPU, and a set of
// landing-zone hosts. The paper's economic argument (§6, §8) is exactly
// this sharing: Page Server and XLOG capacity is pooled across
// databases, so one tenant's idle capacity absorbs another's burst —
// as long as QoS keeps a noisy neighbor from absorbing everyone's.
//
// The fleet owns the control plane: the TenantDirectory (routing truth),
// the Gateway (per-tenant QoS + epoch-fenced routing), placement (which
// host runs which (tenant, partition)), and live migration (move a
// partition to another host with bounded stall, §4.3's reseed path doing
// the heavy lifting).

#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.h"
#include "chaos/fault_plan.h"
#include "fleet/gateway.h"
#include "fleet/tenant_directory.h"
#include "service/deployment.h"
#include "xstore/xstore.h"

namespace socrates {
namespace fleet {

/// One shared Page Server host: a chaos site (an outage takes down every
/// resident partition of every tenant placed here), one CPU shared by
/// all residents, and the count of (tenant, partition) servers placed
/// here.
struct PageServerHost {
  std::string site;
  std::unique_ptr<sim::CpuResource> cpu;
  int residents = 0;
};

struct FleetOptions {
  int tenants = 4;
  int hosts = 2;
  /// Landing-zone hosts; tenant t's LZ lives on "lzhost-<t % lz_hosts>".
  int lz_hosts = 2;
  int host_cpu_cores = 16;
  /// Per-tenant deployment shape (partitions, caches, LZ size...).
  /// Fleet-mode fields (shared_*, site_prefix, blob_namespace, lz_site,
  /// compute_router, ps_host) are overwritten per tenant.
  service::DeploymentOptions tenant;
  GatewayOptions gateway;
};

class Fleet {
 public:
  Fleet(sim::Simulator& sim, const FleetOptions& options);
  ~Fleet();

  /// Bring up every tenant (registered in the directory first, so
  /// gateway ports can resolve as soon as traffic flows).
  sim::Task<Status> Start();
  void Stop();

  // ----- Accessors.
  service::Deployment* tenant(TenantId t) { return tenants_[t].get(); }
  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  TenantDirectory& directory() { return directory_; }
  Gateway& gateway() { return *gateway_; }
  chaos::Injector& chaos() { return *chaos_; }
  xstore::XStore& xstore() { return *xstore_; }
  PageServerHost& host(int h) { return *hosts_[h]; }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  uint64_t migrations() const { return migrations_; }

  /// Host currently running (tenant, partition); -1 if unknown.
  int HostOf(TenantId t, PartitionId p) const;
  /// Host with the fewest resident partitions (excluding `exclude`);
  /// ties break to the lowest index (deterministic).
  int LeastLoadedHost(int exclude = -1) const;

  /// Live-migrate one partition to `dst_host`: the deployment builds a
  /// caught-up replacement there (reseed + log catch-up) and cuts over;
  /// the fleet updates placement, the hosts' resident counts, and the
  /// directory's placement epoch. On failure the incumbent keeps serving
  /// and nothing moves.
  sim::Task<Status> Migrate(TenantId t, PartitionId p, int dst_host);

  /// Chaos callback bundle for one tenant, with fleet-wide sites (the
  /// shared "xstore", the tenant's "lzhost-<i>", host sites for its
  /// partitions).
  chaos::FaultTargets ChaosTargets(TenantId t);

 private:
  sim::Simulator& sim_;
  FleetOptions opts_;
  std::unique_ptr<chaos::Injector> chaos_;
  std::unique_ptr<xstore::XStore> xstore_;
  std::vector<std::unique_ptr<PageServerHost>> hosts_;
  TenantDirectory directory_;
  std::unique_ptr<Gateway> gateway_;
  std::vector<std::unique_ptr<service::Deployment>> tenants_;
  std::map<std::pair<TenantId, PartitionId>, int> placement_;
  uint64_t migrations_ = 0;
};

}  // namespace fleet
}  // namespace socrates
