#include "fleet/fleet.h"

namespace socrates {
namespace fleet {

// Shared XStore bandwidth for the whole fleet, in MB/s.
constexpr double kXStoreBandwidthMbS = 400.0;

Fleet::Fleet(sim::Simulator& sim, const FleetOptions& options)
    : sim_(sim), opts_(options) {
  chaos_ = std::make_unique<chaos::Injector>();
  xstore_ = std::make_unique<xstore::XStore>(
      sim, sim::DeviceProfile::XStore(), kXStoreBandwidthMbS);
  xstore_->AttachChaos(chaos_.get(), "xstore");
  for (int h = 0; h < opts_.hosts; h++) {
    auto host = std::make_unique<PageServerHost>();
    host->site = "pshost-" + std::to_string(h);
    host->cpu =
        std::make_unique<sim::CpuResource>(sim, opts_.host_cpu_cores);
    hosts_.push_back(std::move(host));
  }
  gateway_ = std::make_unique<Gateway>(sim, &directory_, opts_.gateway);
}

Fleet::~Fleet() { Stop(); }

sim::Task<Status> Fleet::Start() {
  for (int t = 0; t < opts_.tenants; t++) {
    const TenantId tenant = static_cast<TenantId>(t);
    service::DeploymentOptions d = opts_.tenant;
    d.shared_xstore = xstore_.get();
    d.shared_chaos = chaos_.get();
    d.site_prefix = "t" + std::to_string(t) + "/";
    d.blob_namespace = d.site_prefix;
    d.lz_site =
        "lzhost-" + std::to_string(t % (opts_.lz_hosts > 0
                                            ? opts_.lz_hosts
                                            : 1));
    d.compute_router = gateway_->RouterFor(tenant, d.partition_map);
    // Placement packs a tenant's partitions onto one host, tenants
    // round-robin.
    d.ps_host = [this, tenant](PartitionId p) {
      const int h = static_cast<int>(tenant) % opts_.hosts;
      placement_[{tenant, p}] = h;
      hosts_[h]->residents++;
      return service::PsHostBinding{hosts_[h]->site, hosts_[h]->cpu.get()};
    };
    auto dep = std::make_unique<service::Deployment>(sim_, d);
    directory_.Register(tenant, dep.get());
    SOCRATES_CO_RETURN_IF_ERROR(co_await dep->Start());
    tenants_.push_back(std::move(dep));
  }
  co_return Status::OK();
}

void Fleet::Stop() {
  for (auto& t : tenants_) {
    if (t != nullptr) t->Stop();
  }
}

int Fleet::HostOf(TenantId t, PartitionId p) const {
  auto it = placement_.find({t, p});
  return it == placement_.end() ? -1 : it->second;
}

int Fleet::LeastLoadedHost(int exclude) const {
  int best = -1;
  for (int h = 0; h < num_hosts(); h++) {
    if (h == exclude) continue;
    if (best < 0 || hosts_[h]->residents < hosts_[best]->residents) {
      best = h;
    }
  }
  return best;
}

sim::Task<Status> Fleet::Migrate(TenantId t, PartitionId p, int dst_host) {
  if (t >= tenants_.size() || dst_host < 0 || dst_host >= num_hosts()) {
    co_return Status::InvalidArgument("fleet: no such tenant or host");
  }
  PageServerHost& dst = *hosts_[dst_host];
  service::PsHostBinding binding{dst.site, dst.cpu.get()};
  Result<pageserver::PageServer*> moved =
      co_await tenants_[t]->MigratePartition(p, binding);
  if (!moved.ok()) co_return moved.status();
  const int src = HostOf(t, p);
  if (src >= 0 && hosts_[src]->residents > 0) hosts_[src]->residents--;
  dst.residents++;
  placement_[{t, p}] = dst_host;
  directory_.BumpPlacement(t);
  migrations_++;
  co_return Status::OK();
}

chaos::FaultTargets Fleet::ChaosTargets(TenantId t) {
  // The deployment fills its own sites (host sites for partitions, the
  // tenant's LZ host, its prefixed log writer); the fleet only swaps in
  // the shared XStore site, which every tenant shares.
  chaos::FaultTargets targets = tenants_[t]->ChaosTargets();
  targets.xstore_site = "xstore";
  return targets;
}

}  // namespace fleet
}  // namespace socrates
