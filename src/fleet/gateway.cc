#include "fleet/gateway.h"

namespace socrates {
namespace fleet {

sim::Task<Result<std::string>> TenantPort::HandleRbio(
    const std::string& frame) {
  co_return co_await gw_->Forward(this, frame);
}

pageserver::PageServer* TenantRouter::ServerFor(PageId page) const {
  return directory_->Resolve(tenant_, partition_map().PartitionOf(page));
}

std::vector<rbio::Endpoint> TenantRouter::EndpointsFor(PageId page) const {
  TenantPort* port =
      gw_->PortFor(tenant_, partition_map().PartitionOf(page));
  return {rbio::Endpoint{port, port->name()}};
}

// Gateway CPU cores shared by every tenant's frames.
constexpr int kCpuCores = 16;
// Extra network hop through the gateway, and gateway CPU, per frame.
constexpr SimTime kHopLatencyUs = 30;
constexpr SimTime kCpuPerFrameUs = 2;

Gateway::Gateway(sim::Simulator& sim, TenantDirectory* directory)
    : sim_(sim), directory_(directory), cpu_(sim, kCpuCores) {}

compute::PageServerRouter* Gateway::RouterFor(
    TenantId tenant, const xlog::PartitionMap& pmap) {
  auto it = routers_.find(tenant);
  if (it == routers_.end()) {
    it = routers_
             .emplace(tenant, std::make_unique<TenantRouter>(
                                  this, directory_, tenant, pmap))
             .first;
  }
  return it->second.get();
}

TenantPort* Gateway::PortFor(TenantId tenant, PartitionId partition) {
  auto key = std::make_pair(tenant, partition);
  auto it = ports_.find(key);
  if (it == ports_.end()) {
    it = ports_
             .emplace(key,
                      std::make_unique<TenantPort>(this, tenant, partition))
             .first;
  }
  return it->second.get();
}

sim::Task<Result<std::string>> Gateway::Forward(TenantPort* port,
                                                const std::string& frame) {
  TenantRecord* rec = directory_->Lookup(port->tenant_);
  if (rec == nullptr || rec->deployment == nullptr) {
    co_return Result<std::string>(
        Status::Unavailable("gateway: unknown tenant"));
  }
  // Epoch-fenced route cache: any reconfiguration of this tenant bumps
  // the route epoch and forces a re-resolve on next use. The cached
  // server can still go stale *mid-flight* (a migration cuts over while
  // this frame waits on the gateway CPU or hop) — then the stopped
  // incumbent answers Unavailable and the client's retry resolves
  // fresh. Routes are never silently wrong, and never left broken.
  const uint64_t epoch = directory_->RouteEpoch(port->tenant_);
  TenantQos& q = qos_[port->tenant_];
  if (port->server_ == nullptr || port->epoch_ != epoch) {
    pageserver::PageServer* server =
        directory_->Resolve(port->tenant_, port->partition_);
    if (server == nullptr) {
      co_return Result<std::string>(
          Status::Unavailable("gateway: no route for partition"));
    }
    if (port->server_ != nullptr) q.route_refreshes++;
    port->server_ = server;
    port->epoch_ = epoch;
  }

  if (rbio::PeekMessageType(frame) == rbio::MessageType::kScanRange) {
    q.scans_forwarded++;
  } else {
    q.points_forwarded++;
  }
  frames_forwarded_++;
  co_await cpu_.Consume(kCpuPerFrameUs);
  co_await sim::Delay(sim_, kHopLatencyUs);
  co_return co_await port->server_->HandleRbio(frame);
}

}  // namespace fleet
}  // namespace socrates
