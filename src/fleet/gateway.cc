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

Gateway::Gateway(sim::Simulator& sim, TenantDirectory* directory,
                 const GatewayOptions& options)
    : sim_(sim), directory_(directory), opts_(options), cpu_(sim, kCpuCores) {}

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

namespace {

// Shed response: the format-shared [version][status] prefix means this
// decodes as an error GetPage or ScanRange response alike — the
// client's existing overload machinery (backoff + local-plan fallback)
// handles it with no gateway-specific wire format.
std::string EncodeShed(const char* why) {
  return rbio::GetPageBatchResponse{Status::Overloaded(why), {}}.Encode();
}

}  // namespace

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
    port->host_site_ = rec->deployment->PageServerSite(port->partition_);
  }

  const bool is_scan =
      rbio::PeekMessageType(frame) == rbio::MessageType::kScanRange;
  if (is_scan && opts_.scan_hold_off_us > 0) {
    // Bulk yields to interactive: another tenant's point read on this
    // host inside the window means the scan's CPU burst would land on
    // an interactive server. Shed it — the scanner's client falls back
    // to its local plan and backs off.
    auto hp = host_points_.find(port->host_site_);
    if (hp != host_points_.end()) {
      for (const auto& [t, at] : hp->second) {
        if (t != port->tenant_ &&
            sim_.now() < at + opts_.scan_hold_off_us) {
          q.scans_shed_holdoff++;
          frames_shed_++;
          co_return EncodeShed("gateway: host serving interactive");
        }
      }
    }
  }

  if (is_scan) {
    q.scans_forwarded++;
  } else {
    q.points_forwarded++;
    if (opts_.scan_hold_off_us > 0) {
      host_points_[port->host_site_][port->tenant_] = sim_.now();
    }
  }
  frames_forwarded_++;
  co_await cpu_.Consume(kCpuPerFrameUs);
  co_await sim::Delay(sim_, kHopLatencyUs);
  co_return co_await port->server_->HandleRbio(frame);
}

}  // namespace fleet
}  // namespace socrates
