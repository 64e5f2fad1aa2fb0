// Passive span recorders for the traced run. Each wrapper sits on a
// public seam of the program and times the calls that cross it in
// simulated time:
//  * TracingLogSink       — engine::LogSink around the XLogClient
//                           (Engine::SetSink): commit-wait spans;
//  * TracingScanner       — engine::RemoteScanner around the compute
//                           node's pushdown scanner (Engine::SetRemoteScanner);
//  * TracingRouter/Server — a compute::PageServerRouter handed to the
//                           deployment as compute_router, resolving the
//                           same "ps-<p>" endpoints to rbio::RbioServer
//                           wrappers that time each message by type.
// A wrapper only co_awaits the wrapped call (symmetric transfer), so it
// schedules no event and adds no simulated time: a traced run executes
// the same events as an untraced one. Spans of one request are not
// linked; they are aggregated per layer.

#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rbio/rbio.h"
#include "service/deployment.h"

namespace perfbench {

using socrates::Lsn;
using socrates::PageId;
using socrates::PartitionId;
using socrates::SimTime;
using socrates::Status;

/// Span and sample sinks shared by the wrappers. Spans are recorded only
/// while `active` (the measurement window) and pool across rounds; `sim`
/// and `dep` point at the current round's simulator and deployment.
struct Tracer {
  socrates::sim::Simulator* sim = nullptr;
  socrates::service::Deployment* dep = nullptr;
  bool active = false;
  std::vector<double> commit_wait_us;
  std::vector<double> scan_leaves_us;
  // Page-Server handler spans by RBIO message type.
  std::vector<double> getpage_us;
  std::vector<double> batch_us;
  std::vector<double> scan_us;
  // Applied-log lag of the slowest Page Server, sampled whenever a span
  // ends (no sampler events of its own).
  std::vector<double> apply_lag_kb;

  SimTime Now() const { return sim->now(); }

  void SampleApplyLag() {
    Lsn hardened = dep->log_client().hardened_lsn();
    Lsn slowest = hardened;
    for (int p = 0; p < dep->num_page_servers(); p++) {
      slowest = std::min(slowest, dep->page_server(p)->applied_lsn().value());
    }
    apply_lag_kb.push_back(static_cast<double>(hardened - slowest) / 1024.0);
  }
};

class TracingLogSink : public socrates::engine::LogSink {
 public:
  TracingLogSink(socrates::engine::LogSink* inner, Tracer* t)
      : inner_(inner), t_(t) {}

  Lsn Append(const socrates::engine::LogRecord& rec) override {
    return inner_->Append(rec);
  }
  Lsn end_lsn() const override { return inner_->end_lsn(); }
  Lsn hardened_lsn() const override { return inner_->hardened_lsn(); }

  socrates::sim::Task<Status> WaitHardened(Lsn lsn) override {
    SimTime start = t_->Now();
    Status s = co_await inner_->WaitHardened(lsn);
    if (t_->active) {
      t_->commit_wait_us.push_back(static_cast<double>(t_->Now() - start));
      t_->SampleApplyLag();
    }
    co_return s;
  }

 private:
  socrates::engine::LogSink* inner_;
  Tracer* t_;
};

class TracingScanner : public socrates::engine::RemoteScanner {
 public:
  TracingScanner(socrates::engine::RemoteScanner* inner, Tracer* t)
      : inner_(inner), t_(t) {}

  bool Enabled() const override { return inner_->Enabled(); }
  double MaxSelectivity() const override { return inner_->MaxSelectivity(); }
  socrates::engine::PushdownCostModel CostModel() const override {
    return inner_->CostModel();
  }

  socrates::sim::Task<socrates::Result<socrates::engine::RemoteScanChunk>>
  ScanLeaves(PageId start_leaf,
             const socrates::engine::RemoteScanSpec& spec) override {
    SimTime start = t_->Now();
    auto chunk = co_await inner_->ScanLeaves(start_leaf, spec);
    if (t_->active) {
      t_->scan_leaves_us.push_back(static_cast<double>(t_->Now() - start));
    }
    co_return chunk;
  }

 private:
  socrates::engine::RemoteScanner* inner_;
  Tracer* t_;
};

class TracingServer : public socrates::rbio::RbioServer {
 public:
  TracingServer(socrates::rbio::RbioServer* inner, Tracer* t)
      : inner_(inner), t_(t) {}

  socrates::sim::Task<socrates::Result<std::string>> HandleRbio(
      const std::string& frame) override {
    SimTime start = t_->Now();
    socrates::rbio::MessageType type = socrates::rbio::PeekMessageType(frame);
    auto resp = co_await inner_->HandleRbio(frame);
    if (t_->active) {
      double us = static_cast<double>(t_->Now() - start);
      switch (type) {
        case socrates::rbio::MessageType::kGetPage:
        case socrates::rbio::MessageType::kGetPageRange:
          t_->getpage_us.push_back(us);
          break;
        case socrates::rbio::MessageType::kGetPageBatch:
          t_->batch_us.push_back(us);
          break;
        case socrates::rbio::MessageType::kScanRange:
          t_->scan_us.push_back(us);
          break;
      }
      t_->SampleApplyLag();
    }
    co_return resp;
  }

 private:
  socrates::rbio::RbioServer* inner_;
  Tracer* t_;
};

/// Resolves pages exactly as the deployment's own router does (the
/// serving Page Server of the owning partition, endpoint "ps-<p>"), but
/// hands out TracingServer wrappers. One wrapper per server object, so
/// endpoint identity is as stable as with the plain router.
class TracingRouter : public socrates::compute::PageServerRouter {
 public:
  TracingRouter(socrates::xlog::PartitionMap pmap, Tracer* t)
      : PageServerRouter(pmap), t_(t) {}

  socrates::pageserver::PageServer* ServerFor(PageId page) const override {
    return t_->dep->ServingPageServer(partition_map().PartitionOf(page));
  }

  std::vector<socrates::rbio::Endpoint> EndpointsFor(
      PageId page) const override {
    PartitionId part = partition_map().PartitionOf(page);
    socrates::pageserver::PageServer* ps = t_->dep->ServingPageServer(part);
    if (ps == nullptr) return {};
    std::unique_ptr<TracingServer>& w = wrappers_[ps];
    if (w == nullptr) w = std::make_unique<TracingServer>(ps, t_);
    return {socrates::rbio::Endpoint{w.get(), "ps-" + std::to_string(part)}};
  }

 private:
  Tracer* t_;
  mutable std::map<socrates::pageserver::PageServer*,
                   std::unique_ptr<TracingServer>>
      wrappers_;
};

}  // namespace perfbench
