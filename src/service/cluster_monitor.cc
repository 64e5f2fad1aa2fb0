#include "service/cluster_monitor.h"

#include <algorithm>

namespace socrates {
namespace service {

namespace {
// The monitor's own network site: link faults against it distort
// detection (a partitioned monitor suspects healthy nodes — by design).
constexpr const char* kMonitorSite = "monitor";
// Warm probes commit into a dedicated table so they never collide with
// workload keys (table ids are 8 bits; 97 is reserved here).
constexpr TableId kWarmProbeTable = 97;
// Warm-phase polling (bounded — never parks on a watermark owned by an
// incarnation that a later recovery might replace).
constexpr SimTime kWarmPollUs = 5 * 1000;
constexpr int kWarmPollLimit = 400;
}  // namespace

ClusterMonitor::ClusterMonitor(sim::Simulator& sim, Deployment* deployment)
    : sim_(sim), deployment_(deployment), stop_ev_(sim) {}

void ClusterMonitor::Start() {
  if (running_) return;
  running_ = true;
  sim::Spawn(sim_, WatchLoop());
}

void ClusterMonitor::Stop() {
  running_ = false;
  stop_ev_.Set();
}

std::vector<ClusterMonitor::Target> ClusterMonitor::Targets() {
  std::vector<Target> out;
  Deployment* d = deployment_;
  if (d->primary() != nullptr) {
    out.push_back(Target{
        TargetKind::kPrimary, d->primary()->chaos_site(), 0, [d] {
          compute::ComputeNode* p = d->primary();
          return p != nullptr && p->alive();
        }});
  }
  for (int i = 0; i < d->num_secondaries(); i++) {
    std::string site = d->secondary(i)->chaos_site();
    out.push_back(Target{TargetKind::kSecondary, site, i, [d, site] {
                           for (int j = 0; j < d->num_secondaries(); j++) {
                             compute::ComputeNode* s = d->secondary(j);
                             if (s->chaos_site() == site) return s->alive();
                           }
                           return false;
                         }});
  }
  for (int p = 0; p < d->num_page_servers(); p++) {
    pageserver::PageServer* serving =
        d->ServingPageServer(static_cast<PartitionId>(p));
    std::string site = serving != nullptr && !serving->chaos_site().empty()
                           ? serving->chaos_site()
                           : "ps-" + std::to_string(p);
    out.push_back(Target{TargetKind::kPageServer, site, p, [d, p] {
                           pageserver::PageServer* s = d->ServingPageServer(
                               static_cast<PartitionId>(p));
                           return s != nullptr && s->running();
                         }});
  }
  return out;
}

sim::Task<> ClusterMonitor::WatchLoop() {
  while (running_) {
    bool stopped = co_await stop_ev_.WaitFor(kHeartbeatIntervalUs);
    if (stopped || !running_ || deployment_->stopping()) break;
    // Fire-and-forget: the probe clock must tick at exactly the
    // heartbeat interval, independent of how long probes to dead nodes
    // take to time out (timeout <= interval keeps rounds ordered).
    for (Target& t : Targets()) {
      sim::Spawn(sim_, ProbeTask(std::move(t)));
    }
  }
}

sim::Task<> ClusterMonitor::ProbeWire(std::string site,
                                      std::function<bool()> alive,
                                      std::shared_ptr<sim::Event> ack) {
  chaos::Injector& inj = deployment_->chaos();
  // Request leg.
  if (inj.Partitioned(kMonitorSite, site) ||
      inj.DropMessage(kMonitorSite, site)) {
    co_return;
  }
  SimTime leg = kProbeRttUs / 2 + inj.LinkDelayUs(kMonitorSite, site);
  co_await sim::Delay(sim_, leg);
  // The node answers only if its process is up and its site is not in
  // an outage window; a gray node answers late.
  if (inj.SiteOut(site) || !alive()) co_return;
  SimTime gray = inj.GrayDelayUs(site);
  if (gray > 0) co_await sim::Delay(sim_, gray);
  // Response leg.
  if (inj.Partitioned(kMonitorSite, site) ||
      inj.DropMessage(kMonitorSite, site)) {
    co_return;
  }
  co_await sim::Delay(sim_, leg);
  ack->Set();
}

sim::Task<> ClusterMonitor::ProbeTask(Target t) {
  stats_.probes_sent++;
  SimTime start = sim_.now();
  auto ack = std::make_shared<sim::Event>(sim_);
  sim::Spawn(sim_, ProbeWire(t.site, t.alive, ack));
  bool ok = co_await ack->WaitFor(kHeartbeatTimeoutUs);
  if (!running_) co_return;
  SimTime rtt = sim_.now() - start;
  Health& h = health_[t.site];
  if (ok) {
    stats_.probes_ok++;
    h.misses = 0;
    h.first_miss_us = 0;
    if (rtt > kGrayLatencyUs) {
      h.gray++;
      stats_.gray_strikes++;
      if (h.gray >= kGrayThreshold && !h.recovering) {
        h.gray = 0;
        Quarantine(t);
      }
    } else {
      h.gray = 0;
    }
    co_return;
  }
  stats_.probes_missed++;
  if (h.misses == 0) h.first_miss_us = start;
  h.misses++;
  if (h.misses >= kSuspicionThreshold && !h.recovering &&
      !deployment_->stopping()) {
    h.recovering = true;
    active_recoveries_++;
    stats_.recoveries_started++;
    sim::Spawn(sim_, Recover(std::move(t), h.first_miss_us, sim_.now()));
  }
}

int ClusterMonitor::SecondaryIndexBySite(const std::string& site) const {
  for (int i = 0; i < deployment_->num_secondaries(); i++) {
    if (deployment_->secondary(i)->chaos_site() == site) return i;
  }
  return -1;
}

sim::Task<> ClusterMonitor::Recover(Target t, SimTime suspected,
                                    SimTime detected) {
  RecoveryRecord rec;
  rec.site = t.site;
  rec.suspected_us = suspected;
  rec.detected_us = detected;
  Lsn warm_target = kInvalidLsn;
  {
    sim::Mutex::Guard g = co_await deployment_->reconfig_mutex().Acquire();
    // Re-validate under the lock: another actor (a manual Failover, an
    // earlier recovery) may have already repaired — or removed — the
    // node this probe suspected.
    if (deployment_->stopping()) {
      rec.action = "none";
    } else {
      switch (t.kind) {
        case TargetKind::kPrimary: {
          compute::ComputeNode* p = deployment_->primary();
          if (p != nullptr && p->alive()) {
            rec.action = "none";
            break;
          }
          // Elect: the alive Secondary with the most applied log loses
          // the least warmth on promotion.
          int best = -1;
          Lsn best_applied = 0;
          for (int i = 0; i < deployment_->num_secondaries(); i++) {
            compute::ComputeNode* s = deployment_->secondary(i);
            if (!s->alive()) continue;
            if (best < 0 || s->applied_lsn() > best_applied) {
              best = i;
              best_applied = s->applied_lsn();
            }
          }
          rec.elected_us = sim_.now();
          Status s;
          if (best >= 0) {
            s = co_await deployment_->FailoverLocked(best);
          } else {
            s = co_await deployment_->RestartPrimaryLocked();
          }
          rec.action = best >= 0 ? "promote-secondary" : "restart-primary";
          rec.ok = s.ok();
          rec.promoted_us = sim_.now();
          break;
        }
        case TargetKind::kSecondary: {
          int idx = SecondaryIndexBySite(t.site);
          if (idx < 0 || deployment_->secondary(idx)->alive()) {
            rec.action = "none";
            break;
          }
          rec.elected_us = sim_.now();
          deployment_->RemoveSecondary(idx);
          rec.action = "replace-secondary";
          Result<compute::ComputeNode*> added =
              co_await deployment_->AddSecondary();
          rec.ok = added.ok();
          rec.promoted_us = sim_.now();
          warm_target = deployment_->durable_end();
          break;
        }
        case TargetKind::kPageServer: {
          PartitionId part = static_cast<PartitionId>(t.index);
          pageserver::PageServer* serving =
              deployment_->ServingPageServer(part);
          if (serving != nullptr && serving->running()) {
            rec.action = "none";
            break;
          }
          rec.elected_us = sim_.now();
          pageserver::PageServer* replica =
              deployment_->page_server_replica(part);
          Status s;
          if (replica != nullptr && replica->running() &&
              replica != serving) {
            rec.action = "failover-ps-replica";
            s = co_await deployment_->FailoverPageServer(part);
          } else {
            rec.action = "reseed-page-server";
            s = co_await deployment_->RecoverPageServer(part);
          }
          rec.ok = s.ok();
          rec.promoted_us = sim_.now();
          warm_target = deployment_->durable_end();
          break;
        }
      }
      rec.config_epoch = deployment_->config_epoch();
    }
  }  // Release the reconfig lock before warming: the warm phase may
     // depend on tiers a *different* queued recovery has yet to repair.
  if (rec.action != "none") {
    if (rec.ok) {
      co_await WarmTarget(t, warm_target);
    } else {
      stats_.recoveries_failed++;
    }
    rec.warmed_us = sim_.now();
    if (t.kind == TargetKind::kPrimary) {
      unavailable_us_ += rec.warmed_us - rec.suspected_us;
    }
    ledger_.push_back(rec);
  }
  Health& h = health_[t.site];
  h.recovering = false;
  h.misses = 0;
  h.first_miss_us = 0;
  active_recoveries_--;
}

sim::Task<> ClusterMonitor::WarmTarget(Target t, Lsn target_lsn) {
  for (int i = 0; i < kWarmPollLimit; i++) {
    if (deployment_->stopping()) co_return;
    bool ready = false;
    switch (t.kind) {
      case TargetKind::kPrimary: {
        // Warm = a probe transaction commits end-to-end (engine, log
        // writer, LZ quorum): the moment writes are truly back.
        compute::ComputeNode* p = deployment_->primary();
        if (p == nullptr || !p->alive()) break;
        engine::Engine* e = p->engine();
        std::unique_ptr<engine::Transaction> txn = e->Begin();
        Status ps = e->Put(txn.get(),
                           engine::MakeKey(kWarmProbeTable, warm_serial_++),
                           Slice("monitor-warm-probe"));
        if (!ps.ok()) break;
        Status cs = co_await e->Commit(txn.get());
        ready = cs.ok();
        break;
      }
      case TargetKind::kSecondary: {
        // The replacement is the newest secondary; warm once its apply
        // stream caught the durable frontier at reconfiguration time.
        int n = deployment_->num_secondaries();
        if (n == 0) break;
        compute::ComputeNode* s = deployment_->secondary(n - 1);
        ready = s->alive() && s->applied_lsn() >= target_lsn;
        break;
      }
      case TargetKind::kPageServer: {
        pageserver::PageServer* serving =
            deployment_->ServingPageServer(static_cast<PartitionId>(t.index));
        ready = serving != nullptr && serving->running() &&
                serving->applied_lsn().value() >= target_lsn;
        break;
      }
    }
    if (ready) co_return;
    co_await sim::Delay(sim_, kWarmPollUs);
  }
}

void ClusterMonitor::Quarantine(const Target& t) {
  // Drain the slow node: clearing its injected latency models routing
  // traffic back to a healthy instance of the site.
  deployment_->chaos().SetGrayDelay(t.site, 0);
  stats_.quarantines++;
  RecoveryRecord rec;
  rec.site = t.site;
  rec.action = "quarantine-gray";
  rec.config_epoch = deployment_->config_epoch();
  rec.suspected_us = rec.detected_us = rec.elected_us = rec.promoted_us =
      rec.warmed_us = sim_.now();
  rec.ok = true;
  ledger_.push_back(rec);
}

}  // namespace service
}  // namespace socrates
