// ClusterMonitor: the autonomous control plane (paper §5). Socrates
// delegates failure detection and reconfiguration to Azure Service
// Fabric; this is that role inside the deployment:
//
//  * Heartbeats — every kHeartbeatIntervalUs the monitor probes the
//    Primary, each Secondary and each partition's serving Page Server
//    over the simulated network ("monitor" <-> site links go through
//    the chaos injector, so partitions and gray latency distort the
//    detector exactly like real probes).
//  * Lease-based detection — a probe unanswered within
//    kHeartbeatTimeoutUs is a miss; kSuspicionThreshold consecutive
//    misses declare the node dead. Detection latency is therefore
//    deterministic: (threshold-1)*interval + timeout, plus the phase of
//    the probe clock relative to the death (at most one interval).
//  * Auto-recovery — dead Primary: elect the alive Secondary with the
//    highest applied LSN and promote it (no Secondary: warm-restart the
//    Primary in place). Dead Secondary: replace it (O(1), no data
//    copy). Dead Page Server: fail over to its warm replica if one
//    exists, else restart-and-reseed from the XStore checkpoint + log
//    replay. All reconfigurations run under the deployment's reconfig
//    mutex and bump its config epoch.
//  * Gray failures — probes that answer but slower than kGrayLatencyUs
//    accumulate strikes; at kGrayThreshold the node is quarantined (its
//    injected latency is cleared, modelling traffic drained to healthy
//    peers) and the event ledgered.
//  * Availability ledger — every recovery records the MTTR split the
//    bench reports: suspected -> detected -> elected -> promoted ->
//    warmed (warm = a probe transaction commits end-to-end on the new
//    Primary; applied-LSN catch-up for storage tiers).

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/deployment.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace socrates {
namespace service {

/// One completed recovery, with the MTTR phase boundaries.
struct RecoveryRecord {
  std::string site;    // the site that was declared dead / gray
  std::string action;  // promote-secondary | restart-primary |
                       // replace-secondary | failover-ps-replica |
                       // reseed-page-server | quarantine-gray
  uint64_t config_epoch = 0;  // deployment epoch after the action
  SimTime suspected_us = 0;   // first missed probe sent
  SimTime detected_us = 0;    // suspicion threshold crossed
  SimTime elected_us = 0;     // replacement chosen
  SimTime promoted_us = 0;    // reconfiguration complete
  SimTime warmed_us = 0;      // serving verified end-to-end
  bool ok = false;

  SimTime DetectUs() const { return detected_us - suspected_us; }
  SimTime ElectUs() const { return elected_us - detected_us; }
  SimTime PromoteUs() const { return promoted_us - elected_us; }
  SimTime WarmUs() const { return warmed_us - promoted_us; }
  SimTime TotalUs() const { return warmed_us - suspected_us; }
};

struct MonitorStats {
  uint64_t probes_sent = 0;
  uint64_t probes_ok = 0;
  uint64_t probes_missed = 0;
  uint64_t gray_strikes = 0;
  uint64_t quarantines = 0;
  uint64_t recoveries_started = 0;
  uint64_t recoveries_failed = 0;
};

class ClusterMonitor {
 public:
  // Failure detector (see the file comment).
  static constexpr SimTime kHeartbeatIntervalUs = 10 * 1000;
  static constexpr SimTime kHeartbeatTimeoutUs = 5 * 1000;
  /// Consecutive missed probes before a node is declared dead.
  static constexpr int kSuspicionThreshold = 3;
  /// A successful probe slower than this is a gray strike...
  static constexpr SimTime kGrayLatencyUs = 2500;
  /// ...and this many strikes quarantine the node.
  static constexpr int kGrayThreshold = 4;
  /// Baseline probe round trip on a healthy, unimpeded link.
  static constexpr SimTime kProbeRttUs = 200;

  ClusterMonitor(sim::Simulator& sim, Deployment* deployment);

  void Start();
  /// Stops probing; in-flight recoveries abort at their next stopping()
  /// check. Idempotent.
  void Stop();

  /// No recovery currently in flight (tests wait on this before
  /// asserting on the ledger).
  bool idle() const { return active_recoveries_ == 0; }

  const std::vector<RecoveryRecord>& ledger() const { return ledger_; }
  const MonitorStats& stats() const { return stats_; }
  /// Sum of suspected->warmed windows over Primary recoveries: the
  /// write-unavailability the deployment experienced.
  SimTime unavailable_us() const { return unavailable_us_; }

 private:
  enum class TargetKind { kPrimary, kSecondary, kPageServer };
  struct Target {
    TargetKind kind;
    std::string site;
    int index;  // partition for kPageServer; informational otherwise
    std::function<bool()> alive;
  };
  struct Health {
    int misses = 0;
    int gray = 0;
    SimTime first_miss_us = 0;
    bool recovering = false;
  };

  std::vector<Target> Targets();
  sim::Task<> WatchLoop();
  sim::Task<> ProbeTask(Target t);
  sim::Task<> ProbeWire(std::string site, std::function<bool()> alive,
                        std::shared_ptr<sim::Event> ack);
  sim::Task<> Recover(Target t, SimTime suspected, SimTime detected);
  sim::Task<> WarmTarget(Target t, Lsn target_lsn);
  void Quarantine(const Target& t);
  int SecondaryIndexBySite(const std::string& site) const;

  sim::Simulator& sim_;
  Deployment* deployment_;

  bool running_ = false;
  sim::Event stop_ev_;
  std::map<std::string, Health> health_;
  std::vector<RecoveryRecord> ledger_;
  MonitorStats stats_;
  SimTime unavailable_us_ = 0;
  int active_recoveries_ = 0;
  uint64_t warm_serial_ = 0;
};

}  // namespace service
}  // namespace socrates
