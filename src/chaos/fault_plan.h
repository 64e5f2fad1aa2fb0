// FaultPlan: a seeded scenario DSL over the chaos Injector. A plan is an
// ordered list of fault events on the simulator clock — crashes of any
// tier, network partitions and lossy links, gray-failure latency
// inflation, XStore / landing-zone outage windows, transient-failure
// bursts — built fluently or generated deterministically from a seed.
//
// Plans stay independent of the service layer: crashing a node or
// naming the current Primary's network site is delegated to a
// FaultTargets struct of callbacks that the owner (service::Deployment,
// a test bed, a bench) fills in. Window events resolve their target
// sites when the window OPENS, so a partition of "the primary" keeps
// pointing at the node that was primary at open time even if a failover
// happens mid-window (the matching heal is scheduled with the captured
// names).

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/random.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace socrates {
namespace chaos {

enum class FaultKind : uint8_t {
  kCrashPrimary = 0,
  kCrashSecondary,
  kCrashPageServer,
  /// Window: primary <-> ps-<index> fully partitioned.
  kPartitionPrimaryPs,
  /// Window: the log writer's async block delivery to XLOG is cut
  /// (commits still harden via the LZ; XLOG repairs from the LZ).
  kPartitionLogDelivery,
  /// Window: primary <-> ps-<index> drops each message with `drop_prob`
  /// and adds `delay_us` per direction.
  kFlakyLink,
  /// Window: ps-<index> stays up but serves `delay_us` slower (gray).
  kGrayPageServer,
  kXStoreOutage,  // window
  kLZOutage,      // window
  /// The next `count` RBIO requests at ps-<index> fail Unavailable.
  kTransientFailures,
};

struct FaultEvent {
  SimTime at_us = 0;  // absolute simulator time
  FaultKind kind = FaultKind::kCrashPrimary;
  int index = 0;           // page server / secondary index
  SimTime duration_us = 0;  // window kinds only
  double drop_prob = 0;     // kFlakyLink
  SimTime delay_us = 0;     // kFlakyLink / kGrayPageServer
  int count = 0;            // kTransientFailures

  bool IsWindow() const {
    switch (kind) {
      case FaultKind::kPartitionPrimaryPs:
      case FaultKind::kPartitionLogDelivery:
      case FaultKind::kFlakyLink:
      case FaultKind::kGrayPageServer:
      case FaultKind::kXStoreOutage:
      case FaultKind::kLZOutage:
        return true;
      default:
        return false;
    }
  }
};

/// Callbacks + site names the plan needs from its owner. Any callback
/// may be left empty (the corresponding events become no-ops); sites
/// default to the names service::Deployment registers.
struct FaultTargets {
  Injector* injector = nullptr;
  std::function<std::string()> primary_site;        // resolved at fire time
  std::function<std::string(int)> page_server_site;  // index -> site
  std::function<void()> crash_primary;
  std::function<void(int)> crash_secondary;
  std::function<void(int)> crash_page_server;
  std::string logwriter_site = "logwriter";
  std::string xstore_site = "xstore";
  std::string lz_site = "lz";
};

/// Knobs for FaultPlan::Random. Window faults (partitions, flaky links,
/// gray Page Servers, storage outages) and transient failures are always
/// on the menu; `crashes` lets a harness that drives crash timing itself
/// leave crashes out.
struct RandomPlanOptions {
  SimTime start_us = 100 * 1000;
  SimTime horizon_us = 1500 * 1000;  // events drawn in [start, start+horizon)
  int events = 6;
  int num_page_servers = 1;
  int num_secondaries = 0;
  SimTime max_window_us = 250 * 1000;  // windows last [50 ms, max]
  bool crashes = true;
};

class FaultPlan {
 public:
  std::vector<FaultEvent> events;

  // ----- Fluent builders (times are absolute simulator micros).
  FaultPlan& KillPrimary(SimTime at_us);
  FaultPlan& KillSecondary(SimTime at_us, int index);
  FaultPlan& KillPageServer(SimTime at_us, int index);
  FaultPlan& PartitionPrimaryFromPageServer(SimTime at_us, int index,
                                            SimTime duration_us);
  FaultPlan& PartitionLogDelivery(SimTime at_us, SimTime duration_us);
  FaultPlan& FlakyLink(SimTime at_us, int index, double drop_prob,
                       SimTime delay_us, SimTime duration_us);
  FaultPlan& GrayPageServer(SimTime at_us, int index, SimTime delay_us,
                            SimTime duration_us);
  FaultPlan& XStoreOutage(SimTime at_us, SimTime duration_us);
  FaultPlan& LZOutage(SimTime at_us, SimTime duration_us);
  FaultPlan& TransientFailures(SimTime at_us, int index, int count);

  /// Deterministic random plan: same (seed, options) -> same events.
  static FaultPlan Random(uint64_t seed, const RandomPlanOptions& options);

  /// Simulator time at which the last event (including its window) ends.
  SimTime end_us() const;

  /// Human-readable schedule, one event per line (logs / bench output).
  std::string Describe() const;
};

/// Arm every event of `plan` on the simulator clock against `targets`.
/// Window events schedule their own heal at open time with the site
/// names captured then; a fault stays on until the last overlapping
/// window on it ends. Transient failures become credits at the target
/// Page Server's site. Events whose time is already in the past fire
/// on the next simulator step.
void SchedulePlan(sim::Simulator& sim, const FaultPlan& plan,
                  const FaultTargets& targets);

}  // namespace chaos
}  // namespace socrates
