#include "chaos/fault_plan.h"

#include <algorithm>

namespace socrates {
namespace chaos {

namespace {

FaultEvent MakeEvent(SimTime at_us, FaultKind kind) {
  FaultEvent e;
  e.at_us = at_us;
  e.kind = kind;
  return e;
}

const char* KindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashPrimary: return "crash_primary";
    case FaultKind::kCrashSecondary: return "crash_secondary";
    case FaultKind::kCrashPageServer: return "crash_page_server";
    case FaultKind::kPartitionPrimaryPs: return "partition_primary_ps";
    case FaultKind::kPartitionLogDelivery: return "partition_log_delivery";
    case FaultKind::kFlakyLink: return "flaky_link";
    case FaultKind::kGrayPageServer: return "gray_page_server";
    case FaultKind::kXStoreOutage: return "xstore_outage";
    case FaultKind::kLZOutage: return "lz_outage";
    case FaultKind::kTransientFailures: return "transient_failures";
  }
  return "unknown";
}

}  // namespace

FaultPlan& FaultPlan::KillPrimary(SimTime at_us) {
  events.push_back(MakeEvent(at_us, FaultKind::kCrashPrimary));
  return *this;
}

FaultPlan& FaultPlan::KillSecondary(SimTime at_us, int index) {
  FaultEvent e = MakeEvent(at_us, FaultKind::kCrashSecondary);
  e.index = index;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::KillPageServer(SimTime at_us, int index) {
  FaultEvent e = MakeEvent(at_us, FaultKind::kCrashPageServer);
  e.index = index;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::PartitionPrimaryFromPageServer(SimTime at_us,
                                                     int index,
                                                     SimTime duration_us) {
  FaultEvent e = MakeEvent(at_us, FaultKind::kPartitionPrimaryPs);
  e.index = index;
  e.duration_us = duration_us;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::PartitionLogDelivery(SimTime at_us,
                                           SimTime duration_us) {
  FaultEvent e = MakeEvent(at_us, FaultKind::kPartitionLogDelivery);
  e.duration_us = duration_us;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::FlakyLink(SimTime at_us, int index, double drop_prob,
                                SimTime delay_us, SimTime duration_us) {
  FaultEvent e = MakeEvent(at_us, FaultKind::kFlakyLink);
  e.index = index;
  e.drop_prob = drop_prob;
  e.delay_us = delay_us;
  e.duration_us = duration_us;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::GrayPageServer(SimTime at_us, int index,
                                     SimTime delay_us,
                                     SimTime duration_us) {
  FaultEvent e = MakeEvent(at_us, FaultKind::kGrayPageServer);
  e.index = index;
  e.delay_us = delay_us;
  e.duration_us = duration_us;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::XStoreOutage(SimTime at_us, SimTime duration_us) {
  FaultEvent e = MakeEvent(at_us, FaultKind::kXStoreOutage);
  e.duration_us = duration_us;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::LZOutage(SimTime at_us, SimTime duration_us) {
  FaultEvent e = MakeEvent(at_us, FaultKind::kLZOutage);
  e.duration_us = duration_us;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::TransientFailures(SimTime at_us, int index,
                                        int count) {
  FaultEvent e = MakeEvent(at_us, FaultKind::kTransientFailures);
  e.index = index;
  e.count = count;
  events.push_back(e);
  return *this;
}

// Shortest window fault; the longest is RandomPlanOptions::max_window_us.
constexpr SimTime kMinWindowUs = 50 * 1000;
// Added latency of a gray Page Server, and loss rate of a flaky link.
constexpr SimTime kGrayDelayUs = 3000;
constexpr double kFlakyDropProb = 0.3;

FaultPlan FaultPlan::Random(uint64_t seed,
                            const RandomPlanOptions& o) {
  ::socrates::Random rng(seed ^ 0xfa017u);
  std::vector<FaultKind> menu;
  if (o.crashes) {
    menu.push_back(FaultKind::kCrashPrimary);
    menu.push_back(FaultKind::kCrashPageServer);
    if (o.num_secondaries > 0) menu.push_back(FaultKind::kCrashSecondary);
  }
  menu.push_back(FaultKind::kPartitionPrimaryPs);
  menu.push_back(FaultKind::kPartitionLogDelivery);
  menu.push_back(FaultKind::kFlakyLink);
  menu.push_back(FaultKind::kGrayPageServer);
  menu.push_back(FaultKind::kXStoreOutage);
  menu.push_back(FaultKind::kLZOutage);
  menu.push_back(FaultKind::kTransientFailures);

  FaultPlan plan;
  if (o.events <= 0) return plan;
  for (int i = 0; i < o.events; i++) {
    FaultEvent e;
    e.at_us = o.start_us + rng.Uniform(std::max<SimTime>(o.horizon_us, 1));
    e.kind = menu[rng.Uniform(menu.size())];
    e.index = o.num_page_servers > 0
                  ? static_cast<int>(rng.Uniform(o.num_page_servers))
                  : 0;
    if (e.kind == FaultKind::kCrashSecondary) {
      e.index = static_cast<int>(
          rng.Uniform(std::max(o.num_secondaries, 1)));
    }
    if (e.IsWindow()) {
      e.duration_us = rng.UniformRange(kMinWindowUs, o.max_window_us);
    }
    if (e.kind == FaultKind::kFlakyLink) {
      e.drop_prob = kFlakyDropProb;
      e.delay_us = 500;
    }
    if (e.kind == FaultKind::kGrayPageServer) e.delay_us = kGrayDelayUs;
    if (e.kind == FaultKind::kTransientFailures) {
      e.count = static_cast<int>(rng.UniformRange(2, 8));
    }
    plan.events.push_back(e);
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.at_us < b.at_us;
            });
  return plan;
}

SimTime FaultPlan::end_us() const {
  SimTime end = 0;
  for (const FaultEvent& e : events) {
    end = std::max(end, e.at_us + e.duration_us);
  }
  return end;
}

std::string FaultPlan::Describe() const {
  std::string out;
  for (const FaultEvent& e : events) {
    out += "t=" + std::to_string(e.at_us) + "us " + KindName(e.kind);
    switch (e.kind) {
      case FaultKind::kCrashSecondary:
      case FaultKind::kCrashPageServer:
      case FaultKind::kPartitionPrimaryPs:
      case FaultKind::kFlakyLink:
      case FaultKind::kGrayPageServer:
      case FaultKind::kTransientFailures:
        out += " idx=" + std::to_string(e.index);
        break;
      default:
        break;
    }
    if (e.IsWindow()) {
      out += " dur=" + std::to_string(e.duration_us) + "us";
    }
    if (e.count > 0) out += " n=" + std::to_string(e.count);
    out += "\n";
  }
  return out;
}

namespace {

// Open a window event: resolve sites now, apply the fault, and schedule
// the heal with the captured names (a failover mid-window must not
// orphan the partition on a renamed primary). The hub counts the open
// windows on each fault, so a window that ends while another on the
// same fault is still open leaves the fault on.
void OpenWindow(sim::Simulator& sim, const FaultEvent& e,
                const FaultTargets& t) {
  Injector* inj = t.injector;
  if (inj == nullptr) return;
  auto primary = [&] {
    return t.primary_site ? t.primary_site() : std::string();
  };
  auto page_server = [&] {
    return t.page_server_site ? t.page_server_site(e.index) : std::string();
  };
  std::string a, b;  // the fault's site, or the two ends of its link
  std::function<void()> heal;
  switch (e.kind) {
    case FaultKind::kPartitionPrimaryPs:
    case FaultKind::kPartitionLogDelivery:
      if (e.kind == FaultKind::kPartitionPrimaryPs) {
        a = primary();
        b = page_server();
      } else {
        a = t.logwriter_site;
        b = kXLogSite;
      }
      inj->SetPartitioned(a, b, true);
      heal = [inj, a, b] { inj->SetPartitioned(a, b, false); };
      break;
    case FaultKind::kFlakyLink:
      a = primary();
      b = page_server();
      inj->SetLink(a, b, e.drop_prob, e.delay_us);
      heal = [inj, a, b] { inj->SetLink(a, b, 0, 0); };
      break;
    case FaultKind::kGrayPageServer:
      a = page_server();
      if (a.empty()) return;
      inj->SetGrayDelay(a, e.delay_us);
      heal = [inj, a] { inj->SetGrayDelay(a, 0); };
      break;
    case FaultKind::kXStoreOutage:
    case FaultKind::kLZOutage:
      a = e.kind == FaultKind::kXStoreOutage ? t.xstore_site : t.lz_site;
      inj->SetOutage(a, true);
      heal = [inj, a] { inj->SetOutage(a, false); };
      break;
    default:
      return;
  }
  const std::string key = std::string(KindName(e.kind)) + "/" + a + "/" + b;
  inj->OpenWindow(key);
  sim.ScheduleAt(e.at_us + e.duration_us, [inj, key, heal] {
    if (inj->CloseWindow(key)) heal();
  });
}

void Fire(sim::Simulator& sim, const FaultEvent& e,
          const FaultTargets& t) {
  switch (e.kind) {
    case FaultKind::kCrashPrimary:
      if (t.crash_primary) t.crash_primary();
      break;
    case FaultKind::kCrashSecondary:
      if (t.crash_secondary) t.crash_secondary(e.index);
      break;
    case FaultKind::kCrashPageServer:
      if (t.crash_page_server) t.crash_page_server(e.index);
      break;
    case FaultKind::kTransientFailures:
      if (t.injector != nullptr && t.page_server_site) {
        t.injector->InjectFailures(t.page_server_site(e.index), e.count);
      }
      break;
    default:
      OpenWindow(sim, e, t);
      break;
  }
}

}  // namespace

void SchedulePlan(sim::Simulator& sim, const FaultPlan& plan,
                  const FaultTargets& targets) {
  for (const FaultEvent& e : plan.events) {
    SimTime at = std::max(e.at_us, sim.now());
    sim.ScheduleAt(at, [&sim, e, targets] { Fire(sim, e, targets); });
  }
}

}  // namespace chaos
}  // namespace socrates
