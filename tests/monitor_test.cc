// ClusterMonitor tests: autonomous detection + recovery of every tier
// (the acceptance scenario), deterministic and bounded detection latency,
// gray-failure quarantine, fault-plan windows and transient credits, and the
// reconfiguration races (Stop() mid-recovery, manual Failover racing the
// monitor's auto-promote, concurrent manual failovers).

#include <gtest/gtest.h>

#include <map>

#include "chaos/fault_plan.h"
#include "rbio/rbio.h"
#include "service/cluster_monitor.h"
#include "service/deployment.h"

namespace socrates {
namespace service {
namespace {

using engine::Engine;
using engine::MakeKey;
using sim::Simulator;
using sim::Spawn;
using sim::Task;

Task<> Wrap(Task<> inner, bool* done) {
  co_await std::move(inner);
  *done = true;
}

template <typename Fn>
void RunSim(Simulator& s, Fn&& fn) {
  bool done = false;
  Spawn(s, Wrap(fn(), &done));
  int guard = 0;
  while (!done && s.Step()) {
    if (++guard > 200000000) break;
  }
  ASSERT_TRUE(done) << "driver task did not finish";
}

DeploymentOptions SmallDeployment(int page_servers = 2,
                                  int secondaries = 1) {
  DeploymentOptions o;
  o.partition_map.pages_per_partition = 256;
  o.num_page_servers = page_servers;
  o.num_secondaries = secondaries;
  o.compute.mem_pages = 64;
  o.compute.ssd_pages = 256;
  o.page_server.mem_pages = 64;
  o.page_server.checkpoint_interval_us = 200 * 1000;
  return o;
}

Task<> LoadRows(Engine* e, uint64_t start, uint64_t n,
                const std::string& prefix) {
  for (uint64_t i = start; i < start + n; i += 8) {
    auto txn = e->Begin();
    for (uint64_t k = i; k < std::min(start + n, i + 8); k++) {
      (void)e->Put(txn.get(), MakeKey(1, k), prefix + std::to_string(k));
    }
    Status s = co_await e->Commit(txn.get());
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

Task<> VerifyRows(Engine* e, uint64_t start, uint64_t n,
                  const std::string& prefix) {
  auto txn = e->Begin(true);
  for (uint64_t k = start; k < start + n; k++) {
    auto v = co_await e->Get(txn.get(), MakeKey(1, k));
    EXPECT_TRUE(v.ok()) << "key " << k << ": " << v.status().ToString();
    if (v.ok()) {
      EXPECT_EQ(*v, prefix + std::to_string(k));
    }
  }
  (void)co_await e->Commit(txn.get());
}

int CountAction(const ClusterMonitor& mon, const std::string& action) {
  int n = 0;
  for (const RecoveryRecord& r : mon.ledger()) {
    if (r.action == action) n++;
  }
  return n;
}

// ---------------------------------------------------------------------
// Acceptance: a seeded plan kills the Primary and one Page Server; the
// monitor, with no manual intervention, promotes the Secondary and
// reseeds the Page Server from XStore; the cluster serves reads and
// writes afterwards.
TEST(MonitorTest, AutoRecoversPrimaryAndPageServerFromPlan) {
  Simulator s;
  Deployment d(s, SmallDeployment(2, 1));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    ClusterMonitor* mon = d.EnableMonitor();
    co_await LoadRows(d.primary_engine(), 0, 200, "v");

    chaos::FaultPlan plan;
    plan.KillPrimary(s.now() + 50 * 1000)
        .KillPageServer(s.now() + 150 * 1000, 0);
    chaos::SchedulePlan(s, plan, d.ChaosTargets());

    // Wait for both recoveries to complete (bounded).
    for (int i = 0; i < 600; i++) {
      if (mon->ledger().size() >= 2 && mon->idle()) break;
      co_await sim::Delay(s, 10 * 1000);
    }
    EXPECT_GE(mon->ledger().size(), 2u);
    EXPECT_TRUE(mon->idle());
    EXPECT_EQ(CountAction(*mon, "promote-secondary"), 1);
    EXPECT_EQ(CountAction(*mon, "reseed-page-server"), 1);

    // The promoted Secondary is the Primary and serves writes + reads.
    EXPECT_NE(d.primary(), nullptr);
    if (d.primary() == nullptr) {
      d.Stop();
      co_return;
    }
    EXPECT_TRUE(d.primary()->alive());
    EXPECT_TRUE(d.page_server(0)->running());
    co_await LoadRows(d.primary_engine(), 200, 50, "v");
    co_await VerifyRows(d.primary_engine(), 0, 250, "v");

    // Every record carries the full MTTR phase split.
    for (const RecoveryRecord& r : mon->ledger()) {
      EXPECT_TRUE(r.ok) << r.site << " " << r.action;
      EXPECT_GE(r.detected_us, r.suspected_us);
      EXPECT_GE(r.elected_us, r.detected_us);
      EXPECT_GE(r.promoted_us, r.elected_us);
      EXPECT_GE(r.warmed_us, r.promoted_us);
    }
    EXPECT_GT(mon->unavailable_us(), 0u);
    d.Stop();
  });
}

// ---------------------------------------------------------------------
// Detection latency is deterministic and bounded: identical runs agree
// exactly; with probes every I and declaration at K consecutive misses
// (each observed T after its send), the latency from death to detection
// lies in [(K-1)*I, K*I + T + I].
SimTime MeasureDetectLatency() {
  Simulator s;
  Deployment d(s, SmallDeployment(1, 1));
  SimTime latency = 0;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    ClusterMonitor* mon = d.EnableMonitor();
    co_await LoadRows(d.primary_engine(), 0, 64, "v");
    co_await sim::Delay(s, 5 * ClusterMonitor::kHeartbeatIntervalUs);
    SimTime killed = s.now();
    d.CrashPrimary();
    for (int i = 0; i < 2000 && mon->ledger().empty(); i++) {
      co_await sim::Delay(s, 1000);
    }
    EXPECT_FALSE(mon->ledger().empty());
    if (!mon->ledger().empty()) {
      latency = mon->ledger()[0].detected_us - killed;
    }
    d.Stop();
  });
  return latency;
}

TEST(MonitorTest, DetectionLatencyIsDeterministicAndBounded) {
  constexpr SimTime kI = ClusterMonitor::kHeartbeatIntervalUs;
  constexpr SimTime kT = ClusterMonitor::kHeartbeatTimeoutUs;
  constexpr SimTime kK = ClusterMonitor::kSuspicionThreshold;
  const SimTime latency = MeasureDetectLatency();
  EXPECT_EQ(latency, MeasureDetectLatency())
      << "identical runs must detect at the exact same simulated instant";
  EXPECT_GE(latency, (kK - 1) * kI);
  EXPECT_LE(latency, kK * kI + kT + kI);
}

// ---------------------------------------------------------------------
// A dead Secondary is replaced without touching the Primary.
TEST(MonitorTest, ReplacesDeadSecondary) {
  Simulator s;
  Deployment d(s, SmallDeployment(1, 2));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    ClusterMonitor* mon = d.EnableMonitor();
    co_await LoadRows(d.primary_engine(), 0, 64, "v");
    d.CrashSecondary(0);
    for (int i = 0; i < 600; i++) {
      if (!mon->ledger().empty() && mon->idle()) break;
      co_await sim::Delay(s, 10 * 1000);
    }
    EXPECT_EQ(CountAction(*mon, "replace-secondary"), 1);
    EXPECT_EQ(d.num_secondaries(), 2);
    EXPECT_TRUE(d.secondary(0)->alive());
    EXPECT_TRUE(d.secondary(1)->alive());
    EXPECT_TRUE(d.primary()->alive());
    d.Stop();
  });
}

// A partition's Page Server fails over to its warm replica when one
// exists — never a reseed.
TEST(MonitorTest, PrefersWarmReplicaOverReseed) {
  Simulator s;
  Deployment d(s, SmallDeployment(2, 0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 64, "v");
    EXPECT_TRUE((co_await d.AddPageServerReplica(1)).ok());
    ClusterMonitor* mon = d.EnableMonitor();
    d.CrashPageServer(1);
    for (int i = 0; i < 600; i++) {
      if (!mon->ledger().empty() && mon->idle()) break;
      co_await sim::Delay(s, 10 * 1000);
    }
    EXPECT_EQ(CountAction(*mon, "failover-ps-replica"), 1);
    EXPECT_EQ(CountAction(*mon, "reseed-page-server"), 0);
    EXPECT_EQ(d.ServingPageServer(1), d.page_server_replica(1));
    co_await VerifyRows(d.primary_engine(), 0, 64, "v");
    d.Stop();
  });
}

// ---------------------------------------------------------------------
// Gray failure: the node answers, but slowly; the monitor quarantines
// it after kGrayThreshold slow probes instead of declaring it dead.
TEST(MonitorTest, QuarantinesGrayPageServer) {
  Simulator s;
  Deployment d(s, SmallDeployment(1, 0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    ClusterMonitor* mon = d.EnableMonitor();
    co_await LoadRows(d.primary_engine(), 0, 32, "v");
    // Slow, not dead: every probe pays more than the gray threshold.
    d.chaos().SetGrayDelay("ps-0", ClusterMonitor::kGrayLatencyUs + 500);
    for (int i = 0; i < 600; i++) {
      if (mon->stats().quarantines > 0) break;
      co_await sim::Delay(s, 10 * 1000);
    }
    EXPECT_EQ(mon->stats().quarantines, 1u);
    EXPECT_EQ(CountAction(*mon, "quarantine-gray"), 1);
    // Quarantine cleared the injected latency; no recovery was run.
    EXPECT_EQ(d.chaos().GrayDelayUs("ps-0"), 0u);
    EXPECT_EQ(mon->stats().recoveries_started, 0u);
    EXPECT_TRUE(d.page_server(0)->running());
    d.Stop();
  });
}

// ---------------------------------------------------------------------
// Stop() is idempotent and safe while a recovery is mid-flight: the
// in-flight reconfiguration aborts at its stopping() check instead of
// reconfiguring a half-torn-down deployment.
TEST(MonitorTest, StopIsIdempotentDuringRecovery) {
  Simulator s;
  Deployment d(s, SmallDeployment(1, 1));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    ClusterMonitor* mon = d.EnableMonitor();
    co_await LoadRows(d.primary_engine(), 0, 64, "v");
    d.CrashPrimary();
    // Wait until the recovery has started, then stop mid-flight.
    for (int i = 0; i < 600 && mon->stats().recoveries_started == 0; i++) {
      co_await sim::Delay(s, 5 * 1000);
    }
    EXPECT_GE(mon->stats().recoveries_started, 1u);
    d.Stop();
    d.Stop();  // second call must be a no-op
    co_await sim::Delay(s, 300 * 1000);  // let everything unwind
    EXPECT_TRUE(d.stopping());
  });
}

// ---------------------------------------------------------------------
// Regression (found while wiring the monitor): Deployment::Failover used
// to bounds-check and dereference primary_ before any serialization. A
// second failover arriving while the first was suspended in Promote()
// dereferenced the null primary_. Both calls must now serialize on the
// reconfig mutex and complete without UB.
TEST(MonitorTest, ConcurrentManualFailoversSerialize) {
  Simulator s;
  Deployment d(s, SmallDeployment(1, 2));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await LoadRows(d.primary_engine(), 0, 64, "v");
    Status s1, s2;
    bool done1 = false, done2 = false;
    Spawn(s, [](Deployment* dep, Status* out, bool* done) -> Task<> {
      *out = co_await dep->Failover(0);
      *done = true;
    }(&d, &s1, &done1));
    Spawn(s, [](Deployment* dep, Status* out, bool* done) -> Task<> {
      *out = co_await dep->Failover(0);
      *done = true;
    }(&d, &s2, &done2));
    for (int i = 0; i < 600 && !(done1 && done2); i++) {
      co_await sim::Delay(s, 10 * 1000);
    }
    EXPECT_TRUE(done1 && done2);
    if (!(done1 && done2)) {
      d.Stop();
      co_return;
    }
    // Serialized: both promotions ran back to back (each consumed one
    // Secondary); the survivors form a healthy cluster.
    EXPECT_TRUE(s1.ok()) << s1.ToString();
    EXPECT_TRUE(s2.ok()) << s2.ToString();
    EXPECT_NE(d.primary(), nullptr);
    if (d.primary() == nullptr) {
      d.Stop();
      co_return;
    }
    EXPECT_TRUE(d.primary()->alive());
    EXPECT_EQ(d.num_secondaries(), 0);
    co_await LoadRows(d.primary_engine(), 64, 16, "v");
    co_await VerifyRows(d.primary_engine(), 0, 80, "v");
    d.Stop();
  });
}

// Manual Failover racing the monitor's auto-promote: exactly one
// promotion happens — the monitor re-validates under the reconfig lock
// and stands down when it finds a healthy Primary.
TEST(MonitorTest, MonitorStandsDownWhenManualFailoverWins) {
  Simulator s;
  Deployment d(s, SmallDeployment(1, 1));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    ClusterMonitor* mon = d.EnableMonitor();
    co_await LoadRows(d.primary_engine(), 0, 64, "v");
    d.CrashPrimary();
    // Give the detector time to suspect, then beat it with a manual
    // failover (it may also win the race — either way, one promotion).
    co_await sim::Delay(s, 15 * 1000);
    Status manual = co_await d.Failover(0);
    for (int i = 0; i < 600 && !mon->idle(); i++) {
      co_await sim::Delay(s, 10 * 1000);
    }
    int promotions = CountAction(*mon, "promote-secondary") +
                     (manual.ok() ? 1 : 0);
    EXPECT_EQ(promotions, 1)
        << "manual=" << manual.ToString()
        << " monitor=" << CountAction(*mon, "promote-secondary");
    EXPECT_NE(d.primary(), nullptr);
    if (d.primary() == nullptr) {
      d.Stop();
      co_return;
    }
    EXPECT_TRUE(d.primary()->alive());
    co_await LoadRows(d.primary_engine(), 64, 16, "v");
    co_await VerifyRows(d.primary_engine(), 0, 80, "v");
    d.Stop();
  });
}

// ---------------------------------------------------------------------
// Fault plans. Two windows on one fault overlap: the fault stays on
// until the later window ends, not until the first one does.
TEST(FaultPlanTest, OverlappingWindowsHealWhenTheLastOneEnds) {
  Simulator s;
  chaos::Injector inj;
  chaos::FaultTargets t;
  t.injector = &inj;
  t.primary_site = [] { return std::string("compute-0"); };
  t.page_server_site = [](int p) { return "ps-" + std::to_string(p); };
  constexpr SimTime kMs = 1000;
  chaos::FaultPlan plan;
  plan.XStoreOutage(100 * kMs, 200 * kMs)  // [100, 300) ms
      .XStoreOutage(200 * kMs, 300 * kMs)  // [200, 500) ms
      .FlakyLink(100 * kMs, 0, 0.3, 500, 150 * kMs)   // [100, 250) ms
      .FlakyLink(150 * kMs, 0, 0.3, 500, 250 * kMs);  // [150, 400) ms
  chaos::SchedulePlan(s, plan, t);

  s.RunUntil(350 * kMs);  // both first windows have ended
  EXPECT_TRUE(inj.SiteOut("xstore"));
  EXPECT_EQ(inj.LinkDelayUs("compute-0", "ps-0"), 500u);
  s.RunUntil(450 * kMs);
  EXPECT_TRUE(inj.SiteOut("xstore"));
  EXPECT_EQ(inj.LinkDelayUs("compute-0", "ps-0"), 0u);
  s.RunUntil(550 * kMs);
  EXPECT_FALSE(inj.SiteOut("xstore"));
}

// A transient-failure burst lands as credits on the Page Server's site:
// the next `count` RBIO frames there fail Unavailable, then it serves.
TEST(FaultPlanTest, TransientFailuresAreCreditsAtThePageServerSite) {
  Simulator s;
  Deployment d(s, SmallDeployment(1, 0));
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    chaos::FaultPlan plan;
    plan.TransientFailures(s.now() + 1000, 0, 3);
    chaos::SchedulePlan(s, plan, d.ChaosTargets());
    co_await sim::Delay(s, 2000);
    EXPECT_EQ(d.chaos().FailuresRemaining("ps-0"), 3);
    const std::string frame =
        rbio::GetPageBatchRequest::Encode({{engine::kRootPageId, 0}});
    for (int i = 0; i < 3; i++) {
      auto raw = co_await d.page_server(0)->HandleRbio(frame);
      EXPECT_TRUE(raw.status().IsUnavailable()) << "frame " << i;
    }
    auto raw = co_await d.page_server(0)->HandleRbio(frame);
    EXPECT_TRUE(raw.ok()) << raw.status().ToString();
    if (raw.ok()) {
      Status served;
      EXPECT_TRUE(rbio::DecodeResponseStatusPrefix(Slice(*raw), &served).ok());
      EXPECT_TRUE(served.ok()) << served.ToString();
    }
    EXPECT_EQ(d.chaos().FailuresRemaining("ps-0"), 0);
    d.Stop();
  });
}

}  // namespace
}  // namespace service
}  // namespace socrates
