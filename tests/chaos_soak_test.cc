// Seeded chaos soak: a FaultPlan::Random schedule (crashes of every
// tier, partitions, lossy links, gray latency, storage outage windows)
// runs against a monitored deployment while a workload commits rows.
// The monitor must repair every crash with no manual intervention, and
// every acknowledged commit must be readable once the dust settles.
// Fully deterministic per seed — CI runs one seed per matrix job.

#include <gtest/gtest.h>

#include <map>

#include "chaos/fault_plan.h"
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
    if (++guard > 400000000) break;
  }
  ASSERT_TRUE(done) << "driver task did not finish";
}

class ChaosSoak : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSoak, MonitorKeepsAckedCommitsReadable) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Simulator s;
  DeploymentOptions o;
  o.partition_map.pages_per_partition = 512;
  o.num_page_servers = 2;
  o.num_secondaries = 1;
  o.compute.mem_pages = 48;
  o.compute.ssd_pages = 128;
  o.page_server.checkpoint_interval_us = 150 * 1000;
  Deployment d(s, o);

  chaos::RandomPlanOptions ro;
  ro.num_page_servers = 2;
  ro.num_secondaries = 1;
  ro.events = 6;
  ro.start_us = 150 * 1000;
  ro.horizon_us = 1200 * 1000;
  chaos::FaultPlan plan = chaos::FaultPlan::Random(seed, ro);

  // Split the plan: window/transient events run on the simulator clock
  // under live traffic; crash events are applied by the driver between
  // commits (a VM dies between instructions, not inside the driver's
  // suspended coroutine frame) and repaired by the monitor.
  chaos::FaultPlan windows;
  std::vector<chaos::FaultEvent> crashes;
  for (const chaos::FaultEvent& e : plan.events) {
    switch (e.kind) {
      case chaos::FaultKind::kCrashPrimary:
      case chaos::FaultKind::kCrashSecondary:
      case chaos::FaultKind::kCrashPageServer:
        crashes.push_back(e);
        break;
      default:
        windows.events.push_back(e);
        break;
    }
  }

  std::map<uint64_t, std::string> acked;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    ClusterMonitor* mon = d.EnableMonitor();
    chaos::SchedulePlan(s, windows, d.ChaosTargets());

    const SimTime end = plan.end_us() + 200 * 1000;
    size_t next_crash = 0;
    uint64_t k = 0;
    while (s.now() < end) {
      while (next_crash < crashes.size() &&
             s.now() >= crashes[next_crash].at_us) {
        const chaos::FaultEvent& e = crashes[next_crash++];
        if (e.kind == chaos::FaultKind::kCrashPrimary) {
          d.CrashPrimary();
        } else if (e.kind == chaos::FaultKind::kCrashSecondary) {
          d.CrashSecondary(e.index);
        } else {
          d.CrashPageServer(e.index);
        }
      }
      if (d.primary() != nullptr && d.primary()->alive()) {
        Engine* e = d.primary_engine();
        auto txn = e->Begin();
        std::string val = "s" + std::to_string(seed) + "k" +
                          std::to_string(k);
        (void)e->Put(txn.get(), MakeKey(1, k % 400), val);
        Status cs = co_await e->Commit(txn.get());
        if (cs.ok()) acked[MakeKey(1, k % 400)] = val;
        k++;
      }
      co_await sim::Delay(s, 2000);
    }

    // Convergence: monitor idle, every tier serving.
    for (int i = 0; i < 1000; i++) {
      bool healthy = mon->idle() && d.primary() != nullptr &&
                     d.primary()->alive();
      for (int p = 0; healthy && p < d.num_page_servers(); p++) {
        pageserver::PageServer* serving =
            d.ServingPageServer(static_cast<PartitionId>(p));
        healthy = serving != nullptr && serving->running();
      }
      if (healthy) break;
      co_await sim::Delay(s, 10 * 1000);
    }
    EXPECT_NE(d.primary(), nullptr);
    if (d.primary() == nullptr || !d.primary()->alive()) {
      ADD_FAILURE() << "cluster did not self-heal (seed " << seed << ")";
      d.Stop();
      co_return;
    }
    EXPECT_TRUE(mon->idle());

    // Every acknowledged commit is readable.
    Engine* e = d.primary_engine();
    auto reader = e->Begin(true);
    for (const auto& [key, val] : acked) {
      auto r = co_await e->Get(reader.get(), key);
      EXPECT_TRUE(r.ok()) << "seed " << seed << " key " << key
                          << ": lost acked commit";
      if (r.ok()) {
        EXPECT_EQ(*r, val) << "seed " << seed << " key " << key;
      }
    }
    (void)co_await e->Commit(reader.get());
    EXPECT_GT(acked.size(), 0u);
    d.Stop();
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak, ::testing::Range(1, 9),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace service
}  // namespace socrates
