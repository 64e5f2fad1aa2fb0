// MTTR & availability: Socrates (autonomous ClusterMonitor) vs HADR,
// replaying the IDENTICAL fault plan against both systems — kill the
// Primary at t=400ms, then kill one storage-redundancy unit at t=900ms
// (a Page Server for Socrates; a Secondary's full local copy for HADR).
//
// For every recovery the MTTR is split into the paper's phases:
//   detect  — failure detector declares the node dead (heartbeat misses)
//   elect   — a replacement is chosen
//   promote — the replacement takes over (catch-up + rewiring)
//   warm    — first end-to-end commit / redundancy fully restored
//
// Socrates detection and recovery run autonomously inside the cluster
// monitor; HADR uses a bench-local detector with the SAME heartbeat
// knobs (10ms interval, 5ms timeout, 3 misses), so the detect phase is
// apples-to-apples and the difference isolates the recovery mechanism:
// promoting a caught-up compute node + reseeding a 1/N partition from
// XStore (Socrates) vs log-drain promotion + O(size-of-data) reseeding
// of a full database copy (HADR).
//
// A pinger commits a probe row every 2ms against whichever node claims
// to be Primary; the availability row reports the fraction of pings
// acked over the whole storm window.

#include <cstring>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "harness.h"
#include "service/cluster_monitor.h"

using namespace socrates;
using namespace socrates::bench;

namespace {

// Full mode loads enough rows that HADR's O(size-of-data) reseed visibly
// dwarfs Socrates' bounded 1/N-partition reseed; smoke keeps CI fast (at
// smoke size the database is so small both reseeds cost about the same —
// the detect phase dominates).
struct Params {
  bool smoke = false;
  uint64_t rows = 20000;
};

struct MttrRow {
  std::string system;
  std::string event;
  double detect_ms = 0;
  double elect_ms = 0;
  double promote_ms = 0;
  double warm_ms = 0;
  double total_ms = 0;
};

struct PingTrace {
  uint64_t ok = 0;
  uint64_t failed = 0;
  SimTime window_us = 0;
};

constexpr SimTime kPingIntervalUs = 2000;
constexpr SimTime kKillPrimaryUs = 400 * 1000;
constexpr SimTime kKillStorageUs = 900 * 1000;
constexpr SimTime kStormEndUs = 1600 * 1000;
// The shared failure detector: HADR's bench-local copy runs the
// monitor's own constants.
using Monitor = service::ClusterMonitor;

// The one fault plan both systems replay.
chaos::FaultPlan StormPlan() {
  chaos::FaultPlan plan;
  plan.KillPrimary(kKillPrimaryUs).KillPageServer(kKillStorageUs, 0);
  return plan;
}

sim::Task<> LoadRows(sim::Simulator& s, engine::Engine* e, uint64_t n) {
  for (uint64_t i = 0; i < n; i += 16) {
    auto txn = e->Begin();
    for (uint64_t k = i; k < std::min(n, i + 16); k++) {
      (void)e->Put(txn.get(), engine::MakeKey(1, k),
                   "row-" + std::to_string(k));
    }
    Status st = co_await e->Commit(txn.get());
    if (!st.ok()) abort();
  }
  co_await sim::Delay(s, 10 * 1000);
}

// Bench-local failure detector for HADR: probe every interval, each
// probe observed RTT later (timeout if dead), dead at K consecutive
// misses — the same math the ClusterMonitor runs internally.
sim::Task<> DetectDeath(sim::Simulator& s, std::function<bool()> alive,
                        SimTime* detected_at) {
  int misses = 0;
  while (true) {
    SimTime sent = s.now();
    bool up = alive();
    co_await sim::Delay(s, up ? Monitor::kProbeRttUs
                              : Monitor::kHeartbeatTimeoutUs);
    if (up) {
      misses = 0;
    } else if (++misses >= Monitor::kSuspicionThreshold) {
      *detected_at = s.now();
      co_return;
    }
    SimTime next = sent + Monitor::kHeartbeatIntervalUs;
    if (s.now() < next) co_await sim::Delay(s, next - s.now());
  }
}

// ---------------------------------------------------------------------
void RunSocrates(const Params& p, std::vector<MttrRow>* rows,
                 PingTrace* trace) {
  sim::Simulator s;
  service::DeploymentOptions o;
  o.partition_map.pages_per_partition = 2048;
  o.num_page_servers = 2;
  o.num_secondaries = 1;
  o.compute.mem_pages = 128;
  o.compute.ssd_pages = 512;
  o.page_server.checkpoint_interval_us = 200 * 1000;
  service::Deployment d(s, o);

  chaos::FaultPlan plan = StormPlan();
  RunSim(s, [&]() -> sim::Task<> {
    if (!(co_await d.Start()).ok()) abort();
    co_await LoadRows(s, d.primary_engine(), p.rows);
    Monitor* mon = d.EnableMonitor();

    // The pinger doubles as the plan executor: crashes land between
    // commits (a VM dies between instructions, never inside the
    // driver's own suspended commit frame).
    SimTime t0 = s.now();
    size_t next_ev = 0;
    uint64_t serial = 0;
    while (s.now() - t0 < kStormEndUs) {
      while (next_ev < plan.events.size() &&
             s.now() - t0 >= plan.events[next_ev].at_us) {
        const chaos::FaultEvent& ev = plan.events[next_ev++];
        if (ev.kind == chaos::FaultKind::kCrashPrimary) {
          d.CrashPrimary();
        } else {
          d.CrashPageServer(ev.index);
        }
      }
      bool ok = false;
      if (d.primary() != nullptr && d.primary()->alive()) {
        engine::Engine* e = d.primary_engine();
        auto txn = e->Begin();
        (void)e->Put(txn.get(), engine::MakeKey(3, serial++ % 64),
                     Slice("ping"));
        ok = (co_await e->Commit(txn.get())).ok();
      }
      if (ok) {
        trace->ok++;
      } else {
        trace->failed++;
      }
      co_await sim::Delay(s, kPingIntervalUs);
    }
    // Converge: both recoveries done.
    for (int i = 0; i < 400; i++) {
      if (mon->idle() && mon->ledger().size() >= 2) break;
      co_await sim::Delay(s, 5 * 1000);
    }
    trace->window_us = s.now() - t0;
    for (const service::RecoveryRecord& r : mon->ledger()) {
      MttrRow row;
      row.system = "socrates";
      row.event = r.action;
      row.detect_ms = r.DetectUs() / 1e3;
      row.elect_ms = r.ElectUs() / 1e3;
      row.promote_ms = r.PromoteUs() / 1e3;
      row.warm_ms = r.WarmUs() / 1e3;
      row.total_ms = r.TotalUs() / 1e3;
      rows->push_back(row);
    }
  });
  d.Stop();
}

// ---------------------------------------------------------------------
void RunHadr(const Params& p, std::vector<MttrRow>* rows,
             PingTrace* trace) {
  sim::Simulator s;
  auto store = std::make_unique<xstore::XStore>(
      s, sim::DeviceProfile::XStore(), 200.0);
  hadr::HadrOptions ho;
  ho.cpu_cores = 8;
  ho.mem_pages = 512;
  // Quorum of 2 (primary + one ack): the cluster keeps committing after
  // it loses a Secondary, matching Socrates' availability-first bar.
  ho.commit_quorum = 2;
  hadr::HadrCluster c(s, store.get(), ho);

  chaos::FaultPlan plan = StormPlan();
  RunSim(s, [&]() -> sim::Task<> {
    if (!(co_await c.Start()).ok()) abort();
    co_await LoadRows(s, c.primary_engine(), p.rows);

    SimTime t0 = s.now();
    bool stop = false;
    // Pinger runs concurrently with detection + recovery so the outage
    // is measured, not assumed.
    sim::Spawn(s, [](sim::Simulator* sp, hadr::HadrCluster* cp,
                     PingTrace* tr, bool* stopped) -> sim::Task<> {
      uint64_t serial = 0;
      while (!*stopped) {
        bool ok = false;
        if (cp->primary_alive()) {
          engine::Engine* e = cp->primary_engine();
          auto txn = e->Begin();
          (void)e->Put(txn.get(), engine::MakeKey(3, serial++ % 64),
                       Slice("ping"));
          ok = (co_await e->Commit(txn.get())).ok();
        }
        if (ok) {
          tr->ok++;
        } else {
          tr->failed++;
        }
        co_await sim::Delay(*sp, kPingIntervalUs);
      }
    }(&s, &c, trace, &stop));

    // --- Event 1: Primary dies; detect -> elect -> promote -> warm.
    co_await sim::Delay(s, kKillPrimaryUs - (s.now() - t0));
    SimTime suspected = s.now();
    c.CrashPrimary();
    SimTime detected = 0;
    co_await DetectDeath(s, [&c] { return c.primary_alive(); }, &detected);
    SimTime elected = s.now();  // static promotion order: secondary 0
    Status fs = co_await c.Failover();
    if (!fs.ok()) abort();
    SimTime promoted = s.now();
    // Warm: first end-to-end commit on the promoted node.
    SimTime warmed = promoted;
    for (int i = 0; i < 2000; i++) {
      engine::Engine* e = c.primary_engine();
      auto txn = e->Begin();
      (void)e->Put(txn.get(), engine::MakeKey(3, 9999), Slice("warm"));
      if ((co_await e->Commit(txn.get())).ok()) {
        warmed = s.now();
        break;
      }
      co_await sim::Delay(s, kPingIntervalUs);
    }
    MttrRow row;
    row.system = "hadr";
    row.event = "promote-secondary";
    row.detect_ms = (detected - suspected) / 1e3;
    row.elect_ms = (elected - detected) / 1e3;
    row.promote_ms = (promoted - elected) / 1e3;
    row.warm_ms = (warmed - promoted) / 1e3;
    row.total_ms = (warmed - suspected) / 1e3;
    rows->push_back(row);

    // --- Event 2: a Secondary's full local copy is lost; redundancy
    // comes back only by reseeding the whole database (O(size-of-data)),
    // the HADR analogue of Socrates reseeding one Page Server partition.
    co_await sim::Delay(s, kKillStorageUs - (s.now() - t0));
    suspected = s.now();
    size_t before = static_cast<size_t>(c.num_secondaries());
    c.CrashSecondary(0);
    detected = 0;
    co_await DetectDeath(
        s,
        [&c, before] {
          return static_cast<size_t>(c.num_secondaries()) >= before;
        },
        &detected);
    elected = s.now();
    Result<SimTime> seed = co_await c.SeedNewSecondary();
    if (!seed.ok()) abort();
    promoted = s.now();
    MttrRow rebuild;
    rebuild.system = "hadr";
    rebuild.event = "rebuild-replica";
    rebuild.detect_ms = (detected - suspected) / 1e3;
    rebuild.elect_ms = (elected - detected) / 1e3;
    rebuild.promote_ms = (promoted - elected) / 1e3;
    rebuild.warm_ms = 0;
    rebuild.total_ms = (promoted - suspected) / 1e3;
    rows->push_back(rebuild);

    if (s.now() - t0 < kStormEndUs) {
      co_await sim::Delay(s, kStormEndUs - (s.now() - t0));
    }
    stop = true;
    co_await sim::Delay(s, 2 * kPingIntervalUs);
    trace->window_us = s.now() - t0;
  });
  c.Stop();
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) p.smoke = true;
  }
  if (p.smoke) p.rows = 800;
  JsonOut json("availability", argc, argv);

  PrintHeader(
      "Availability: MTTR under an identical fault plan",
      "O(1) recovery + 99.999% vs HADR's 99.99 (Table 1, sections 2, 6)");
  printf("plan: kill Primary @%lldms, kill storage unit @%lldms; "
         "detector: %lldms heartbeat / %d misses\n",
         static_cast<long long>(kKillPrimaryUs / 1000),
         static_cast<long long>(kKillStorageUs / 1000),
         static_cast<long long>(Monitor::kHeartbeatIntervalUs / 1000),
         Monitor::kSuspicionThreshold);

  std::vector<MttrRow> rows;
  PingTrace soc_trace, hadr_trace;
  RunSocrates(p, &rows, &soc_trace);
  RunHadr(p, &rows, &hadr_trace);

  printf("\n%-9s %-18s %9s %9s %10s %9s %9s\n", "system", "event",
         "detect", "elect", "promote", "warm", "total");
  for (const MttrRow& r : rows) {
    printf("%-9s %-18s %7.1fms %7.1fms %8.1fms %7.1fms %7.1fms\n",
           r.system.c_str(), r.event.c_str(), r.detect_ms, r.elect_ms,
           r.promote_ms, r.warm_ms, r.total_ms);
    json.Line("{\"phase\":\"mttr\",\"system\":\"%s\",\"event\":\"%s\","
              "\"detect_ms\":%.2f,\"elect_ms\":%.2f,\"promote_ms\":%.2f,"
              "\"warm_ms\":%.2f,\"total_ms\":%.2f}",
              r.system.c_str(), r.event.c_str(), r.detect_ms, r.elect_ms,
              r.promote_ms, r.warm_ms, r.total_ms);
  }

  printf("\n%-9s %10s %10s %10s %14s\n", "system", "pings_ok",
         "pings_fail", "outage", "availability");
  for (const auto& [name, tr] :
       {std::pair<const char*, PingTrace&>{"socrates", soc_trace},
        {"hadr", hadr_trace}}) {
    double total = static_cast<double>(tr.ok + tr.failed);
    double avail = total > 0 ? 100.0 * tr.ok / total : 0;
    double outage_ms = tr.failed * kPingIntervalUs / 1e3;
    printf("%-9s %10llu %10llu %8.0fms %13.3f%%\n", name,
           static_cast<unsigned long long>(tr.ok),
           static_cast<unsigned long long>(tr.failed), outage_ms, avail);
    json.Line("{\"phase\":\"availability\",\"system\":\"%s\","
              "\"window_ms\":%.1f,\"ping_ok\":%llu,\"ping_failed\":%llu,"
              "\"unavailable_ms\":%.1f,\"availability_pct\":%.3f}",
              name, tr.window_us / 1e3,
              static_cast<unsigned long long>(tr.ok),
              static_cast<unsigned long long>(tr.failed), outage_ms,
              avail);
  }
  printf("\nSocrates reseeds 1/N of the database from XStore (bounded by "
         "the\ncheckpoint interval); HADR reseeds a FULL copy — "
         "O(size-of-data).\n");
  return 0;
}
