// Parallel incremental checkpoint pipeline (§4.6) sweep.
//
// Phase "sweep": dirty-set size × checkpoint_inflight_writes on a fully
// scattered dirty set (stride 2, so every contiguous run is one page and
// the round degenerates to one XStore write per page — the worst case
// the pipeline was built for). Reports checkpoint duration, the speedup
// against the inflight=1 serial baseline of the same dirty set, and the
// GetPage@LSN p99 of a foreground probe stream running *during* the
// checkpoint (the serving latency §4.6 says checkpoints must not hurt).
//
// Phase "backup": the Backup() latency split — how much is the forced
// checkpoint (grows with the dirty set) vs the XStore snapshot (the
// paper's constant-time part), measured on a dirty and a clean backup.
//
// Phase "lag": a live commit stream against the periodic checkpoint
// loop; reports the applied_lsn − restart_lsn histogram (the log replay
// window a Page Server restart would have to chew through).

#include <cinttypes>
#include <cstring>
#include <vector>

#include "harness.h"

using namespace socrates;
using namespace socrates::bench;

namespace {

struct Params {
  bool smoke = false;
};

struct Bed {
  sim::Simulator sim;
  std::unique_ptr<service::Deployment> deployment;
  PageId first_page = 0;

  // One Page Server whose memory tier holds the whole (scattered) dirty
  // set: no spills, so run aggregation sees exactly the stride pattern.
  void Build(uint64_t partition_pages, int inflight,
             SimTime checkpoint_interval_us = 3600ull * 1000 * 1000) {
    service::DeploymentOptions dopts;
    dopts.partition_map.pages_per_partition = partition_pages;
    dopts.num_page_servers = 1;
    dopts.num_secondaries = 0;
    dopts.compute.mem_pages = 256;
    dopts.compute.ssd_pages = 1024;
    dopts.page_server.mem_pages = partition_pages + 64;
    dopts.page_server.checkpoint_interval_us = checkpoint_interval_us;
    dopts.page_server.checkpoint_jitter_frac = 0;
    dopts.page_server.checkpoint_inflight_writes = inflight;
    // Skip past the pages the bootstrap formatted.
    first_page = dopts.partition_map.FirstPage(0) + 16;
    deployment = std::make_unique<service::Deployment>(sim, dopts);
    RunSim(sim, [&]() -> sim::Task<> {
      Status s = co_await deployment->Start();
      if (!s.ok()) {
        fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
        abort();
      }
    });
  }

  pageserver::PageServer* ps() { return deployment->page_server(0); }
};

// Dirty `n` pages scattered at stride 2 across the partition, creating
// them on first touch. Every dirty run has length 1.
sim::Task<> ScatterDirty(pageserver::PageServer* ps, PageId first,
                         uint64_t n) {
  engine::BufferPool* pool = ps->pool();
  for (uint64_t i = 0; i < n; i++) {
    PageId id = first + 2 * i;
    if (pool->InMemory(id) || pool->Contains(id)) {
      auto ref = co_await pool->GetPage(id);
      if (!ref.ok()) abort();
      ref->page()->set_page_lsn(ref->page()->page_lsn() + 1);
      ref->MarkDirty();
    } else {
      auto ref = pool->NewPage(id);
      if (!ref.ok()) abort();
      ref->page()->Format(id, storage::PageType::kFree);
      ref->MarkDirty();
    }
  }
}

// Foreground probe stream: one GetPage@LSN at a time against resident
// pages while the checkpoint runs, sampling end-to-end latency.
sim::Task<> ProbeLoop(sim::Simulator* sim, pageserver::PageServer* ps,
                      PageId first, uint64_t span, const bool* stop,
                      Histogram* lat) {
  uint64_t i = 0;
  while (!*stop) {
    PageId id = first + 2 * (i++ % span);
    SimTime t0 = sim->now();
    auto page = co_await ps->GetPageAtLsn(id, 0);
    if (!page.ok()) abort();
    lat->Add(static_cast<double>(sim->now() - t0));
    co_await sim::Delay(*sim, 500);
  }
}

struct SweepResult {
  double checkpoint_ms = 0;
  double getpage_p99_us = 0;
  uint64_t batches = 0;
};

SweepResult MeasureSweep(uint64_t dirty_pages, int inflight) {
  Bed bed;
  bed.Build(/*partition_pages=*/2 * dirty_pages + 64, inflight);
  SweepResult r;
  RunSim(bed.sim, [&]() -> sim::Task<> {
    auto* ps = bed.ps();
    PageId first = bed.first_page;
    co_await ScatterDirty(ps, first, dirty_pages);
    bool stop = false;
    Histogram probe_lat;
    sim::Spawn(bed.sim, ProbeLoop(&bed.sim, ps, first, dirty_pages,
                                  &stop, &probe_lat));
    SimTime t0 = bed.sim.now();
    Status s = co_await ps->Checkpoint();
    if (!s.ok()) abort();
    r.checkpoint_ms = static_cast<double>(bed.sim.now() - t0) / 1000.0;
    stop = true;
    co_await sim::Delay(bed.sim, 2000);
    r.getpage_p99_us = probe_lat.Percentile(99.0);
    r.batches = ps->checkpoint_batches();
  });
  return r;
}

sim::Task<> LoadRows(engine::Engine* e, uint64_t start, uint64_t n) {
  for (uint64_t i = start; i < start + n; i += 8) {
    auto txn = e->Begin();
    for (uint64_t k = i; k < std::min(start + n, i + 8); k++) {
      (void)e->Put(txn.get(), engine::MakeKey(1, k),
                   "v" + std::to_string(k));
    }
    Status s = co_await e->Commit(txn.get());
    if (!s.ok()) abort();
  }
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) p.smoke = true;
  }
  JsonOut out("checkpoint", argc, argv);
  PrintHeader("Parallel incremental checkpoint pipeline (§4.6)",
              "checkpointing is a Page Server responsibility and must "
              "never throttle the Primary; backups are constant-time "
              "XStore snapshots");

  std::vector<uint64_t> dirty_sizes =
      p.smoke ? std::vector<uint64_t>{64}
              : std::vector<uint64_t>{64, 256, 1024};
  std::vector<int> inflights = p.smoke ? std::vector<int>{1, 4}
                                       : std::vector<int>{1, 2, 4, 8};

  printf("\n%8s %9s %14s %9s %13s %8s\n", "dirty", "inflight",
         "checkpoint_ms", "speedup", "getpage_p99", "batches");
  for (uint64_t dirty : dirty_sizes) {
    double serial_ms = 0;
    double serial_p99 = 0;
    for (int inflight : inflights) {
      SweepResult r = MeasureSweep(dirty, inflight);
      if (inflight == 1) {
        serial_ms = r.checkpoint_ms;
        serial_p99 = r.getpage_p99_us;
      }
      double speedup = r.checkpoint_ms > 0
                           ? serial_ms / r.checkpoint_ms
                           : 0;
      printf("%8" PRIu64 " %9d %14.1f %8.2fx %10.0fus %8" PRIu64 "\n",
             dirty, inflight, r.checkpoint_ms, speedup, r.getpage_p99_us,
             r.batches);
      out.Line("{\"bench\": \"checkpoint\", \"phase\": \"sweep\", "
               "\"dirty_pages\": %" PRIu64 ", \"inflight\": %d, "
               "\"checkpoint_ms\": %.2f, \"speedup_vs_serial\": %.3f, "
               "\"getpage_p99_us\": %.1f, \"serial_getpage_p99_us\": "
               "%.1f, \"batches\": %" PRIu64 "}",
               dirty, inflight, r.checkpoint_ms, speedup, r.getpage_p99_us,
               serial_p99, r.batches);
    }
  }

  // ---- Backup latency split ------------------------------------------
  {
    uint64_t dirty = p.smoke ? 64 : 256;
    Bed bed;
    bed.Build(2 * dirty + 64, /*inflight=*/4);
    double dirty_cp_ms = 0, dirty_snap_ms = 0;
    double clean_cp_ms = 0, clean_snap_ms = 0;
    RunSim(bed.sim, [&]() -> sim::Task<> {
      co_await ScatterDirty(bed.ps(), bed.first_page, dirty);
      auto b1 = co_await bed.deployment->Backup();
      if (!b1.ok()) abort();
      dirty_cp_ms = static_cast<double>(b1->checkpoint_us) / 1000.0;
      dirty_snap_ms = static_cast<double>(b1->snapshot_us) / 1000.0;
      auto b2 = co_await bed.deployment->Backup();
      if (!b2.ok()) abort();
      clean_cp_ms = static_cast<double>(b2->checkpoint_us) / 1000.0;
      clean_snap_ms = static_cast<double>(b2->snapshot_us) / 1000.0;
    });
    printf("\nBackup split (%" PRIu64 " dirty pages, then clean):\n",
           dirty);
    printf("  dirty backup: checkpoint %.1f ms + snapshot %.1f ms\n",
           dirty_cp_ms, dirty_snap_ms);
    printf("  clean backup: checkpoint %.1f ms + snapshot %.1f ms\n",
           clean_cp_ms, clean_snap_ms);
    out.Line("{\"bench\": \"checkpoint\", \"phase\": \"backup\", "
             "\"dirty_pages\": %" PRIu64 ", \"dirty_checkpoint_ms\": "
             "%.2f, \"dirty_snapshot_ms\": %.2f, \"clean_checkpoint_ms\": "
             "%.2f, \"clean_snapshot_ms\": %.2f}",
             dirty, dirty_cp_ms, dirty_snap_ms, clean_cp_ms,
             clean_snap_ms);
  }

  // ---- Restart lag under a live commit stream ------------------------
  {
    uint64_t rows = p.smoke ? 2000 : 8000;
    printf("\nRestart lag (applied_lsn - restart_lsn) under load:\n");
    for (int inflight : {1, 4}) {
      Bed bed;
      bed.Build(/*partition_pages=*/2048, inflight,
                /*checkpoint_interval_us=*/50 * 1000);
      double lag_p99 = 0, lag_mean = 0;
      uint64_t rounds = 0;
      RunSim(bed.sim, [&]() -> sim::Task<> {
        co_await LoadRows(bed.deployment->primary_engine(), 0, rows);
        co_await bed.ps()->applied_lsn().WaitFor(
            bed.deployment->log_client().end_lsn());
        const Histogram& lag = bed.ps()->restart_lag_bytes();
        if (lag.count() > 0) {
          lag_p99 = lag.Percentile(99.0);
          lag_mean = lag.mean();
        }
        rounds = bed.ps()->checkpoints_completed();
      });
      printf("  inflight=%d: p99 %.0f bytes, mean %.0f bytes over %" PRIu64
             " rounds\n",
             inflight, lag_p99, lag_mean, rounds);
      out.Line("{\"bench\": \"checkpoint\", \"phase\": \"lag\", "
               "\"inflight\": %d, \"restart_lag_p99_bytes\": %.0f, "
               "\"restart_lag_mean_bytes\": %.0f, \"rounds\": %" PRIu64
               "}",
               inflight, lag_p99, lag_mean, rounds);
    }
  }
  return 0;
}
