// Shared setup for the paper-reproduction benchmarks: build a Socrates
// deployment or HADR cluster, load a scaled CDB/TPC-E database, run the
// client driver, and print paper-vs-measured rows.
//
// Scaling convention: the paper's 1 TB database becomes a few thousand
// simulated pages; every configuration preserves the paper's *ratios*
// (cache/database size, cores, client counts), which is what the shapes
// depend on.

#pragma once

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "hadr/hadr.h"
#include "service/deployment.h"
#include "workload/cdb.h"
#include "workload/tpce_like.h"
#include "workload/workload.h"

namespace socrates {
namespace bench {

// Machine-readable results: every Line() goes to stdout, and — when the
// bench was invoked with `--json` — is also appended to
// BENCH_<name>.json (one JSON object per line), so the perf trajectory
// can be tracked across PRs. Each object gets a trailing "wall_ms": the
// real milliseconds since this JsonOut was built, so real time sits
// beside the simulated results it took to produce them.
class JsonOut {
 public:
  JsonOut(const std::string& name, int argc, char** argv)
      : start_(std::chrono::steady_clock::now()) {
    for (int i = 1; i < argc; i++) {
      if (std::strcmp(argv[i], "--json") == 0) {
        path_ = "BENCH_" + name + ".json";
        file_ = fopen(path_.c_str(), "w");
        if (file_ == nullptr) {
          fprintf(stderr, "warning: cannot open %s for writing\n",
                  path_.c_str());
        }
      }
    }
  }
  ~JsonOut() {
    if (file_ != nullptr) {
      fclose(file_);
      printf("wrote %s\n", path_.c_str());
    }
  }
  JsonOut(const JsonOut&) = delete;
  JsonOut& operator=(const JsonOut&) = delete;

  /// printf-style; emits one JSON line (no trailing newline in fmt).
  __attribute__((format(printf, 2, 3))) void Line(const char* fmt, ...) {
    char buf[4096];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::string line = buf;
    StampWallMs(&line);
    printf("%s\n", line.c_str());
    if (file_ != nullptr) fprintf(file_, "%s\n", line.c_str());
  }

 private:
  // Appends "wall_ms" as the last key of a JSON object; text that is
  // not an object is left as it is. Simulated spans go under "sim_ms".
  void StampWallMs(std::string* line) const {
    if (line->size() < 2 || line->back() != '}') return;
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    char stamp[64];
    snprintf(stamp, sizeof(stamp), "%s\"wall_ms\":%.1f",
             (*line)[line->size() - 2] == '{' ? "" : ",", ms);
    line->insert(line->size() - 1, stamp);
  }

  std::chrono::steady_clock::time_point start_;
  std::string path_;
  FILE* file_ = nullptr;
};

inline void PrintHeader(const std::string& title,
                        const std::string& paper_claim) {
  printf("\n==========================================================\n");
  printf("%s\n", title.c_str());
  printf("Paper: %s\n", paper_claim.c_str());
  printf("==========================================================\n");
}

// Run events until the driver coroutine finishes (background service
// loops keep scheduling timers forever, so Simulator::Run would spin).
inline sim::Task<> BenchWrap(sim::Task<> inner, bool* done) {
  co_await std::move(inner);
  *done = true;
}

template <typename Fn>
void RunSim(sim::Simulator& s, Fn&& fn) {
  bool done = false;
  sim::Spawn(s, BenchWrap(fn(), &done));
  while (!done && s.Step()) {
  }
  if (!done) {
    fprintf(stderr, "FATAL: bench driver did not finish\n");
    abort();
  }
}

// A Socrates deployment + loaded CDB database, the standard testbed.
struct SocratesBed {
  sim::Simulator sim;
  std::unique_ptr<service::Deployment> deployment;
  std::unique_ptr<workload::CdbWorkload> cdb;
  /// Optional hook to tweak workload options before Build constructs it.
  std::function<void(workload::CdbOptions*)> tweak_copts;
  /// Optional hook to tweak deployment options (e.g. the log-block
  /// sizing policy or compression) after the defaults are filled in.
  std::function<void(service::DeploymentOptions*)> tweak_dopts;

  // `cache_mem_frac` / `cache_ssd_frac` size the compute cache relative
  // to the loaded database.
  void Build(uint64_t scale_factor, workload::CdbMix mix,
             double cache_mem_frac, double cache_ssd_frac, int cores,
             sim::DeviceProfile lz = sim::DeviceProfile::DirectDrive(),
             int page_servers = 4, double cpu_scale = 4.0,
             int lz_max_inflight = 8) {
    workload::CdbOptions copts;
    copts.scale_factor = scale_factor;
    copts.cpu_scale = cpu_scale;
    if (tweak_copts) tweak_copts(&copts);
    cdb = std::make_unique<workload::CdbWorkload>(copts, mix);

    uint64_t db_pages = cdb->ApproxBytes() / kPageSize + 64;
    service::DeploymentOptions dopts;
    dopts.lz_profile = lz;
    dopts.partition_map.pages_per_partition =
        db_pages / page_servers + 256;
    dopts.num_page_servers = page_servers;
    dopts.compute.cpu_cores = cores;
    dopts.compute.mem_pages = std::max<uint64_t>(
        16, static_cast<uint64_t>(db_pages * cache_mem_frac));
    dopts.compute.ssd_pages = std::max<uint64_t>(
        32, static_cast<uint64_t>(db_pages * cache_ssd_frac));
    dopts.page_server.mem_pages = 512;
    dopts.xlog_client.max_inflight_writes = lz_max_inflight;
    if (tweak_dopts) tweak_dopts(&dopts);
    deployment = std::make_unique<service::Deployment>(sim, dopts);

    RunSim(sim, [&]() -> sim::Task<> {
      Status s = co_await deployment->Start();
      if (!s.ok()) {
        fprintf(stderr, "deployment start failed: %s\n",
                s.ToString().c_str());
        abort();
      }
      s = co_await cdb->Load(deployment->primary_engine());
      if (!s.ok()) {
        fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
        abort();
      }
      // Quiesce: let Page Servers drain the bulk-load log burst before
      // measuring (production bulk loads are followed by exactly this).
      for (int p = 0; p < deployment->num_page_servers(); p++) {
        co_await deployment->page_server(p)->applied_lsn().WaitFor(
            deployment->log_client().end_lsn());
      }
    });
  }

  workload::DriverReport Run(int clients, SimTime measure_us,
                             SimTime warmup_us = 200 * 1000) {
    workload::DriverReport report;
    RunSim(sim, [&]() -> sim::Task<> {
      workload::DriverOptions d;
      d.clients = clients;
      d.warmup_us = warmup_us;
      d.measure_us = measure_us;
      report = co_await workload::RunDriver(
          sim, deployment->primary_engine(), &deployment->primary()->cpu(),
          cdb.get(), d);
    });
    return report;
  }
};

// A HADR cluster + loaded CDB database.
struct HadrBed {
  sim::Simulator sim;
  std::unique_ptr<xstore::XStore> xstore;
  std::unique_ptr<hadr::HadrCluster> cluster;
  std::unique_ptr<workload::CdbWorkload> cdb;

  void Build(uint64_t scale_factor, workload::CdbMix mix, int cores,
             hadr::HadrOptions hopts = {},
             double xstore_bandwidth_mb_s = 200.0,
             double cpu_scale = 4.0) {
    workload::CdbOptions copts;
    copts.scale_factor = scale_factor;
    copts.cpu_scale = cpu_scale;
    cdb = std::make_unique<workload::CdbWorkload>(copts, mix);
    xstore = std::make_unique<xstore::XStore>(
        sim, sim::DeviceProfile::XStore(), xstore_bandwidth_mb_s);
    hopts.cpu_cores = cores;
    // HADR nodes hold the full database locally.
    hopts.mem_pages = std::max<uint64_t>(
        64, cdb->ApproxBytes() / kPageSize / 16);
    cluster = std::make_unique<hadr::HadrCluster>(sim, xstore.get(),
                                                  hopts);
    RunSim(sim, [&]() -> sim::Task<> {
      Status s = co_await cluster->Start();
      if (!s.ok()) abort();
      s = co_await cdb->Load(cluster->primary_engine());
      if (!s.ok()) abort();
    });
  }

  workload::DriverReport Run(int clients, SimTime measure_us,
                             SimTime warmup_us = 200 * 1000) {
    workload::DriverReport report;
    RunSim(sim, [&]() -> sim::Task<> {
      workload::DriverOptions d;
      d.clients = clients;
      d.warmup_us = warmup_us;
      d.measure_us = measure_us;
      report = co_await workload::RunDriver(
          sim, cluster->primary_engine(), &cluster->primary_cpu(),
          cdb.get(), d);
    });
    return report;
  }
};

}  // namespace bench
}  // namespace socrates
