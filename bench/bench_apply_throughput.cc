// Parallel-redo hot path (§4.4–§4.6): replay a fixed update-heavy log
// into a Page Server with apply_lanes ∈ {1, 2, 4, 8} and report apply
// throughput plus GetPage@LSN freshness waits.
//
// Scenario: the Page Server starts far behind a fully hardened stream
// (a restart / lagging replica) and must catch up while serving
// GetPage@LSN probes at the freshest LSN — the §4.4 situation where
// apply throughput directly bounds freshness waits. One JSON line per
// lane configuration feeds the bench trajectory.

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/btree.h"
#include "harness.h"
#include "engine/buffer_pool.h"
#include "engine/log_record.h"
#include "engine/log_sink.h"
#include "engine/redo.h"
#include "pageserver/page_server.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "xlog/landing_zone.h"
#include "xlog/log_block.h"
#include "xlog/xlog_process.h"
#include "xstore/xstore.h"

namespace socrates {
namespace bench {
namespace {

using sim::Simulator;
using sim::Spawn;
using sim::Task;

struct GeneratedLog {
  std::string stream;
  uint64_t records = 0;
};

// Update-heavy stream: 6 passes over 6000 keys (pass 0 inserts, the rest
// overwrite in place), a kTxnCommit every 16 writes. ~36k page records.
GeneratedLog GenerateUpdateHeavyLog() {
  GeneratedLog out;
  Simulator sim;
  engine::MemLogSink sink(sim);
  engine::BufferPoolOptions opts;
  opts.mem_pages = 1 << 20;
  engine::BufferPool pool(sim, opts, nullptr);
  engine::BTree tree(sim, &pool, &sink);
  RunSim(sim, [&]() -> Task<> {
    Status cs = co_await tree.Create();
    if (!cs.ok()) abort();
    Timestamp ts = 1;
    int in_txn = 0;
    for (int pass = 0; pass < 6; pass++) {
      std::string value(180, static_cast<char>('a' + pass));
      for (uint64_t k = 0; k < 6000; k++) {
        // Trimming at the commit timestamp keeps one version per key.
        Status ws = co_await tree.Write(1, k * 7, ts, false, Slice(value),
                                        /*trim_ts=*/ts);
        if (!ws.ok()) abort();
        if (++in_txn == 16) {
          engine::LogRecord commit;
          commit.type = engine::LogRecordType::kTxnCommit;
          commit.commit_ts = ts++;
          sink.Append(commit);
          in_txn = 0;
        }
      }
    }
  });
  out.stream = sink.stream();
  (void)engine::ForEachRecord(Slice(out.stream), engine::kLogStreamStart,
                              [&](Lsn, Slice) {
                                out.records++;
                                return true;
                              });
  return out;
}

// Probe GetPage@LSN at the freshest (fully hardened) LSN while the server
// catches up; each probe's wait-for-apply latency lands in the server's
// freshness histogram. Probes are detached so many can be outstanding —
// a probe issued at time t waits until the replay passes `at`.
Task<> OneProbe(pageserver::PageServer* ps, Lsn at) {
  (void)co_await ps->GetPageAtLsn(engine::kRootPageId, at);
}

Task<> ProbeIssuer(Simulator* sim, pageserver::PageServer* ps, Lsn end) {
  while (ps->applied_lsn().value() < end) {
    Spawn(*sim, OneProbe(ps, end));
    co_await sim::Delay(*sim, 2000);
  }
}

struct RunResult {
  int lanes = 0;
  SimTime replay_us = 0;
  double records_per_s = 0;
  double log_mb_per_s = 0;
  double cpu_util = 0;
  double lane_occupancy = 0;
  uint64_t barrier_stalls = 0;
  uint64_t pulls = 0;
  uint64_t pipelined_pull_hits = 0;
  SimTime pull_wait_us = 0;
  SimTime apply_busy_us = 0;
  double freshness_p50_us = 0;
  double freshness_p99_us = 0;
  uint64_t probes = 0;
};

RunResult ReplayWithLanes(const GeneratedLog& log, int lanes) {
  Simulator sim;
  xstore::XStore xstore(sim);
  xlog::LandingZone lz(sim, sim::DeviceProfile::DirectDrive(), 256 * MiB);
  xlog::XLogOptions xopts;
  xopts.sequence_map_bytes = 32 * MiB;  // whole stream served from memory
  xlog::XLogProcess xlog(sim, &lz, &xstore, xopts);
  xlog.Start();

  // Harden + disseminate the full stream before the server starts: the
  // catch-up scenario.
  RunSim(sim, [&]() -> Task<> {
    Lsn pos = engine::kLogStreamStart;
    Slice rest(log.stream);
    while (!rest.empty()) {
      uint64_t n = engine::FrameAlignedPrefix(rest, 60 * 1024);
      std::string chunk(rest.data(), n);
      Status s = co_await lz.Write(pos, Slice(chunk));
      if (!s.ok()) abort();
      xlog.DeliverBlock(xlog::LogBlock::Make(pos, std::move(chunk), {0}));
      pos += n;
      rest.remove_prefix(n);
      xlog.NotifyHardened(pos);
    }
  });
  const Lsn end = engine::kLogStreamStart + log.stream.size();

  pageserver::PageServerOptions popts;
  popts.partition = 0;
  popts.mem_pages = 1 << 15;  // everything fits in memory
  popts.cpu_cores = 8;
  popts.apply_lanes = lanes;
  popts.checkpointing_enabled = false;
  pageserver::PageServer ps(sim, &xlog, &xstore, popts);

  RunResult out;
  out.lanes = lanes;
  SimTime start = 0;
  RunSim(sim, [&]() -> Task<> {
    Status s = co_await ps.Start();
    if (!s.ok()) abort();
    start = sim.now();
    ps.cpu().ResetAccounting();
    Spawn(sim, ProbeIssuer(&sim, &ps, end));
    co_await ps.applied_lsn().WaitFor(end);
    out.replay_us = sim.now() - start;
    out.cpu_util = ps.cpu().Utilization();
    co_await sim::Delay(sim, 5000);  // let outstanding probes record
  });

  double secs = static_cast<double>(out.replay_us) / 1e6;
  out.records_per_s = secs > 0 ? static_cast<double>(log.records) / secs : 0;
  out.log_mb_per_s =
      secs > 0 ? static_cast<double>(log.stream.size()) / MiB / secs : 0;
  out.lane_occupancy = ps.applier().LaneOccupancy();
  out.barrier_stalls = ps.applier().barrier_stalls();
  out.apply_busy_us = ps.applier().apply_busy_us();
  out.pulls = ps.pulls();
  out.pipelined_pull_hits = ps.pipelined_pull_hits();
  out.pull_wait_us = ps.pull_wait_us();
  out.freshness_p50_us = ps.freshness_wait_us().Percentile(50.0);
  out.freshness_p99_us = ps.freshness_wait_us().Percentile(99.0);
  out.probes = ps.freshness_wait_us().count();
  ps.Stop();
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace socrates

int main(int argc, char** argv) {
  using socrates::bench::GenerateUpdateHeavyLog;
  using socrates::bench::ReplayWithLanes;
  using socrates::bench::RunResult;

  socrates::bench::JsonOut json("apply_throughput", argc, argv);

  printf("\n==========================================================\n");
  printf("Apply throughput: parallel redo lanes + pipelined pulls\n");
  printf("Catch-up replay of a fixed update-heavy log; GetPage@LSN\n");
  printf("probes at the freshest LSN measure freshness waits (§4.4).\n");
  printf("==========================================================\n");

  socrates::bench::GeneratedLog log = GenerateUpdateHeavyLog();
  printf("stream: %" PRIu64 " records, %.1f MiB\n\n", log.records,
         static_cast<double>(log.stream.size()) / socrates::MiB);

  printf("%-6s %12s %10s %8s %8s %10s %10s\n", "lanes", "records/s",
         "log MB/s", "cpu%", "occup", "fresh p50", "fresh p99");
  std::vector<RunResult> results;
  for (int lanes : {1, 2, 4, 8}) {
    RunResult r = ReplayWithLanes(log, lanes);
    results.push_back(r);
    printf("%-6d %12.0f %10.2f %7.1f%% %8.2f %8.0fus %8.0fus\n", r.lanes,
           r.records_per_s, r.log_mb_per_s, 100.0 * r.cpu_util,
           r.lane_occupancy, r.freshness_p50_us, r.freshness_p99_us);
  }
  const RunResult& base = results[0];
  for (const RunResult& r : results) {
    json.Line("{\"bench\":\"apply_throughput\",\"lanes\":%d,"
              "\"records\":%" PRIu64 ",\"replay_us\":%lld,"
              "\"records_per_s\":%.0f,\"log_mb_per_s\":%.2f,"
              "\"speedup_vs_serial\":%.2f,\"cpu_util\":%.3f,"
              "\"lane_occupancy\":%.3f,\"barrier_stalls\":%" PRIu64 ","
              "\"pulls\":%" PRIu64 ",\"pipelined_pull_hits\":%" PRIu64 ","
              "\"pull_wait_us\":%lld,\"apply_busy_us\":%lld,"
              "\"freshness_p50_us\":%.0f,\"freshness_p99_us\":%.0f,"
              "\"probes\":%" PRIu64 "}",
              r.lanes, log.records, static_cast<long long>(r.replay_us),
              r.records_per_s, r.log_mb_per_s,
              base.replay_us > 0
                  ? static_cast<double>(base.replay_us) / r.replay_us
                  : 0.0,
              r.cpu_util, r.lane_occupancy, r.barrier_stalls, r.pulls,
              r.pipelined_pull_hits, static_cast<long long>(r.pull_wait_us),
              static_cast<long long>(r.apply_busy_us), r.freshness_p50_us,
              r.freshness_p99_us, r.probes);
  }
  return 0;
}
