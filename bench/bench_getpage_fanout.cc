// GetPage@LSN fan-out (§3.4, §4.4): measure what batched RBIO
// multiplexing and event-driven freshness waits buy on the hottest
// cross-tier path.
//
// Phase 1 — freshness-wake precision: a Page Server catches up on a
// fully hardened log while a prober repeatedly asks for pages a small
// LSN delta ahead of the applied watermark. With event-driven wakes the
// measured wait is exactly the time the applier needed to cross the
// threshold; the old 300 µs polling loop rounded every parked wait up
// to its grid, so `frac_below_300us` was ~0 and wake lag up to 300 µs.
//
// Phase 2 — fan-out sweep: F ∈ {1,4,16,64,256} concurrent clients miss
// on distinct pages in the same virtual instant, for max_batch = 1
// (a one-entry kGetPageBatch frame per page) vs 16 (up to 16 pages
// multiplexed per frame).
// Reports round trips (frames sent), round trips saved, batch
// occupancy, and client-observed GetPage p50/p99.

#include <algorithm>
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
#include "rbio/rbio.h"
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

// Two passes over 20000 keys (~450 leaf pages of final data): pass 0
// inserts, pass 1 overwrites — enough distinct pages for the 256-way
// fan-out round to touch 256 different pages, plus update records to
// give the phase-1 catch-up something to chew on.
struct GeneratedLog {
  std::string stream;
  uint64_t records = 0;
};

GeneratedLog GenerateLog() {
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
    for (int pass = 0; pass < 2; pass++) {
      std::string value(180, static_cast<char>('a' + pass));
      for (uint64_t k = 0; k < 20000; k++) {
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

// Shared testbed: XLOG with the whole stream hardened up front, one Page
// Server over partition 0.
struct Bed {
  Simulator sim;
  std::unique_ptr<xstore::XStore> xstore;
  std::unique_ptr<xlog::LandingZone> lz;
  std::unique_ptr<xlog::XLogProcess> xlog;
  std::unique_ptr<pageserver::PageServer> ps;
  Lsn end = 0;

  void Build(const GeneratedLog& log) {
    xstore = std::make_unique<xstore::XStore>(sim);
    lz = std::make_unique<xlog::LandingZone>(
        sim, sim::DeviceProfile::DirectDrive(), 256 * MiB);
    xlog::XLogOptions xopts;
    xopts.sequence_map_bytes = 32 * MiB;
    xlog = std::make_unique<xlog::XLogProcess>(sim, lz.get(), xstore.get(),
                                               xopts);
    xlog->Start();
    RunSim(sim, [&]() -> Task<> {
      Lsn pos = engine::kLogStreamStart;
      Slice rest(log.stream);
      while (!rest.empty()) {
        uint64_t n = engine::FrameAlignedPrefix(rest, 60 * 1024);
        std::string chunk(rest.data(), n);
        Status s = co_await lz->Write(pos, Slice(chunk));
        if (!s.ok()) abort();
        xlog->DeliverBlock(xlog::LogBlock::Make(pos, std::move(chunk), {0}));
        pos += n;
        rest.remove_prefix(n);
        xlog->NotifyHardened(pos);
      }
    });
    end = engine::kLogStreamStart + log.stream.size();

    pageserver::PageServerOptions popts;
    popts.partition = 0;
    popts.mem_pages = 1 << 15;  // whole partition stays in memory
    popts.cpu_cores = 4;
    popts.apply_lanes = 4;
    popts.checkpointing_enabled = false;
    ps = std::make_unique<pageserver::PageServer>(sim, xlog.get(),
                                                  xstore.get(), popts);
  }
};

// ---- Phase 1: freshness-wake precision during catch-up.

struct FreshnessResult {
  uint64_t probes = 0;
  double p50_us = 0;
  double p99_us = 0;
  double frac_below_300us = 0;
  uint64_t waiter_wakes = 0;
  double wake_lag_max_us = 0;
  double wake_lag_mean_us = 0;
};

FreshnessResult RunFreshnessPhase(Bed& bed) {
  // Chase the applier: each probe targets a small delta ahead of the
  // current applied LSN, so its wait is the genuine apply time for that
  // delta — well under the old 300 µs poll quantum most of the time.
  constexpr Lsn kDelta = 4096;
  FreshnessResult out;
  RunSim(bed.sim, [&]() -> Task<> {
    Status s = co_await bed.ps->Start();
    if (!s.ok()) abort();
    while (true) {
      Lsn applied = bed.ps->applied_lsn().value();
      if (applied >= bed.end) break;
      Lsn target = std::min<Lsn>(bed.end, applied + kDelta);
      Result<storage::Page> r =
          co_await bed.ps->GetPageAtLsn(engine::kRootPageId, target);
      if (!r.ok()) abort();
    }
    co_await bed.ps->applied_lsn().WaitFor(bed.end);
  });
  const Histogram& fresh = bed.ps->freshness_wait_us();
  out.probes = fresh.count();
  out.p50_us = fresh.Percentile(50.0);
  out.p99_us = fresh.Percentile(99.0);
  out.frac_below_300us = fresh.FractionBelow(300.0);
  out.waiter_wakes = bed.ps->waiter_wakes();
  out.wake_lag_max_us = bed.ps->waiter_wake_lag_us().max();
  out.wake_lag_mean_us = bed.ps->waiter_wake_lag_us().mean();
  return out;
}

// ---- Phase 2: fan-out sweep.

// Enumerate pages actually present in the partition, in 128-page chunks;
// a page that was never allocated reads NotFound and is skipped.
std::vector<PageId> CollectPagePool(Bed& bed, size_t want) {
  std::vector<PageId> pool;
  RunSim(bed.sim, [&]() -> Task<> {
    for (PageId id = 0; id < 1 << 14; id++) {
      if (id % 128 == 0 && pool.size() >= want) break;
      Result<storage::Page> r = co_await bed.ps->GetPageAtLsn(id, bed.end);
      if (r.ok()) {
        pool.push_back(id);
      } else if (!r.status().IsNotFound()) {
        abort();
      }
    }
  });
  return pool;
}

struct FanoutResult {
  uint32_t max_batch = 0;
  int fanout = 0;
  uint64_t gets = 0;
  uint64_t round_trips = 0;  // frames sent = requests_sent
  uint64_t batches = 0;
  uint64_t round_trips_saved = 0;
  uint64_t wire_bytes = 0;  // request + response legs
  double occupancy_mean = 0;
  double lat_p50_us = 0;
  double lat_p99_us = 0;
};

Task<> OneGet(rbio::RbioClient* client,
              const std::vector<rbio::Endpoint>* eps, PageId page_id,
              Lsn min_lsn, Simulator* sim, Histogram* lat,
              sim::WaitGroup* wg) {
  SimTime start = sim->now();
  Result<storage::Page> r = co_await client->GetPage(*eps, page_id, min_lsn);
  if (!r.ok()) abort();
  lat->Add(static_cast<double>(sim->now() - start));
  wg->Done();
}

FanoutResult RunFanout(Bed& bed, const std::vector<PageId>& pool,
                       uint32_t max_batch, int fanout, int rounds) {
  // Fresh client per configuration: its own CPU (a compute node's spare
  // cores) and clean counters.
  sim::CpuResource cpu(bed.sim, 2);
  rbio::RbioClientOptions copts;
  copts.max_batch = max_batch;
  rbio::RbioClient client(bed.sim, &cpu, copts,
                          /*seed=*/0xfa0 + max_batch * 1000 + fanout);
  std::vector<rbio::Endpoint> eps = {{bed.ps.get(), "ps0"}};
  Histogram lat;

  RunSim(bed.sim, [&]() -> Task<> {
    sim::WaitGroup wg(bed.sim);
    for (int round = 0; round < rounds; round++) {
      wg.Add(fanout);
      for (int i = 0; i < fanout; i++) {
        PageId pid = pool[(static_cast<size_t>(round) * fanout + i) %
                          pool.size()];
        Spawn(bed.sim, OneGet(&client, &eps, pid, bed.end, &bed.sim, &lat,
                              &wg));
      }
      co_await wg.Wait();
    }
  });

  FanoutResult out;
  out.max_batch = max_batch;
  out.fanout = fanout;
  out.gets = static_cast<uint64_t>(fanout) * rounds;
  out.round_trips = client.requests_sent();
  out.batches = client.batches_sent();
  out.round_trips_saved = client.round_trips_saved();
  out.wire_bytes = client.wire_bytes_sent() + client.wire_bytes_received();
  out.occupancy_mean = client.batch_occupancy().mean();
  out.lat_p50_us = lat.Percentile(50.0);
  out.lat_p99_us = lat.Percentile(99.0);
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace socrates

int main(int argc, char** argv) {
  using socrates::bench::Bed;
  using socrates::bench::FanoutResult;
  using socrates::bench::FreshnessResult;

  socrates::bench::JsonOut json("getpage_fanout", argc, argv);

  printf("\n==========================================================\n");
  printf("GetPage@LSN fan-out: batched RBIO multiplexing + event-\n");
  printf("driven freshness waits (vs one-page frames + 300us polls)\n");
  printf("==========================================================\n");

  socrates::bench::GeneratedLog log = socrates::bench::GenerateLog();
  printf("stream: %" PRIu64 " records, %.1f MiB\n", log.records,
         static_cast<double>(log.stream.size()) / socrates::MiB);

  Bed bed;
  bed.Build(log);

  // Phase 1: probes chase the applier during catch-up.
  FreshnessResult fr = socrates::bench::RunFreshnessPhase(bed);
  printf("\n-- phase 1: freshness-wake precision (catch-up replay)\n");
  printf("probes %" PRIu64 "  wait p50 %.0fus  p99 %.0fus  "
         "below-300us %.1f%%\n",
         fr.probes, fr.p50_us, fr.p99_us, 100.0 * fr.frac_below_300us);
  printf("waiter wakes %" PRIu64 "  wake lag mean %.1fus max %.1fus "
         "(poll loop: up to 300us)\n",
         fr.waiter_wakes, fr.wake_lag_mean_us, fr.wake_lag_max_us);
  json.Line("{\"bench\":\"getpage_fanout\",\"phase\":\"freshness_wake\","
            "\"probes\":%" PRIu64 ",\"wait_p50_us\":%.1f,"
            "\"wait_p99_us\":%.1f,\"frac_below_300us\":%.4f,"
            "\"waiter_wakes\":%" PRIu64 ",\"wake_lag_mean_us\":%.2f,"
            "\"wake_lag_max_us\":%.2f}",
            fr.probes, fr.p50_us, fr.p99_us, fr.frac_below_300us,
            fr.waiter_wakes, fr.wake_lag_mean_us, fr.wake_lag_max_us);

  // Phase 2: fan-out sweep over a warm server.
  std::vector<socrates::PageId> pool =
      socrates::bench::CollectPagePool(bed, 320);
  printf("\n-- phase 2: fan-out sweep (%zu distinct pages, 30 rounds)\n",
         pool.size());
  printf("%-6s %8s %8s %10s %8s %8s %10s %10s\n", "batch", "fanout",
         "gets", "roundtrip", "saved", "occup", "p50 us", "p99 us");

  constexpr int kRounds = 30;
  std::vector<FanoutResult> results;
  for (int fanout : {1, 4, 16, 64, 256}) {
    for (uint32_t max_batch : {1u, 16u}) {
      FanoutResult r = socrates::bench::RunFanout(bed, pool, max_batch,
                                                  fanout, kRounds);
      results.push_back(r);
      printf("%-6u %8d %8" PRIu64 " %10" PRIu64 " %8" PRIu64
             " %8.1f %10.0f %10.0f\n",
             r.max_batch, r.fanout, r.gets, r.round_trips,
             r.round_trips_saved, r.occupancy_mean, r.lat_p50_us,
             r.lat_p99_us);
      json.Line("{\"bench\":\"getpage_fanout\",\"phase\":\"fanout\","
                "\"max_batch\":%u,\"fanout\":%d,\"gets\":%" PRIu64 ","
                "\"round_trips\":%" PRIu64 ",\"batches\":%" PRIu64 ","
                "\"round_trips_saved\":%" PRIu64 ",\"wire_bytes\":%" PRIu64
                ",\"occupancy_mean\":%.2f,"
                "\"lat_p50_us\":%.1f,\"lat_p99_us\":%.1f}",
                r.max_batch, r.fanout, r.gets, r.round_trips, r.batches,
                r.round_trips_saved, r.wire_bytes, r.occupancy_mean,
                r.lat_p50_us, r.lat_p99_us);
    }
  }

  // Headline: the 64-way fan-out comparison (the acceptance bar is >=2x
  // fewer round trips and a p99 drop at 64+ clients).
  for (size_t i = 0; i + 1 < results.size(); i += 2) {
    const FanoutResult& single = results[i];
    const FanoutResult& batched = results[i + 1];
    if (single.fanout < 64) continue;
    double rt_ratio = batched.round_trips > 0
                          ? static_cast<double>(single.round_trips) /
                                static_cast<double>(batched.round_trips)
                          : 0.0;
    printf("fanout %-4d round-trip reduction %.1fx   p99 %0.f -> %.0f us\n",
           single.fanout, rt_ratio, single.lat_p99_us, batched.lat_p99_us);
  }
  return 0;
}
