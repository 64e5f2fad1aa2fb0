// End-to-end benchmark program: builds a Socrates Deployment through its
// public API, loads CDB, drives it with the benchmark's own transaction
// generator, checks the results, and prints one JSON line of metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--traced]
//
// Everything runs in this process on the single simulator thread;
// simulated clients are coroutines. A run is kRounds rounds, each a fresh
// deployment (set-up timed on the wall clock) followed by a measured
// window of simulated time. Simulated metrics pool every round and repeat
// exactly for a seed; wall-clock metrics are medians over rounds.
//
// --traced installs the passive span recorders of tracing.h and adds the
// per-layer metrics; the simulated metrics and the executed-event count
// must equal those of the untraced run (run.py compares them).

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "service/deployment.h"
#include "tracing.h"
#include "workload/cdb.h"

namespace perfbench {
namespace {

using namespace socrates;
using Clock = std::chrono::steady_clock;

constexpr int kRounds = 5;
constexpr int kMaxAttempts = 32;
constexpr SimTime kWarmupUs = 300 * 1000;

struct WorkloadSpec {
  const char* name;
  workload::CdbMix mix;
  /// Closed loop with `clients` clients, else open loop with Poisson
  /// arrivals at `rate_per_s`.
  int clients;
  double rate_per_s;
  double cache_mem_frac;
  double cache_ssd_frac;
  sim::DeviceProfile lz;
  uint32_t lite_payload_bytes;
  /// Simulated seconds measured per --seconds, over all rounds: 1-2x
  /// --seconds of wall time on a 4-core x86 machine. oltp_default gets
  /// the most, since its p99 depends on which queue a round settles in.
  double sim_s_per_s;
};

constexpr uint64_t kScaleFactor = 1200;
constexpr int kCores = 8;
constexpr double kCpuScale = 6.8;  // Table 2's calibration
constexpr int kPageServers = 4;

std::vector<WorkloadSpec> Workloads() {
  return {
      {"oltp_default", workload::CdbMix::Default(), 64, 0, 0.056, 0.168,
       sim::DeviceProfile::DirectDrive(), 0, 2.2},
      {"read_cold", workload::CdbMix::Interference(), 0, 1900, 0.01, 0.03,
       sim::DeviceProfile::DirectDrive(), 0, 0.6},
      {"commit_heavy", workload::CdbMix::UpdateLite(), 0, 3000, 4.0, 1.0,
       sim::DeviceProfile::Xio(), 1024, 1.8},
  };
}

double WallSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Run events until `fn()`'s task finishes (background service loops keep
// scheduling timers forever, so Simulator::Run would never return).
template <typename Fn>
bool RunSim(sim::Simulator& s, Fn&& fn) {
  bool done = false;
  sim::Spawn(s, [](sim::Task<> inner, bool* d) -> sim::Task<> {
    co_await std::move(inner);
    *d = true;
  }(fn(), &done));
  while (!done && s.Step()) {
  }
  return done;
}

// ---------------------------------------------------------------------
// Counters read through public accessors, diffed across the window.

struct PsSnap {
  SimTime busy_us = 0;
  int cores = 0;
  SimTime apply_busy_us = 0;
  uint64_t scan_rows = 0;
  uint64_t scan_tuples = 0;
  Histogram getpage_service_us;
  Histogram freshness_wait_us;
  Histogram checkpoint_us;
};

struct Snapshot {
  SimTime now = 0;
  uint64_t events = 0;
  engine::EngineStats eng;
  engine::BufferPoolStats pool;
  SimTime primary_busy_us = 0;
  uint64_t remote_fetches = 0;
  Histogram remote_fetch_us;
  uint64_t rbio_requests = 0;
  uint64_t rbio_retries = 0;
  uint64_t rbio_batches = 0;
  uint64_t rbio_batched_pages = 0;
  uint64_t rbio_wire_bytes = 0;
  uint64_t rbio_scans_overloaded = 0;
  std::vector<PsSnap> ps;
  uint64_t log_blocks = 0;
  uint64_t log_bytes = 0;
  uint64_t lz_stored_bytes = 0;
  uint64_t lz_stalls = 0;
  Histogram enqueue_us;
  Histogram quorum_us;
  Histogram visible_us;
  uint64_t xstore_bytes_written = 0;
  uint64_t xstore_reads = 0;
};

Snapshot Take(sim::Simulator& s, service::Deployment& d) {
  Snapshot n;
  n.now = s.now();
  n.events = s.events_executed();
  compute::ComputeNode* p = d.primary();
  n.eng = p->engine()->stats();
  n.pool = p->pool()->stats();
  n.primary_busy_us = p->cpu().busy_micros();
  n.remote_fetches = p->remote_fetches();
  n.remote_fetch_us = p->remote_fetch_us();
  rbio::RbioClient& rc = p->rbio_client();
  n.rbio_requests = rc.requests_sent();
  n.rbio_retries = rc.retries();
  n.rbio_batches = rc.batches_sent();
  n.rbio_batched_pages = rc.batched_pages();
  n.rbio_wire_bytes = rc.wire_bytes_sent() + rc.wire_bytes_received();
  n.rbio_scans_overloaded = rc.scans_overloaded();
  for (int i = 0; i < d.num_page_servers(); i++) {
    pageserver::PageServer* ps = d.page_server(i);
    PsSnap q;
    q.busy_us = ps->cpu().busy_micros();
    q.cores = ps->cpu().cores();
    q.apply_busy_us = ps->applier().apply_busy_us();
    q.scan_rows = ps->scan_rows_scanned();
    q.scan_tuples = ps->scan_tuples_returned();
    q.getpage_service_us = ps->getpage_service_us();
    q.freshness_wait_us = ps->freshness_wait_us();
    q.checkpoint_us = ps->checkpoint_duration_us();
    n.ps.push_back(std::move(q));
  }
  xlog::XLogClient& lc = d.log_client();
  n.log_blocks = lc.blocks_written();
  n.log_bytes = lc.bytes_written();
  n.lz_stored_bytes = d.landing_zone().stored_bytes_written();
  n.lz_stalls = lc.lz_stalls();
  n.enqueue_us = lc.enqueue_phase();
  n.quorum_us = lc.quorum_phase();
  n.visible_us = lc.visible_phase();
  n.xstore_bytes_written = d.xstore().stats().bytes_written;
  n.xstore_reads = d.xstore().stats().reads;
  return n;
}

// Window percentile of one histogram summed over every Page Server.
double PsWindowPercentile(const Snapshot& a, const Snapshot& b,
                          Histogram PsSnap::*h, double p) {
  Histogram before, after;
  for (size_t i = 0; i < a.ps.size(); i++) {
    before.Merge(a.ps[i].*h);
    after.Merge(b.ps[i].*h);
  }
  return WindowPercentile(before, after, p);
}

// ---------------------------------------------------------------------
// Transaction generator.

struct RunState {
  RunState(sim::Simulator& s, service::Deployment* d)
      : sim(s), dep(d), inflight(s) {}
  sim::Simulator& sim;
  service::Deployment* dep;
  // One single-type CdbWorkload per transaction type: the benchmark picks
  // the type, so latency is attributed per type without touching the
  // workload module.
  std::vector<std::unique_ptr<workload::CdbWorkload>> by_type;
  std::array<double, workload::kCdbTxnTypes> weights{};
  bool stop = false;
  SimTime window_start = 0;
  SimTime window_end = 0;
  bool InWindow(SimTime t) const { return t >= window_start && t < window_end; }
  sim::WaitGroup inflight;
  TxnLedger ledger;
};

// One logical transaction: retried with the same keys (a copy of its RNG)
// and a fresh snapshot until it commits or runs out of attempts. Counted
// when it was due inside the measurement window.
sim::Task<> RunTxn(RunState* st, int type, Random rng, SimTime due) {
  compute::ComputeNode* p = st->dep->primary();
  int attempts = 0;
  bool committed = false;
  while (!committed && attempts < kMaxAttempts) {
    attempts++;
    Random r = rng;
    workload::TxnResult res =
        co_await st->by_type[type]->RunOne(p->engine(), &p->cpu(), &r);
    committed = res.committed;
    if (st->InWindow(st->sim.now())) st->ledger.RecordAttempt(committed);
  }
  if (st->InWindow(due)) {
    st->ledger.Record(type, committed,
                      static_cast<double>(st->sim.now() - due));
  }
}

sim::Task<> ClosedClient(RunState* st, uint64_t seed) {
  Random rng(seed);
  while (!st->stop) {
    int type = PickWeighted(st->weights, rng.NextDouble());
    Random txn_rng(rng.Next());
    co_await RunTxn(st, type, txn_rng, st->sim.now());
  }
  st->inflight.Done();
}

sim::Task<> OpenRequest(RunState* st, int type, Random rng, SimTime due) {
  co_await RunTxn(st, type, rng, due);
  st->inflight.Done();
}

sim::Task<> OpenGenerator(RunState* st, double rate_per_s, uint64_t seed) {
  Random rng(seed);
  const double mean_gap_us = 1e6 / rate_per_s;
  while (true) {
    co_await sim::Delay(st->sim,
                        static_cast<SimTime>(rng.Exponential(mean_gap_us)));
    if (st->stop) break;
    int type = PickWeighted(st->weights, rng.NextDouble());
    st->inflight.Add();
    sim::Spawn(st->sim,
               OpenRequest(st, type, Random(rng.Next()), st->sim.now()));
  }
  st->inflight.Done();
}

// ---------------------------------------------------------------------
// Correctness checks, run after every round's window.

struct Checks {
  std::vector<std::string> failures;
  uint64_t keys_compared = 0;
  uint64_t scans_compared = 0;
  uint64_t scans_pushed = 0;
  void Fail(std::string msg) { failures.push_back(std::move(msg)); }
};

// Poll (in simulated time) until `done()` or a 60 s simulated deadline.
sim::Task<bool> WaitUntil(sim::Simulator& s, std::function<bool()> done) {
  SimTime deadline = s.now() + 60 * 1000 * 1000;
  while (!done()) {
    if (s.now() >= deadline) co_return false;
    co_await sim::Delay(s, 1000);
  }
  co_return true;
}

std::string Project32(const std::string& payload) {
  return payload.substr(0, std::min<size_t>(payload.size(), 32));
}

sim::Task<> RunChecks(sim::Simulator& s, service::Deployment* d,
                      const workload::CdbWorkload& cdb, uint64_t seed,
                      Checks* out) {
  // 1. Quiesce: every Page Server applies the whole durable log.
  Status fs = co_await d->log_client().Flush();
  if (!fs.ok()) out->Fail("log flush: " + fs.ToString());
  Lsn end = d->durable_end();
  bool applied = co_await WaitUntil(s, [d, end] {
    for (int p = 0; p < d->num_page_servers(); p++) {
      if (d->page_server(p)->applied_lsn().value() < end) return false;
    }
    return true;
  });
  if (!applied) out->Fail("a Page Server did not apply up to durable_end");

  // 2. Primary vs a fresh Secondary, once it has caught up.
  Result<compute::ComputeNode*> sec = co_await d->AddSecondary();
  if (!sec.ok()) {
    out->Fail("AddSecondary: " + sec.status().ToString());
    co_return;
  }
  compute::ComputeNode* secondary = *sec;
  engine::Engine* pe = d->primary_engine();
  bool caught_up = co_await WaitUntil(
      s, [secondary, end] { return secondary->applied_lsn() >= end; });
  if (!caught_up) out->Fail("Secondary did not catch up to durable_end");

  Random rng(seed ^ 0xc4ec);
  auto ptxn = pe->Begin(true);
  auto stxn = secondary->engine()->Begin(true);
  for (int i = 0; i < 240; i++) {
    int t = static_cast<int>(rng.Uniform(6));
    // Mostly loaded rows, some inserted ones and some absent keys.
    uint64_t row = rng.Uniform(cdb.TableRows(t) + cdb.TableRows(t) / 8);
    uint64_t key = engine::MakeKey(static_cast<TableId>(t + 1), row);
    Result<std::string> a = co_await pe->Get(ptxn.get(), key);
    Result<std::string> b = co_await secondary->engine()->Get(stxn.get(), key);
    out->keys_compared++;
    if (a.ok() != b.ok() || (a.ok() && *a != *b) ||
        (!a.ok() && a.status().code() != b.status().code())) {
      out->Fail("primary/secondary mismatch at key " + std::to_string(key));
    }
  }
  (void)co_await pe->Commit(ptxn.get());
  (void)co_await secondary->engine()->Commit(stxn.get());

  // 3. ScanWhere on both nodes (the Secondary's cache is cold, so its
  // planner pushes down) vs this benchmark's own filter over Engine::Scan.
  for (int i = 0; i < 8; i++) {
    int t = static_cast<int>(rng.Uniform(6));
    uint64_t rows = cdb.TableRows(t);
    uint64_t span = std::min<uint64_t>(rows, 512 + rng.Uniform(1537));
    uint64_t start = rng.Uniform(rows - span + 1);
    uint64_t mod = 8 << rng.Uniform(3);
    uint64_t lo = engine::MakeKey(static_cast<TableId>(t + 1), start);
    uint64_t hi = engine::MakeKey(static_cast<TableId>(t + 1), start + span);
    engine::ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(mod, rng.Uniform(mod));
    filter.projection.extents.push_back({0, 32});

    auto txn = pe->Begin(true);
    auto raw = co_await pe->Scan(txn.get(), lo, span);
    std::vector<std::pair<uint64_t, std::string>> want;
    if (raw.ok()) {
      for (auto& [key, payload] : *raw) {
        if (key < hi &&
            common::EvalPredicate(filter.predicate, key, Slice(payload))) {
          want.emplace_back(key, Project32(payload));
        }
      }
    } else {
      out->Fail("Engine::Scan: " + raw.status().ToString());
    }
    (void)co_await pe->Commit(txn.get());

    for (engine::Engine* e : {pe, secondary->engine()}) {
      auto stx = e->Begin(true);
      auto got = co_await e->ScanWhere(stx.get(), lo, hi, 0, filter);
      (void)co_await e->Commit(stx.get());
      out->scans_compared++;
      if (!got.ok()) {
        out->Fail("ScanWhere: " + got.status().ToString());
        continue;
      }
      if (got->pushed_down) out->scans_pushed++;
      if (got->rows != want) {
        out->Fail("ScanWhere differs from filtered Scan on table " +
                  std::to_string(t + 1));
      }
    }
  }
}

// ---------------------------------------------------------------------
// One round: set up, measure one window, check.

struct RunResult {
  TxnLedger ledger;
  std::vector<double> setup_s, wall_s;
  SimTime window_us = 0;
  uint64_t events = 0;       // executed inside the windows
  uint64_t trace_hash = 0;   // folded over every round's whole run
  Checks checks;
  // Sums of window diffs.
  double primary_busy_us = 0;
  double ps_busy_us = 0, ps_capacity_us = 0, ps_apply_busy_us = 0;
  double conflicts = 0, filtered_scans = 0, pushdown_scans = 0,
         pushdown_fallbacks = 0;
  double remote_fetches = 0, remote_fetch_us = 0;
  double pool_mem_hits = 0, pool_ssd_hits = 0, pool_misses = 0,
         pool_leaf_hits = 0, pool_leaf_misses = 0, pool_evictions = 0,
         pool_prefetch_issued = 0, pool_prefetch_hits = 0,
         pool_checksum_recomputes = 0;
  double rbio_requests = 0, rbio_retries = 0, rbio_batches = 0,
         rbio_batched_pages = 0, rbio_wire_bytes = 0,
         rbio_scans_overloaded = 0;
  double scan_rows = 0, scan_tuples = 0;
  double log_blocks = 0, log_bytes = 0, lz_stored_bytes = 0, lz_stalls = 0;
  double xstore_bytes_written = 0, xstore_reads = 0;
  // Per-round window percentiles of the program's own histograms.
  std::map<std::string, std::vector<double>> hist;
};

void AddDiffs(const Snapshot& a, const Snapshot& b, RunResult* r) {
  auto d = [](uint64_t x, uint64_t y) {
    return static_cast<double>(y - x);
  };
  r->primary_busy_us += static_cast<double>(b.primary_busy_us -
                                            a.primary_busy_us);
  for (size_t i = 0; i < a.ps.size(); i++) {
    r->ps_busy_us += static_cast<double>(b.ps[i].busy_us - a.ps[i].busy_us);
    r->ps_capacity_us +=
        static_cast<double>(b.now - a.now) * b.ps[i].cores;
    r->ps_apply_busy_us +=
        static_cast<double>(b.ps[i].apply_busy_us - a.ps[i].apply_busy_us);
    r->scan_rows += d(a.ps[i].scan_rows, b.ps[i].scan_rows);
    r->scan_tuples += d(a.ps[i].scan_tuples, b.ps[i].scan_tuples);
  }
  r->conflicts += d(a.eng.conflicts, b.eng.conflicts);
  r->filtered_scans += d(a.eng.filtered_scans, b.eng.filtered_scans);
  r->pushdown_scans += d(a.eng.pushdown_scans, b.eng.pushdown_scans);
  r->pushdown_fallbacks +=
      d(a.eng.pushdown_fallbacks, b.eng.pushdown_fallbacks);
  r->remote_fetches += d(a.remote_fetches, b.remote_fetches);
  r->pool_mem_hits += d(a.pool.mem_hits, b.pool.mem_hits);
  r->pool_ssd_hits += d(a.pool.ssd_hits, b.pool.ssd_hits);
  r->pool_misses += d(a.pool.misses, b.pool.misses);
  r->pool_leaf_hits += d(a.pool.leaf_hits, b.pool.leaf_hits);
  r->pool_leaf_misses += d(a.pool.leaf_misses, b.pool.leaf_misses);
  r->pool_evictions += d(a.pool.mem_evictions, b.pool.mem_evictions) +
                       d(a.pool.ssd_evictions, b.pool.ssd_evictions);
  r->pool_prefetch_issued += d(a.pool.prefetch_issued, b.pool.prefetch_issued);
  r->pool_prefetch_hits += d(a.pool.prefetch_hits, b.pool.prefetch_hits);
  r->pool_checksum_recomputes +=
      d(a.pool.checksum_recomputes, b.pool.checksum_recomputes);
  r->rbio_requests += d(a.rbio_requests, b.rbio_requests);
  r->rbio_retries += d(a.rbio_retries, b.rbio_retries);
  r->rbio_batches += d(a.rbio_batches, b.rbio_batches);
  r->rbio_batched_pages += d(a.rbio_batched_pages, b.rbio_batched_pages);
  r->rbio_wire_bytes += d(a.rbio_wire_bytes, b.rbio_wire_bytes);
  r->rbio_scans_overloaded +=
      d(a.rbio_scans_overloaded, b.rbio_scans_overloaded);
  r->log_blocks += d(a.log_blocks, b.log_blocks);
  r->log_bytes += d(a.log_bytes, b.log_bytes);
  r->lz_stored_bytes += d(a.lz_stored_bytes, b.lz_stored_bytes);
  r->lz_stalls += d(a.lz_stalls, b.lz_stalls);
  r->xstore_bytes_written +=
      d(a.xstore_bytes_written, b.xstore_bytes_written);
  r->xstore_reads += d(a.xstore_reads, b.xstore_reads);

  auto keep = [r](const char* name, double v) {
    if (!std::isnan(v)) r->hist[name].push_back(v);
  };
  keep("compute.remote_fetch_p50_us",
       WindowPercentile(a.remote_fetch_us, b.remote_fetch_us, 50));
  keep("compute.remote_fetch_p99_us",
       WindowPercentile(a.remote_fetch_us, b.remote_fetch_us, 99));
  double fetches = d(a.remote_fetch_us.count(), b.remote_fetch_us.count());
  if (fetches > 0) {
    r->remote_fetch_us +=
        WindowMean(a.remote_fetch_us, b.remote_fetch_us) * fetches;
  }
  keep("pageserver.getpage_service_p99_us",
       PsWindowPercentile(a, b, &PsSnap::getpage_service_us, 99));
  keep("pageserver.freshness_wait_p99_us",
       PsWindowPercentile(a, b, &PsSnap::freshness_wait_us, 99));
  keep("pageserver.checkpoint_p99_ms",
       PsWindowPercentile(a, b, &PsSnap::checkpoint_us, 99) / 1000.0);
  keep("xlog.enqueue_p99_us", WindowPercentile(a.enqueue_us, b.enqueue_us, 99));
  keep("xlog.quorum_p50_us", WindowPercentile(a.quorum_us, b.quorum_us, 50));
  keep("xlog.quorum_p99_us", WindowPercentile(a.quorum_us, b.quorum_us, 99));
  keep("xlog.visible_p99_us", WindowPercentile(a.visible_us, b.visible_us, 99));
}

service::DeploymentOptions MakeOptions(const WorkloadSpec& w,
                                       const workload::CdbWorkload& cdb) {
  uint64_t db_pages = cdb.ApproxBytes() / kPageSize + 64;
  service::DeploymentOptions d;
  d.lz_profile = w.lz;
  // 4x the per-server share of the loaded database, so table growth in
  // the window never runs past the last partition.
  d.partition_map.pages_per_partition =
      4 * (db_pages / kPageServers + 256);
  d.num_page_servers = kPageServers;
  d.compute.cpu_cores = kCores;
  d.compute.mem_pages = std::max<uint64_t>(
      16, static_cast<uint64_t>(db_pages * w.cache_mem_frac));
  d.compute.ssd_pages = std::max<uint64_t>(
      32, static_cast<uint64_t>(db_pages * w.cache_ssd_frac));
  d.page_server.mem_pages = 512;
  return d;
}

// `tracer` is null for an untraced run; a traced run pools every round's
// spans in it.
void RunRound(const WorkloadSpec& w, uint64_t seed, int round,
              SimTime window_us, Tracer* tracer, RunResult* out) {
  workload::CdbOptions copts;
  copts.scale_factor = kScaleFactor;
  copts.cpu_scale = kCpuScale;
  copts.lite_payload_bytes = w.lite_payload_bytes;
  workload::CdbWorkload cdb(copts, w.mix);

  sim::Simulator s;
  s.EnableTraceHash();
  service::DeploymentOptions dopts = MakeOptions(w, cdb);
  std::unique_ptr<TracingRouter> router;
  if (tracer) {
    router = std::make_unique<TracingRouter>(dopts.partition_map, tracer);
    dopts.compute_router = router.get();
  }

  // Set-up: Deployment::Start, the CDB load and the Page-Server quiesce.
  Clock::time_point t0 = Clock::now();
  auto dep = std::make_unique<service::Deployment>(s, dopts);
  if (tracer) {
    tracer->sim = &s;
    tracer->dep = dep.get();
  }
  Status setup = Status::OK();
  bool ok = RunSim(s, [&]() -> sim::Task<> {
    setup = co_await dep->Start();
    if (!setup.ok()) co_return;
    setup = co_await cdb.Load(dep->primary_engine());
    if (!setup.ok()) co_return;
    for (int p = 0; p < dep->num_page_servers(); p++) {
      co_await dep->page_server(p)->applied_lsn().WaitFor(
          dep->log_client().end_lsn());
    }
  });
  out->setup_s.push_back(WallSince(t0));
  if (!ok || !setup.ok()) {
    out->checks.Fail("set-up failed: " + setup.ToString());
    return;
  }

  std::unique_ptr<TracingLogSink> sink;
  std::unique_ptr<TracingScanner> scanner;
  engine::Engine* pe = dep->primary_engine();
  if (tracer) {
    sink = std::make_unique<TracingLogSink>(pe->sink(), tracer);
    pe->SetSink(sink.get());
    scanner = std::make_unique<TracingScanner>(pe->remote_scanner(), tracer);
    pe->SetRemoteScanner(scanner.get());
  }

  RunState st(s, dep.get());
  for (int t = 0; t < workload::kCdbTxnTypes; t++) {
    workload::CdbMix one;
    one.weights[t] = 1.0;
    st.by_type.push_back(std::make_unique<workload::CdbWorkload>(copts, one));
    st.weights[t] = w.mix.weights[t];
  }

  Snapshot before, after;
  double wall = 0;
  uint64_t round_seed = seed * 1000003 + static_cast<uint64_t>(round);
  ok = RunSim(s, [&]() -> sim::Task<> {
    st.window_start = s.now() + kWarmupUs;
    st.window_end = st.window_start + window_us;
    if (w.clients > 0) {
      st.inflight.Add(w.clients);
      for (int c = 0; c < w.clients; c++) {
        sim::Spawn(s, ClosedClient(&st, round_seed * 7919 + c));
      }
    } else {
      st.inflight.Add();
      sim::Spawn(s, OpenGenerator(&st, w.rate_per_s, round_seed));
    }
    co_await sim::Delay(s, kWarmupUs);
    before = Take(s, *dep);
    Clock::time_point w0 = Clock::now();
    if (tracer) tracer->active = true;
    co_await sim::Delay(s, window_us);
    if (tracer) tracer->active = false;
    wall = WallSince(w0);
    after = Take(s, *dep);
    st.stop = true;
    if (st.inflight.count() > 0) co_await st.inflight.Wait();
    co_await RunChecks(s, dep.get(), cdb, round_seed, &out->checks);
  });
  if (!ok) out->checks.Fail("simulation stalled before the round finished");

  out->wall_s.push_back(wall);
  out->window_us += window_us;
  out->events += after.events - before.events;
  out->trace_hash = out->trace_hash * 1099511628211ull ^ s.trace_hash();
  out->ledger.Merge(st.ledger);
  AddDiffs(before, after, out);
  // Leave the round's sink and scanner in place until the deployment is
  // gone: detached coroutines may still hold them.
  dep->Stop();
  dep.reset();
}

// ---------------------------------------------------------------------
// Output.

double Median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  return SortedPercentile(v, 50);
}

struct Emitter {
  std::string body;
  void Metric(const std::string& name, double value, const char* unit) {
    if (std::isnan(value) || std::isinf(value)) value = 0;
    char buf[256];
    snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}",
             body.empty() ? "" : ",", name.c_str(), value, unit);
    body += buf;
  }
  // Median and p99 of a timing, plus its sample count.
  void TimingMetric(const std::string& prefix, const std::vector<double>& v,
                    const char* unit, std::string* counts) {
    Timing t = Summarize(v);
    Metric(prefix + "_p50_" + unit, t.p50, unit);
    Metric(prefix + "_p99_" + unit, t.p99, unit);
    char buf[128];
    snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64,
             counts->empty() ? "" : ",", prefix.c_str(), t.n);
    *counts += buf;
  }
};

std::string JsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

void Print(const WorkloadSpec& w, uint64_t seed, const Tracer* tracer,
           const RunResult& r) {
  const TxnLedger& L = r.ledger;
  double window_s = static_cast<double>(r.window_us) / 1e6;
  double txns = static_cast<double>(L.committed);
  Emitter e;
  std::string counts;

  // End-to-end, simulated. The mean, not the median: on oltp_default the
  // median swings by a third between seeds (writes queue either on the
  // commit mutex or on the CPU), while the mean is pinned by throughput.
  Timing all = Summarize(L.all_us);
  e.Metric("tps", Ratio(txns, window_s), "txn/s");
  e.Metric("txn_mean_us", all.mean, "us");
  e.Metric("txn_p99_us", all.p99, "us");
  counts = "\"txn\":" + std::to_string(all.n);
  e.Metric("primary_cpu_pct",
           100.0 * Ratio(r.primary_busy_us,
                         static_cast<double>(r.window_us) * kCores),
           "%");
  // End-to-end, wall clock.
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  e.Metric("wall_s", Median(r.wall_s), "s");
  e.Metric("setup_s", Median(r.setup_s), "s");
  e.Metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");

  if (tracer) {
    // Per transaction type (simulated).
    for (int c = 0; c < kTxnClasses; c++) {
      e.TimingMetric(std::string("txn.") + kClassNames[c], L.latency_us[c],
                     "us", &counts);
    }
    FailureSplit f = SplitFailures(L.attempts, L.failed_attempts,
                                   static_cast<uint64_t>(r.conflicts));
    e.Metric("txn.failed_pct",
             100.0 * Ratio(static_cast<double>(L.failed),
                           static_cast<double>(L.transactions)),
             "%");
    e.Metric("txn.attempts_per_txn",
             Ratio(static_cast<double>(L.attempts),
                   static_cast<double>(L.transactions)),
             "count");

    // compute
    double in_spans = r.remote_fetch_us;
    for (double v : tracer->commit_wait_us) in_spans += v;
    for (double v : tracer->scan_leaves_us) in_spans += v;
    e.Metric("compute.cpu_busy_us_per_txn", Ratio(r.primary_busy_us, txns),
             "us");
    e.Metric("compute.self_mean_us",
             std::max(0.0, all.mean - Ratio(in_spans, txns)), "us");
    auto hist = [&r](const char* name) {
      auto it = r.hist.find(name);
      return it == r.hist.end() ? 0.0 : Median(it->second);
    };
    e.Metric("compute.remote_fetch_p50_us",
             hist("compute.remote_fetch_p50_us"), "us");
    e.Metric("compute.remote_fetch_p99_us",
             hist("compute.remote_fetch_p99_us"), "us");
    e.Metric("compute.remote_fetches_per_txn", Ratio(r.remote_fetches, txns),
             "count");

    // engine
    double accesses = r.pool_mem_hits + r.pool_ssd_hits + r.pool_misses;
    e.Metric("engine.pool.local_hit_pct",
             100.0 * Ratio(r.pool_mem_hits + r.pool_ssd_hits, accesses), "%");
    e.Metric("engine.pool.leaf_hit_pct",
             100.0 * Ratio(r.pool_leaf_hits,
                           r.pool_leaf_hits + r.pool_leaf_misses),
             "%");
    e.Metric("engine.pool.ssd_hit_pct",
             100.0 * Ratio(r.pool_ssd_hits, accesses), "%");
    e.Metric("engine.pool.evictions_per_txn", Ratio(r.pool_evictions, txns),
             "count");
    e.Metric("engine.pool.prefetch_useful_pct",
             100.0 * Ratio(r.pool_prefetch_hits, r.pool_prefetch_issued), "%");
    e.Metric("engine.pool.checksum_recomputes_per_txn",
             Ratio(r.pool_checksum_recomputes, txns), "count");
    e.Metric("engine.conflicts_pct", f.conflicts_pct, "%");
    e.Metric("engine.failed_other_pct", f.other_pct, "%");
    e.Metric("engine.pushdown_pct",
             100.0 * Ratio(r.pushdown_scans, r.filtered_scans), "%");
    e.Metric("engine.pushdown_fallbacks_per_kscan",
             1000.0 * Ratio(r.pushdown_fallbacks, r.filtered_scans), "count");

    // rbio
    e.Metric("rbio.round_trips_per_txn", Ratio(r.rbio_requests, txns),
             "count");
    e.Metric("rbio.batch_occupancy_mean",
             Ratio(r.rbio_batched_pages, r.rbio_batches), "count");
    e.Metric("rbio.retries", r.rbio_retries, "count");
    e.Metric("rbio.wire_kb_per_txn", Ratio(r.rbio_wire_bytes / 1024.0, txns),
             "KiB");
    e.Metric("rbio.scans_overloaded", r.rbio_scans_overloaded, "count");

    // pageserver
    e.TimingMetric("pageserver.getpage_handle", tracer->getpage_us, "us",
                   &counts);
    e.TimingMetric("pageserver.batch_handle", tracer->batch_us, "us",
                   &counts);
    e.TimingMetric("pageserver.scan_handle", tracer->scan_us, "us", &counts);
    e.Metric("pageserver.getpage_service_p99_us",
             hist("pageserver.getpage_service_p99_us"), "us");
    e.Metric("pageserver.freshness_wait_p99_us",
             hist("pageserver.freshness_wait_p99_us"), "us");
    e.Metric("pageserver.cpu_util_pct",
             100.0 * Ratio(r.ps_busy_us, r.ps_capacity_us), "%");
    e.Metric("pageserver.scan_rows_per_tuple",
             Ratio(r.scan_rows, r.scan_tuples), "count");
    e.Metric("pageserver.apply_busy_ms", r.ps_apply_busy_us / 1000.0, "ms");
    Timing lag = Summarize(tracer->apply_lag_kb);
    e.Metric("pageserver.apply_lag_p99_kb", lag.p99, "KiB");
    e.Metric("pageserver.checkpoint_p99_ms",
             hist("pageserver.checkpoint_p99_ms"), "ms");

    // xlog
    e.TimingMetric("xlog.commit_wait", tracer->commit_wait_us, "us", &counts);
    e.Metric("xlog.enqueue_p99_us", hist("xlog.enqueue_p99_us"), "us");
    e.Metric("xlog.quorum_p50_us", hist("xlog.quorum_p50_us"), "us");
    e.Metric("xlog.quorum_p99_us", hist("xlog.quorum_p99_us"), "us");
    e.Metric("xlog.visible_p99_us", hist("xlog.visible_p99_us"), "us");
    e.Metric("xlog.block_mean_kb",
             Ratio(r.log_bytes / 1024.0, r.log_blocks), "KiB");
    e.Metric("xlog.blocks_per_ktxn", 1000.0 * Ratio(r.log_blocks, txns),
             "count");
    e.Metric("xlog.lz_bytes_per_write_txn",
             Ratio(r.lz_stored_bytes,
                   static_cast<double>(
                       L.latency_us[static_cast<int>(TxnClass::kWrite)].size())),
             "B");
    e.Metric("xlog.lz_stalls", r.lz_stalls, "count");

    // xstore
    e.Metric("xstore.write_mb", r.xstore_bytes_written / (1024.0 * 1024.0),
             "MiB");
    e.Metric("xstore.reads", r.xstore_reads, "count");

    // sim
    double wall_total = 0;
    for (double v : r.wall_s) wall_total += v;
    e.Metric("sim.events", static_cast<double>(r.events), "count");
    e.Metric("sim.events_per_wall_s",
             Ratio(static_cast<double>(r.events), wall_total), "1/s");
  }

  std::string failures;
  for (const std::string& f : r.checks.failures) {
    failures += (failures.empty() ? "\"" : ",\"") + JsonEscape(f) + "\"";
  }
  printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"traced\":%s,"
         "\"transactions\":%" PRIu64 ",\"failed\":%" PRIu64
         ",\"events\":%" PRIu64 ",\"trace_hash\":\"%016" PRIx64 "\","
         "\"checks\":{\"keys_compared\":%" PRIu64 ",\"scans_compared\":%"
         PRIu64 ",\"scans_pushed\":%" PRIu64 ",\"failures\":[%s]},"
         "\"counts\":{%s},\"metrics\":{%s}}\n",
         w.name, seed, tracer ? "true" : "false", L.transactions, L.failed,
         r.events, r.trace_hash, r.checks.keys_compared,
         r.checks.scans_compared, r.checks.scans_pushed, failures.c_str(),
         counts.c_str(), e.body.c_str());
}

int Usage() {
  fprintf(stderr,
          "usage: perfbench --workload <name> --seed <n> --seconds <s> "
          "[--traced]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string name;
  uint64_t seed = 0;
  double seconds = 0;
  bool traced = false;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (a == "--traced") {
      traced = true;
    } else if (i + 1 < argc && a == "--workload") {
      name = argv[++i];
    } else if (i + 1 < argc && a == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (i + 1 < argc && a == "--seconds") {
      seconds = std::strtod(argv[++i], nullptr);
    } else {
      return Usage();
    }
  }
  if (seconds <= 0) return Usage();
  for (const WorkloadSpec& w : Workloads()) {
    if (name != w.name) continue;
    SimTime window_us = static_cast<SimTime>(seconds * w.sim_s_per_s * 1e6 /
                                             kRounds);
    std::unique_ptr<Tracer> tracer;
    if (traced) tracer = std::make_unique<Tracer>();
    RunResult r;
    for (int round = 0; round < kRounds; round++) {
      RunRound(w, seed, round, window_us, tracer.get(), &r);
    }
    Print(w, seed, tracer.get(), r);
    return r.checks.failures.empty() ? 0 : 1;
  }
  return Usage();
}
