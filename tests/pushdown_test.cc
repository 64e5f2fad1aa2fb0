// Computation pushdown tests (RBIO kScanRange): the ScanWhere planner
// against a fake RemoteScanner (eligibility, chunked resume, fence-miss
// retry, mid-scan fallback, write-set overlay), and end to end through a
// real deployment (pushdown vs local plans must agree row for row; chaos
// bursts and admission sheds never corrupt results).

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/coding.h"
#include "engine/log_sink.h"
#include "engine/txn_engine.h"
#include "service/deployment.h"

namespace socrates {
namespace engine {
namespace {

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
  while (!done && s.Step()) {
  }
  ASSERT_TRUE(done);
}

// Payload whose first 8 bytes are a known aggregate field (3*key, LE)
// followed by a predicate-testable tail.
std::string RowPayload(uint64_t key) {
  std::string p;
  PutFixed64(&p, key * 3);
  p += "tail-" + std::to_string(key);
  return p;
}

// ----------------------------------------------------- fake RemoteScanner

// Evaluates specs over an in-memory copy of the data with the real
// scan_expr functions; knobs inject chunking, fence misses, and errors.
class FakeScanner : public RemoteScanner {
 public:
  bool enabled = true;
  uint64_t chunk_span = UINT64_MAX;  // keys evaluated per call
  int fence_misses_to_inject = 0;
  int error_after_chunks = -1;  // serve this many chunks, then error
  int calls = 0;
  int chunks_served = 0;
  std::map<uint64_t, std::string> data;

  bool Enabled() const override { return enabled; }

  Task<Result<RemoteScanChunk>> ScanLeaves(
      PageId, const RemoteScanSpec& spec) override {
    calls++;
    if (fence_misses_to_inject > 0) {
      fence_misses_to_inject--;
      RemoteScanChunk c;
      c.fence_miss = true;
      c.resume_key = spec.start_key;
      co_return c;
    }
    if (error_after_chunks >= 0 && chunks_served >= error_after_chunks) {
      co_return Result<RemoteScanChunk>(
          Status::Unavailable("fake transport error"));
    }
    chunks_served++;
    RemoteScanChunk c;
    uint64_t hi = spec.end_key;
    if (chunk_span != UINT64_MAX &&
        spec.end_key - spec.start_key > chunk_span) {
      hi = spec.start_key + chunk_span;
    }
    for (auto it = data.lower_bound(spec.start_key);
         it != data.end() && it->first < hi; ++it) {
      c.rows_scanned++;
      if (!common::EvalPredicate(spec.predicate, it->first,
                                 Slice(it->second))) {
        continue;
      }
      if (spec.aggregate.enabled()) {
        c.agg.Accumulate(
            common::AggFieldValue(spec.aggregate, Slice(it->second)));
      } else {
        std::string out;
        spec.projection.Apply(Slice(it->second), &out);
        c.tuples.emplace_back(it->first, std::move(out));
      }
    }
    c.complete = hi >= spec.end_key;
    c.resume_key = hi;
    co_return c;
  }
};

// ---------------------------------------------------------- local fixture

struct EngineFixture {
  Simulator sim;
  MemLogSink sink{sim};
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<Engine> engine;
  FakeScanner fake;

  explicit EngineFixture(uint64_t rows = 400) {
    BufferPoolOptions opts;
    opts.mem_pages = 4096;
    pool = std::make_unique<BufferPool>(sim, opts, nullptr);
    engine = std::make_unique<Engine>(sim, pool.get(), &sink);
    RunSim(sim, [&]() -> Task<> {
      EXPECT_TRUE((co_await engine->Bootstrap()).ok());
      for (uint64_t i = 0; i < rows; i += 64) {
        auto txn = engine->Begin();
        for (uint64_t k = i; k < std::min(rows, i + 64); k++) {
          std::string p = RowPayload(k);
          fake.data[k] = p;
          (void)engine->Put(txn.get(), k, p);
        }
        EXPECT_TRUE((co_await engine->Commit(txn.get())).ok());
      }
    });
  }
};

// Reference evaluation of a tuple-mode filter over [start, end).
std::vector<std::pair<uint64_t, std::string>> Expected(
    const std::map<uint64_t, std::string>& data, uint64_t start,
    uint64_t end, const ScanFilter& f) {
  std::vector<std::pair<uint64_t, std::string>> out;
  for (auto it = data.lower_bound(start);
       it != data.end() && it->first < end; ++it) {
    if (!common::EvalPredicate(f.predicate, it->first,
                               Slice(it->second))) {
      continue;
    }
    std::string v;
    f.projection.Apply(Slice(it->second), &v);
    out.emplace_back(it->first, v);
  }
  return out;
}

// -------------------------------------------------------- local-plan path

TEST(ScanWhereLocalTest, FilterAndProjection) {
  EngineFixture f;
  ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(8, 3);
  filter.projection.extents.push_back({8, 6});  // "tail-N" prefix
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin(true);
    auto r = co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_FALSE(r->pushed_down);  // no scanner attached
      EXPECT_EQ(r->rows, Expected(f.fake.data, 0, 400, filter));
      EXPECT_EQ(r->rows.size(), 50u);
      EXPECT_EQ(r->rows[0].first, 3u);
      EXPECT_EQ(r->rows[0].second, "tail-3");
    }
    (void)co_await f.engine->Commit(txn.get());
  });
  EXPECT_EQ(f.engine->stats().filtered_scans, 1u);
  EXPECT_EQ(f.engine->stats().pushdown_scans, 0u);
}

TEST(ScanWhereLocalTest, LimitCapsRows) {
  EngineFixture f;
  ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(4, 0);
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin(true);
    auto r = co_await f.engine->ScanWhere(txn.get(), 0, 400, 7, filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r->rows.size(), 7u);
      EXPECT_EQ(r->rows.back().first, 24u);
    }
    (void)co_await f.engine->Commit(txn.get());
  });
}

TEST(ScanWhereLocalTest, Aggregates) {
  EngineFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin(true);
    // COUNT of keys % 10 == 5 in [0, 400): 40 rows.
    ScanFilter count;
    count.predicate = common::ScanPredicate::KeyModEq(10, 5);
    count.aggregate = common::ScanAggregate::Count();
    auto r = co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, count);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_TRUE(r->aggregated);
      EXPECT_TRUE(r->rows.empty());
      EXPECT_EQ(r->agg.rows, 40u);
    }
    // SUM of the field (3*key) over the same rows.
    ScanFilter sum = count;
    sum.aggregate = common::ScanAggregate::Sum(0);
    auto r2 = co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, sum);
    EXPECT_TRUE(r2.ok());
    if (r2.ok()) {
      uint64_t want = 0;
      for (uint64_t k = 5; k < 400; k += 10) want += k * 3;
      EXPECT_EQ(r2->agg.value, want);
    }
    (void)co_await f.engine->Commit(txn.get());
  });
}

TEST(ScanWhereLocalTest, WriteSetOverlay) {
  EngineFixture f;
  ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(2, 0);  // even keys
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin();
    // Delete a matching row, overwrite another one, and write a brand-new
    // matching key — all uncommitted, all must be reflected.
    EXPECT_TRUE(f.engine->Delete(txn.get(), 4).ok());
    EXPECT_TRUE(f.engine->Put(txn.get(), 6, RowPayload(600)).ok());
    EXPECT_TRUE(f.engine->Put(txn.get(), 1000, RowPayload(1000)).ok());
    auto r = co_await f.engine->ScanWhere(txn.get(), 0, 2000, 0, filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      std::map<uint64_t, std::string> want_data = f.fake.data;
      want_data.erase(4);
      want_data[6] = RowPayload(600);
      want_data[1000] = RowPayload(1000);
      EXPECT_EQ(r->rows, Expected(want_data, 0, 2000, filter));
    }
    f.engine->Abort(txn.get());
  });
}

// ------------------------------------------------- planner w/ FakeScanner

TEST(ScanWherePlannerTest, SelectivePredicatePushesDown) {
  EngineFixture f;
  f.engine->SetRemoteScanner(&f.fake);
  ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(16, 1);  // ~6%
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin(true);
    auto r = co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_TRUE(r->pushed_down);
      EXPECT_EQ(r->fallbacks, 0u);
      EXPECT_EQ(r->rows, Expected(f.fake.data, 0, 400, filter));
    }
    (void)co_await f.engine->Commit(txn.get());
  });
  EXPECT_GT(f.fake.calls, 0);
  EXPECT_EQ(f.engine->stats().pushdown_scans, 1u);
}

TEST(ScanWherePlannerTest, AggregatePushesDownEvenUnfiltered) {
  EngineFixture f;
  f.engine->SetRemoteScanner(&f.fake);
  ScanFilter filter;
  filter.aggregate = common::ScanAggregate::Sum(0);
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin(true);
    auto r = co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_TRUE(r->pushed_down);
      uint64_t want = 0;
      for (uint64_t k = 0; k < 400; k++) want += k * 3;
      EXPECT_EQ(r->agg.value, want);
      EXPECT_EQ(r->agg.rows, 400u);
    }
    (void)co_await f.engine->Commit(txn.get());
  });
  EXPECT_GT(f.fake.calls, 0);
}

TEST(ScanWherePlannerTest, AggregateWithWritesInRangeStaysLocal) {
  EngineFixture f;
  f.engine->SetRemoteScanner(&f.fake);
  ScanFilter filter;
  filter.aggregate = common::ScanAggregate::Count();
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin();
    // The server cannot see this uncommitted row; the aggregate must run
    // locally (and count it).
    EXPECT_TRUE(f.engine->Put(txn.get(), 1000, RowPayload(1000)).ok());
    auto r = co_await f.engine->ScanWhere(txn.get(), 0, 2000, 0, filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_FALSE(r->pushed_down);
      EXPECT_EQ(r->agg.rows, 401u);
    }
    f.engine->Abort(txn.get());
  });
  EXPECT_EQ(f.fake.calls, 0);
}

TEST(ScanWherePlannerTest, ChunkedResumeCoversWholeRange) {
  EngineFixture f;
  f.engine->SetRemoteScanner(&f.fake);
  f.fake.chunk_span = 64;  // force many chunks
  ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin(true);
    auto r = co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_TRUE(r->pushed_down);
      EXPECT_EQ(r->rows, Expected(f.fake.data, 0, 400, filter));
    }
    (void)co_await f.engine->Commit(txn.get());
  });
  EXPECT_GE(f.fake.chunks_served, 6);  // ceil(400/64)
}

TEST(ScanWherePlannerTest, FenceMissRetriesThenSucceeds) {
  EngineFixture f;
  f.engine->SetRemoteScanner(&f.fake);
  f.fake.fence_misses_to_inject = 2;  // below the retry budget
  ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin(true);
    auto r = co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_TRUE(r->pushed_down);
      EXPECT_EQ(r->fallbacks, 0u);
      EXPECT_EQ(r->rows, Expected(f.fake.data, 0, 400, filter));
    }
    (void)co_await f.engine->Commit(txn.get());
  });
  EXPECT_GE(f.fake.calls, 3);
}

TEST(ScanWherePlannerTest, PersistentFenceMissFallsBackToLocal) {
  EngineFixture f;
  f.engine->SetRemoteScanner(&f.fake);
  f.fake.fence_misses_to_inject = 1000;  // a split storm that never ends
  ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin(true);
    auto r = co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_FALSE(r->pushed_down);
      EXPECT_GE(r->fallbacks, 1u);
      EXPECT_EQ(r->rows, Expected(f.fake.data, 0, 400, filter));
    }
    (void)co_await f.engine->Commit(txn.get());
  });
  EXPECT_EQ(f.engine->stats().pushdown_fallbacks, 1u);
}

TEST(ScanWherePlannerTest, MidScanErrorFallsBackForTheTail) {
  EngineFixture f;
  f.engine->SetRemoteScanner(&f.fake);
  f.fake.chunk_span = 64;
  f.fake.error_after_chunks = 2;  // two good chunks, then the link dies
  ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin(true);
    auto r = co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      // Partial remote results + local tail must still be exact.
      EXPECT_TRUE(r->pushed_down);
      EXPECT_GE(r->fallbacks, 1u);
      EXPECT_EQ(r->rows, Expected(f.fake.data, 0, 400, filter));
    }
    (void)co_await f.engine->Commit(txn.get());
  });
}

TEST(ScanWherePlannerTest, AggregateFallbackTailAccumulatesLocally) {
  EngineFixture f;
  f.engine->SetRemoteScanner(&f.fake);
  f.fake.chunk_span = 64;
  f.fake.error_after_chunks = 1;  // one remote chunk, rest local
  ScanFilter filter;
  filter.aggregate = common::ScanAggregate::Sum(0);
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin(true);
    auto r = co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      uint64_t want = 0;
      for (uint64_t k = 0; k < 400; k++) want += k * 3;
      EXPECT_EQ(r->agg.value, want);
      EXPECT_EQ(r->agg.rows, 400u);
    }
    (void)co_await f.engine->Commit(txn.get());
  });
}

// --------------------------------------------- end to end via deployment

service::DeploymentOptions SmallDeployment() {
  service::DeploymentOptions o;
  o.partition_map.pages_per_partition = 8192;
  o.num_page_servers = 1;
  o.compute.mem_pages = 64;  // most leaves are remote
  o.compute.ssd_pages = 128;
  // These tests exercise the kScanRange wire path end to end; force it
  // so the residency-aware planner cannot (correctly!) keep the small
  // warm fixture local. The cost planner has its own tests
  // (ScanCostPlannerTest).
  o.compute.pushdown_plan = compute::PushdownPlan::kPush;
  return o;
}

Task<> Load(engine::Engine* e, uint64_t n) {
  for (uint64_t i = 0; i < n; i += 64) {
    auto txn = e->Begin();
    for (uint64_t k = i; k < std::min(n, i + 64); k++) {
      (void)e->Put(txn.get(), MakeKey(1, k), RowPayload(k));
    }
    EXPECT_TRUE((co_await e->Commit(txn.get())).ok());
  }
}

// Run the same filtered scan with pushdown and with the scanner detached;
// both plans must agree row for row.
Task<> ComparePlans(engine::Engine* e, uint64_t n,
                    const ScanFilter& filter, bool* pushed) {
  auto txn = e->Begin(true);
  auto remote =
      co_await e->ScanWhere(txn.get(), MakeKey(1, 0), MakeKey(1, n), 0,
                            filter);
  EXPECT_TRUE(remote.ok());
  RemoteScanner* scanner = e->remote_scanner();
  e->SetRemoteScanner(nullptr);
  auto local =
      co_await e->ScanWhere(txn.get(), MakeKey(1, 0), MakeKey(1, n), 0,
                            filter);
  e->SetRemoteScanner(scanner);
  EXPECT_TRUE(local.ok());
  if (remote.ok() && local.ok()) {
    *pushed = remote->pushed_down;
    EXPECT_EQ(remote->rows, local->rows);
    EXPECT_EQ(remote->agg.rows, local->agg.rows);
    EXPECT_EQ(remote->agg.value, local->agg.value);
  }
  (void)co_await e->Commit(txn.get());
}

TEST(PushdownEndToEndTest, TupleScanMatchesLocalPlan) {
  Simulator s;
  service::Deployment d(s, SmallDeployment());
  bool pushed = false;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 3000);
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    filter.projection.extents.push_back({0, 8});
    co_await ComparePlans(d.primary_engine(), 3000, filter, &pushed);
  });
  EXPECT_TRUE(pushed);
  EXPECT_GT(d.primary()->rbio_client().scans_sent(), 0u);
  EXPECT_GT(d.page_server(0)->scan_requests(), 0u);
  EXPECT_GT(d.page_server(0)->scan_tuples_returned(), 0u);
  d.Stop();
}

TEST(PushdownEndToEndTest, AggregateScanMatchesLocalPlan) {
  Simulator s;
  service::Deployment d(s, SmallDeployment());
  bool pushed = false;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 3000);
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(10, 5);
    filter.aggregate = common::ScanAggregate::Sum(0);
    co_await ComparePlans(d.primary_engine(), 3000, filter, &pushed);
  });
  EXPECT_TRUE(pushed);
  // Aggregate mode streams no tuples: one tiny state per chunk.
  EXPECT_EQ(d.primary()->rbio_client().scan_tuples_received(), 0u);
  EXPECT_GT(d.page_server(0)->scan_rows_scanned(), 0u);
  d.Stop();
}

TEST(PushdownEndToEndTest, UncommittedWritesOverlayPushedResults) {
  Simulator s;
  service::Deployment d(s, SmallDeployment());
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 3000);
    engine::Engine* e = d.primary_engine();
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    auto txn = e->Begin();
    // The Page Server cannot see these; the overlay must repair the
    // pushed-down stream.
    EXPECT_TRUE(e->Delete(txn.get(), MakeKey(1, 17)).ok());
    EXPECT_TRUE(e->Put(txn.get(), MakeKey(1, 3009), RowPayload(1)).ok());
    auto r = co_await e->ScanWhere(txn.get(), MakeKey(1, 0),
                                   MakeKey(1, 4000), 0, filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_TRUE(r->pushed_down);
      bool saw_deleted = false, saw_new = false;
      for (auto& [k, v] : r->rows) {
        if (k == MakeKey(1, 17)) saw_deleted = true;
        if (k == MakeKey(1, 3009)) saw_new = true;
      }
      EXPECT_FALSE(saw_deleted);
      EXPECT_TRUE(saw_new);
    }
    e->Abort(txn.get());
  });
  d.Stop();
}

TEST(PushdownEndToEndTest, TransientFailuresFallBackWithoutWrongResults) {
  Simulator s;
  service::Deployment d(s, SmallDeployment());
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 3000);
    engine::Engine* e = d.primary_engine();
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    uint64_t want = 0;
    for (uint64_t k = 1; k < 3000; k += 16) want++;
    uint64_t degraded = 0;
    for (int round = 0; round < 12; round++) {
      // Failure bursts straddling the retry budget: some scans retry
      // through, some degrade to the local path — none return wrong
      // rows.
      d.chaos().InjectFailures("ps-0", round % 5);
      auto txn = e->Begin(true);
      auto r = co_await e->ScanWhere(txn.get(), MakeKey(1, 0),
                                     MakeKey(1, 3000), 0, filter);
      EXPECT_TRUE(r.ok());
      if (r.ok()) {
        EXPECT_EQ(r->rows.size(), want);
        degraded += r->fallbacks;
      }
      (void)co_await e->Commit(txn.get());
    }
    // The chaos must have actually exercised at least one path end:
    // either a retry succeeded or a fallback happened.
    EXPECT_TRUE(d.primary()->rbio_client().retries() > 0 || degraded > 0);
  });
  d.Stop();
}

TEST(PushdownEndToEndTest, SecondaryScansAtAppliedWatermark) {
  Simulator s;
  service::DeploymentOptions o = SmallDeployment();
  o.num_secondaries = 1;
  service::Deployment d(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 2000);
    // Let the Secondary catch up to the full load.
    co_await d.secondary(0)->applier()->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    engine::Engine* e = d.secondary(0)->engine();
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    filter.aggregate = common::ScanAggregate::Count();
    auto txn = e->Begin(true);
    auto r = co_await e->ScanWhere(txn.get(), MakeKey(1, 0),
                                   MakeKey(1, 2000), 0, filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_TRUE(r->pushed_down);
      uint64_t want = 0;
      for (uint64_t k = 1; k < 2000; k += 16) want++;
      EXPECT_EQ(r->agg.rows, want);
    }
    (void)co_await e->Commit(txn.get());
  });
  EXPECT_GT(d.secondary(0)->rbio_client().scans_sent(), 0u);
  d.Stop();
}

// ------------------------------------- residency-aware cost planner

// FakeScanner with a test-controlled cost model (the base class keeps
// the model disabled, so the suites above push every eligible scan).
class CostFakeScanner : public FakeScanner {
 public:
  PushdownCostModel cm;

  CostFakeScanner() { cm.enabled = true; }
  PushdownCostModel CostModel() const override { return cm; }

  Task<Result<RemoteScanChunk>> ScanLeaves(
      PageId leaf, const RemoteScanSpec& spec) override {
    auto r = co_await FakeScanner::ScanLeaves(leaf, spec);
    if (r.ok() && !r->fence_miss) {
      // The EWMA denominator: pretend one leaf per 64 keys evaluated.
      uint64_t span = (r->resume_key > spec.start_key
                           ? r->resume_key - spec.start_key
                           : 64);
      r->pages_scanned = (span + 63) / 64;
    }
    co_return r;
  }
};

// Deployment sized so residency is test-controlled: the compute memory
// tier either holds the whole fixture (warm) or is emptied by a
// non-recoverable restart (cold).
service::DeploymentOptions PlannerDeployment() {
  service::DeploymentOptions o;
  o.partition_map.pages_per_partition = 8192;
  o.num_page_servers = 1;
  o.compute.mem_pages = 2048;
  o.compute.ssd_pages = 8192;
  o.compute.warmup_after_recovery = false;
  o.compute.rbpex_recoverable = false;  // restart = fully cold tiers
  return o;  // pushdown_plan stays at its default (kCost)
}

// Run one cost-planned scan, snapshot the plan the engine chose, then
// compare against the detached-scanner local plan row for row.
Task<> PlannedScanAndCompare(engine::Engine* e, uint64_t n,
                             const ScanFilter& filter,
                             FilteredScanResult* planned,
                             ScanPlanDebug* plan) {
  auto txn = e->Begin(true);
  auto remote = co_await e->ScanWhere(txn.get(), MakeKey(1, 0),
                                      MakeKey(1, n), 0, filter);
  EXPECT_TRUE(remote.ok());
  *plan = e->last_scan_plan();  // before the local compare overwrites it
  RemoteScanner* scanner = e->remote_scanner();
  e->SetRemoteScanner(nullptr);
  auto local = co_await e->ScanWhere(txn.get(), MakeKey(1, 0),
                                     MakeKey(1, n), 0, filter);
  e->SetRemoteScanner(scanner);
  EXPECT_TRUE(local.ok());
  if (remote.ok() && local.ok()) {
    EXPECT_EQ(remote->rows, local->rows);
    EXPECT_EQ(remote->agg.rows, local->agg.rows);
    EXPECT_EQ(remote->agg.value, local->agg.value);
    *planned = std::move(*remote);
  }
  (void)co_await e->Commit(txn.get());
}

TEST(ScanCostPlannerTest, WarmRangeStaysLocal) {
  Simulator s;
  service::Deployment d(s, PlannerDeployment());
  FilteredScanResult r;
  ScanPlanDebug plan;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 3000);  // loads through the pool
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    filter.projection.extents.push_back({0, 8});
    co_await PlannedScanAndCompare(d.primary_engine(), 3000, filter, &r,
                                   &plan);
  });
  // PR 8's warm inversion, eliminated: the probe sees the range resident
  // and the planner keeps it on the memory tier instead of paying RBIO
  // round trips for data that is already here.
  EXPECT_EQ(plan.kind, ScanPlanDebug::Kind::kLocal);
  EXPECT_GT(plan.resident_frac, 0.9);
  EXPECT_LT(plan.est_local_us, plan.est_push_us);
  EXPECT_FALSE(r.pushed_down);
  EXPECT_EQ(d.primary()->rbio_client().scans_sent(), 0u);
  d.Stop();
}

TEST(ScanCostPlannerTest, ColdRangePushesDown) {
  Simulator s;
  service::Deployment d(s, PlannerDeployment());
  FilteredScanResult r;
  ScanPlanDebug plan;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 3000);
    EXPECT_TRUE((co_await d.Checkpoint()).ok());
    // Non-recoverable RBPEX: the restart empties both compute tiers.
    EXPECT_TRUE((co_await d.RestartPrimary()).ok());
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    filter.projection.extents.push_back({0, 8});
    co_await PlannedScanAndCompare(d.primary_engine(), 3000, filter, &r,
                                   &plan);
  });
  EXPECT_EQ(plan.kind, ScanPlanDebug::Kind::kPushdown);
  EXPECT_LT(plan.resident_frac, 0.5);
  EXPECT_LT(plan.est_push_us, plan.est_local_us);
  EXPECT_TRUE(r.pushed_down);
  EXPECT_GT(d.primary()->rbio_client().scans_sent(), 0u);
  d.Stop();
}

TEST(ScanCostPlannerTest, MixedResidencyPicksHybrid) {
  Simulator s;
  service::Deployment d(s, PlannerDeployment());
  FilteredScanResult r;
  ScanPlanDebug plan;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 6000);
    EXPECT_TRUE((co_await d.Checkpoint()).ok());
    EXPECT_TRUE((co_await d.RestartPrimary()).ok());
    engine::Engine* e = d.primary_engine();
    // Warm exactly the first half with a scanner-detached local scan.
    RemoteScanner* scanner = e->remote_scanner();
    e->SetRemoteScanner(nullptr);
    {
      auto txn = e->Begin(true);
      ScanFilter all;
      auto warm = co_await e->ScanWhere(txn.get(), MakeKey(1, 0),
                                        MakeKey(1, 3000), 0, all);
      EXPECT_TRUE(warm.ok());
      (void)co_await e->Commit(txn.get());
    }
    e->SetRemoteScanner(scanner);
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    filter.projection.extents.push_back({0, 8});
    co_await PlannedScanAndCompare(e, 6000, filter, &r, &plan);
  });
  // Warm prefix read locally, cold suffix pushed: one plan, both paths.
  EXPECT_EQ(plan.kind, ScanPlanDebug::Kind::kHybrid);
  EXPECT_GT(plan.split_key, MakeKey(1, 1500));
  EXPECT_LT(plan.split_key, MakeKey(1, 4500));
  EXPECT_LT(plan.est_hybrid_us, plan.est_local_us);
  EXPECT_LT(plan.est_hybrid_us, plan.est_push_us);
  EXPECT_TRUE(r.pushed_down);
  EXPECT_EQ(d.primary_engine()->stats().hybrid_scans, 1u);
  EXPECT_GT(d.primary()->rbio_client().scans_sent(), 0u);
  d.Stop();
}

// The plan override, on the fixtures above: kPush ships the warm range
// that kCost keeps local (WarmRangeStaysLocal), and kPages sends no scan
// for the cold range that kCost pushes (ColdRangePushesDown). Both
// return the local plan's rows.
TEST(ScanCostPlannerTest, PlanOverride) {
  struct Case {
    compute::PushdownPlan plan;
    bool cold;
    ScanPlanDebug::Kind kind;
    bool pushed;
  };
  const Case cases[] = {
      {compute::PushdownPlan::kPush, false, ScanPlanDebug::Kind::kPushdown,
       true},
      {compute::PushdownPlan::kPages, true, ScanPlanDebug::Kind::kLocal,
       false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "plan " << static_cast<int>(c.plan)
                                    << (c.cold ? " cold" : " warm"));
    Simulator s;
    service::DeploymentOptions o = PlannerDeployment();
    o.compute.pushdown_plan = c.plan;
    service::Deployment d(s, o);
    FilteredScanResult r;
    ScanPlanDebug plan;
    RunSim(s, [&]() -> Task<> {
      EXPECT_TRUE((co_await d.Start()).ok());
      co_await Load(d.primary_engine(), 3000);
      if (c.cold) {
        EXPECT_TRUE((co_await d.Checkpoint()).ok());
        EXPECT_TRUE((co_await d.RestartPrimary()).ok());
      }
      ScanFilter filter;
      filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
      filter.projection.extents.push_back({0, 8});
      co_await PlannedScanAndCompare(d.primary_engine(), 3000, filter, &r,
                                     &plan);
    });
    EXPECT_EQ(plan.kind, c.kind);
    EXPECT_EQ(r.pushed_down, c.pushed);
    EXPECT_EQ(r.rows.size(), 3000u / 16 + 1);
    EXPECT_EQ(d.primary()->rbio_client().scans_sent() > 0, c.pushed);
    d.Stop();
  }
}

// An unbounded range gives the residency probe nothing to size: with
// the cost model on it plans local, never calls the scanner, and
// returns the same rows — even under a model that pushes the bounded
// range.
TEST(ScanCostPlannerTest, UnboundedRangePlansLocal) {
  EngineFixture f;
  CostFakeScanner scanner;
  scanner.data = f.fake.data;
  // A nearly free remote path: bounded ranges price as pushdown.
  scanner.cm.round_trip_us = 1;
  scanner.cm.remote_leaf_us = 0.5;
  f.engine->SetRemoteScanner(&scanner);
  ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin(true);
    auto bounded =
        co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, filter);
    EXPECT_TRUE(bounded.ok());
    EXPECT_EQ(f.engine->last_scan_plan().kind,
              ScanPlanDebug::Kind::kPushdown);
    const int calls_before = scanner.calls;
    auto r = co_await f.engine->ScanWhere(txn.get(), 0, UINT64_MAX, 0,
                                          filter);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_FALSE(r->pushed_down);
      EXPECT_EQ(r->rows, Expected(f.fake.data, 0, UINT64_MAX, filter));
    }
    EXPECT_EQ(f.engine->last_scan_plan().kind, ScanPlanDebug::Kind::kLocal);
    EXPECT_EQ(scanner.calls, calls_before);
    (void)co_await f.engine->Commit(txn.get());
  });
}

TEST(ScanCostPlannerTest, EwmaFeedbackConvergesToObservedCost) {
  EngineFixture f;
  CostFakeScanner scanner;
  scanner.data = f.fake.data;
  // Mis-tune the model toward pushdown: the fake remote path is
  // virtually free, so feedback must drive remote_corr to the clamp
  // floor and keep the plan pinned to the observed-cheaper path.
  scanner.cm.round_trip_us = 1;
  scanner.cm.remote_leaf_us = 0.5;
  f.engine->SetRemoteScanner(&scanner);
  ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
  std::vector<double> corrs;
  RunSim(f.sim, [&]() -> Task<> {
    for (int i = 0; i < 6; i++) {
      auto txn = f.engine->Begin(true);
      auto r = co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, filter);
      EXPECT_TRUE(r.ok());
      if (r.ok()) {
        EXPECT_TRUE(r->pushed_down);
      }
      corrs.push_back(f.engine->last_scan_plan().remote_corr);
      EXPECT_EQ(f.engine->last_scan_plan().kind,
                ScanPlanDebug::Kind::kPushdown);
      (void)co_await f.engine->Commit(txn.get());
    }
  });
  ASSERT_EQ(corrs.size(), 6u);
  // First plan has no feedback yet.
  EXPECT_DOUBLE_EQ(corrs[0], 1.0);
  // The observed/modeled ratio of a free remote path clamps at 0.05;
  // the first observation seeds the EWMA directly, then it holds.
  EXPECT_NEAR(corrs[1], 0.05, 1e-9);
  for (size_t i = 2; i < corrs.size(); i++) {
    EXPECT_NEAR(corrs[i], 0.05, 1e-9);
  }
}

TEST(ScanCostPlannerTest, EwmaBlendsLaterObservations) {
  // Unit check of the blend itself: seed ratio r1, then alpha-blend r2.
  EngineFixture f;
  CostFakeScanner scanner;
  scanner.data = f.fake.data;
  scanner.cm.round_trip_us = 1;
  scanner.cm.remote_leaf_us = 0.5;
  f.engine->SetRemoteScanner(&scanner);
  ScanFilter filter;
  filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
  RunSim(f.sim, [&]() -> Task<> {
    // Two scans over DIFFERENT ranges hash to independent EWMA buckets:
    // feedback for one range never contaminates another.
    auto txn = f.engine->Begin(true);
    (void)co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, filter);
    double corr_a = f.engine->last_scan_plan().remote_corr;
    (void)co_await f.engine->ScanWhere(txn.get(), 0, 200, 0, filter);
    double corr_b = f.engine->last_scan_plan().remote_corr;
    // The second range had no prior feedback of its own.
    EXPECT_DOUBLE_EQ(corr_a, 1.0);
    EXPECT_DOUBLE_EQ(corr_b, 1.0);
    (void)co_await f.engine->Commit(txn.get());
  });
}

// --------------------------------------------- Page Server admission

// A deployment whose Page Server is easy to degrade: a tiny server
// memory tier (point reads fall through to the covering RBPEX, so their
// service times are SSD-bound) and a p99 health bar set below that
// SSD-bound service time, so a full sample window marks the server
// degraded deterministically.
service::DeploymentOptions AdmissionDeployment() {
  service::DeploymentOptions o;
  o.partition_map.pages_per_partition = 8192;
  o.num_page_servers = 1;
  o.compute.mem_pages = 96;  // compute misses reach the server
  o.compute.ssd_pages = 128;
  o.compute.pushdown_plan = compute::PushdownPlan::kPush;  // the wire
  o.compute.warmup_after_recovery = false;   // restart = fully cold tiers
  o.compute.rbpex_recoverable = false;
  o.page_server.mem_pages = 48;  // server misses reach the SSD tier
  o.page_server.scan_admission_p99_us = 2;
  return o;
}

// Serve `n` cold point reads so the server's GetPage p99 window fills
// with slow (XStore-bound) samples.
Task<> ColdPointReads(engine::Engine* e, uint64_t n, uint64_t range) {
  auto txn = e->Begin(true);
  for (uint64_t i = 0; i < n; i++) {
    auto v = co_await e->Get(txn.get(), MakeKey(1, (i * 97) % range));
    EXPECT_TRUE(v.ok());
  }
  (void)co_await e->Commit(txn.get());
}

TEST(ScanAdmissionTest, HealthyServerAdmitsImmediately) {
  Simulator s;
  service::DeploymentOptions o = AdmissionDeployment();
  o.page_server.scan_admission_p99_us = 0;       // disable p99 trigger
  o.page_server.scan_admission_getpage_depth = 0;  // disable depth trigger
  service::Deployment d(s, o);
  bool pushed = false;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 3000);
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    co_await ComparePlans(d.primary_engine(), 3000, filter, &pushed);
  });
  EXPECT_TRUE(pushed);
  EXPECT_EQ(d.page_server(0)->scans_queued(), 0u);
  EXPECT_EQ(d.page_server(0)->scans_rejected(), 0u);
  d.Stop();
}

TEST(ScanAdmissionTest, DegradedServerQueuesScansBehindTokenBucket) {
  Simulator s;
  service::Deployment d(s, AdmissionDeployment());
  bool pushed = false;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 3000);
    EXPECT_TRUE((co_await d.Checkpoint()).ok());
    // Cold restart so point reads actually leave the compute tier, then
    // fill the server's GetPage window with slow XStore-bound reads.
    EXPECT_TRUE((co_await d.RestartPrimary()).ok());
    co_await ColdPointReads(d.primary_engine(), 32, 3000);
    EXPECT_GT(d.page_server(0)->recent_getpage_p99_us(), 2u);
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    co_await ComparePlans(d.primary_engine(), 3000, filter, &pushed);
  });
  // The scan was admitted — after paying the token bucket, not shed.
  EXPECT_TRUE(pushed);
  EXPECT_GT(d.page_server(0)->scans_queued(), 0u);
  EXPECT_EQ(d.page_server(0)->scans_rejected(), 0u);
  EXPECT_GT(d.page_server(0)->scan_queue_wait_us().max(), 0.0);
  d.Stop();
}

TEST(ScanAdmissionTest, OverloadShedsScanAndClientFallsBackEqual) {
  Simulator s;
  service::DeploymentOptions o = AdmissionDeployment();
  // A token every ~30 minutes: every degraded-window scan is shed.
  o.page_server.scan_admission_tokens_per_s = 0.0005;
  service::Deployment d(s, o);
  bool pushed = true;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 3000);
    EXPECT_TRUE((co_await d.Checkpoint()).ok());
    EXPECT_TRUE((co_await d.RestartPrimary()).ok());
    co_await ColdPointReads(d.primary_engine(), 32, 3000);
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    // Cross-plan equality under kOverloaded: the shed scan falls back
    // to the local page path and must lose no rows.
    co_await ComparePlans(d.primary_engine(), 3000, filter, &pushed);
    EXPECT_EQ(d.page_server(0)->scans_rejected(), 1u);
    const uint64_t served_after_shed = d.page_server(0)->scan_requests();
    // Within the overload backoff the client doesn't even try the wire.
    bool pushed2 = true;
    co_await ComparePlans(d.primary_engine(), 3000, filter, &pushed2);
    EXPECT_FALSE(pushed2);
    EXPECT_EQ(d.page_server(0)->scan_requests(), served_after_shed);
    // Past the backoff the endpoint is probed again.
    co_await sim::Delay(s, 60 * 1000);
    bool pushed3 = true;
    co_await ComparePlans(d.primary_engine(), 3000, filter, &pushed3);
    EXPECT_GT(d.page_server(0)->scan_requests(), served_after_shed);
  });
  EXPECT_FALSE(pushed);  // first scan fell back locally
  EXPECT_GT(d.primary()->rbio_client().scans_overloaded(), 0u);
  EXPECT_GT(d.primary_engine()->stats().pushdown_overloaded, 0u);
  EXPECT_GT(d.primary_engine()->stats().pushdown_fallbacks, 0u);
  d.Stop();
}

TEST(PushdownEndToEndTest, ConfigEpochChangeInvalidatesScanSupportMemo) {
  // A kOverloaded backoff describes one server's load. Promoting a
  // replica makes the endpoint name resolve to a different server, so
  // the config-epoch bump must clear the backoff.
  Simulator s;
  service::DeploymentOptions o = AdmissionDeployment();
  o.page_server.scan_admission_tokens_per_s = 0.0005;  // shed every scan
  service::Deployment d(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 3000);
    EXPECT_TRUE((co_await d.Checkpoint()).ok());
    EXPECT_TRUE((co_await d.AddPageServerReplica(0)).ok());
    EXPECT_TRUE((co_await d.RestartPrimary()).ok());
    co_await ColdPointReads(d.primary_engine(), 32, 3000);
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    bool pushed = true;
    co_await ComparePlans(d.primary_engine(), 3000, filter, &pushed);
    EXPECT_FALSE(pushed);
    rbio::RbioClient& client = d.primary()->rbio_client();
    const std::string kSet = "ps-0|ps-0-r0|";  // main server + replica
    EXPECT_GT(client.ScanBackoffRemainingUs(kSet), 0u);
    const uint64_t epoch_before = d.config_epoch();
    EXPECT_TRUE((co_await d.FailoverPageServer(0)).ok());
    EXPECT_GT(d.config_epoch(), epoch_before);
    EXPECT_EQ(client.ScanBackoffRemainingUs(kSet), 0u);
    // The next scan probes the replacement instead of sitting out the
    // old server's backoff.
    const uint64_t sent_before = client.scans_sent();
    co_await ComparePlans(d.primary_engine(), 3000, filter, &pushed);
    EXPECT_GT(client.scans_sent(), sent_before);
  });
  d.Stop();
}

TEST(ScanAdmissionTest, PointReadP99DefendedWhileScansShed) {
  // Identical interference runs, admission on vs off; the defended
  // server must not serve point reads any worse than the undefended one.
  auto run = [](bool admission, uint64_t* queued_or_shed) {
    Simulator s;
    service::DeploymentOptions o = AdmissionDeployment();
    o.page_server.scan_admission_enabled = admission;
    o.page_server.scan_admission_tokens_per_s = 0.0005;
    service::Deployment d(s, o);
    double p99 = 0;
    RunSim(s, [&]() -> Task<> {
      EXPECT_TRUE((co_await d.Start()).ok());
      co_await Load(d.primary_engine(), 3000);
      EXPECT_TRUE((co_await d.Checkpoint()).ok());
      EXPECT_TRUE((co_await d.RestartPrimary()).ok());
      engine::Engine* e = d.primary_engine();
      // Degrade the window, then interleave scans with point reads.
      co_await ColdPointReads(e, 32, 3000);
      ScanFilter filter;
      filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
      for (int round = 0; round < 4; round++) {
        auto txn = e->Begin(true);
        auto r = co_await e->ScanWhere(txn.get(), MakeKey(1, 0),
                                       MakeKey(1, 3000), 0, filter);
        EXPECT_TRUE(r.ok());
        (void)co_await e->Commit(txn.get());
        co_await ColdPointReads(e, 16, 3000);
      }
      p99 = d.page_server(0)->getpage_service_us().Percentile(99.0);
      *queued_or_shed = d.page_server(0)->scans_queued() +
                       d.page_server(0)->scans_rejected();
    });
    d.Stop();
    return p99;
  };
  uint64_t on_gated = 0, off_gated = 0;
  double p99_on = run(true, &on_gated);
  double p99_off = run(false, &off_gated);
  EXPECT_GT(on_gated, 0u);   // admission actually intervened
  EXPECT_EQ(off_gated, 0u);  // counterfactual ran ungated
  EXPECT_LE(p99_on, p99_off * 1.05);
}

}  // namespace
}  // namespace engine
}  // namespace socrates
