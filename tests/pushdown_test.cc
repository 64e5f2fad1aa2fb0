// Computation pushdown tests (RBIO kScanRange): the ScanWhere planner
// against a fake RemoteScanner (eligibility, chunked resume, fence-miss
// retry, mid-scan fallback, write-set overlay), and end to end through a
// real deployment (pushdown vs local plans must agree row for row; chaos
// bursts and admission sheds never corrupt results).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "engine/btree_page.h"
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
  // Chunks that evaluate up to chunk_span keys and then report a fence
  // miss at their resume key, as a walk that meets a split past its
  // first leaf does.
  int partial_fence_misses_to_inject = 0;
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
    if (!c.complete && partial_fence_misses_to_inject > 0) {
      partial_fence_misses_to_inject--;
      c.fence_miss = true;
    }
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

TEST(ScanWherePlannerTest, RowsBeforeAFenceMissAreKept) {
  // A fence miss stops the server's walk at resume_key, but what it
  // evaluated before that key is final and ships in the same chunk.
  for (const bool aggregate : {false, true}) {
    SCOPED_TRACE(aggregate ? "aggregate" : "tuples");
    EngineFixture f;
    f.engine->SetRemoteScanner(&f.fake);
    f.fake.chunk_span = 64;
    f.fake.partial_fence_misses_to_inject = 2;  // below the retry budget
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    if (aggregate) filter.aggregate = common::ScanAggregate::Sum(0);
    RunSim(f.sim, [&]() -> Task<> {
      auto txn = f.engine->Begin(true);
      auto r = co_await f.engine->ScanWhere(txn.get(), 0, 400, 0, filter);
      EXPECT_TRUE(r.ok());
      if (r.ok()) {
        EXPECT_TRUE(r->pushed_down);
        EXPECT_EQ(r->fallbacks, 0u);
        const auto want = Expected(f.fake.data, 0, 400, filter);
        if (aggregate) {
          uint64_t sum = 0;
          for (const auto& [key, payload] : want) sum += key * 3;
          EXPECT_EQ(r->agg.rows, want.size());
          EXPECT_EQ(r->agg.value, sum);
        } else {
          EXPECT_EQ(r->rows, want);
        }
      }
      (void)co_await f.engine->Commit(txn.get());
    });
  }
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

// A half-warm range (first half resident, second half cold) gets one
// whole-range plan, local or pushdown, whichever the model prices
// cheaper, and returns exactly the local plan's rows.
TEST(ScanCostPlannerTest, MixedResidencyRangeMatchesLocalPlan) {
  Simulator s;
  service::Deployment d(s, PlannerDeployment());
  FilteredScanResult r;
  ScanPlanDebug plan;
  constexpr uint64_t kRows = 12000;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), kRows);
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
                                        MakeKey(1, kRows / 2), 0, all);
      EXPECT_TRUE(warm.ok());
      (void)co_await e->Commit(txn.get());
    }
    e->SetRemoteScanner(scanner);
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    filter.projection.extents.push_back({0, 8});
    co_await PlannedScanAndCompare(e, kRows, filter, &r, &plan);
  });
  // The probe saw the mixed residency...
  EXPECT_GT(plan.resident_frac, 0.25);
  EXPECT_LT(plan.resident_frac, 0.75);
  // ...and the plan is the cheaper of the two modeled whole-range costs.
  const ScanPlanDebug::Kind cheaper = plan.est_push_us < plan.est_local_us
                                          ? ScanPlanDebug::Kind::kPushdown
                                          : ScanPlanDebug::Kind::kLocal;
  EXPECT_EQ(plan.kind, cheaper);
  EXPECT_EQ(r.pushed_down, plan.kind == ScanPlanDebug::Kind::kPushdown);
  EXPECT_EQ(r.rows.size(), kRows / 16);
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

// --------------------------------------------- Page Server admission

// Serve one kScanRange frame on `ps` and decode the response.
Task<rbio::ScanRangeResponse> ServeScanFrame(pageserver::PageServer* ps,
                                             rbio::ScanRangeRequest req) {
  rbio::ScanRangeResponse resp;
  auto raw = co_await ps->HandleRbio(req.Encode());
  EXPECT_TRUE(raw.ok());
  if (raw.ok()) {
    EXPECT_TRUE(rbio::ScanRangeResponse::Decode(
                    std::make_shared<const std::string>(
                        std::move(raw).value()),
                    &resp)
                    .ok());
  }
  co_return resp;
}

TEST(PushdownEndToEndTest, MalformedLeafChainFailsThePushedScan) {
  // The Page Server reads chains with the local plan's reader, so a
  // malformed chain fails a pushed scan with Corruption, as it fails the
  // local plan, instead of reading as a row that does not exist; and
  // ScanWhere reports that Corruption instead of re-reading locally.
  Simulator s;
  service::Deployment d(s, SmallDeployment());
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    Engine* e = d.primary_engine();
    co_await Load(e, 300);
    co_await d.page_server(0)->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    const uint64_t key = MakeKey(1, 100);
    Result<PageId> leaf = co_await e->btree()->LeafIdFor(key);
    EXPECT_TRUE(leaf.ok());
    if (!leaf.ok()) co_return;
    rbio::ScanRangeRequest req;
    req.leaves = {*leaf};
    req.start_key = key;
    req.end_key = key + 1;
    req.read_ts = e->last_committed_ts();
    rbio::ScanRangeResponse intact =
        co_await ServeScanFrame(d.page_server(0), req);
    EXPECT_TRUE(intact.status.ok()) << intact.status.ToString();
    EXPECT_EQ(intact.tuples.size(), 1u);
    {
      // Truncate the row's one version in the server's cached leaf.
      auto ref = co_await d.page_server(0)->pool()->GetPage(*leaf);
      EXPECT_TRUE(ref.ok());
      if (!ref.ok()) co_return;
      BTreePage bp(ref->page());
      std::string chain = bp.LeafValueAt(bp.FindSlot(key)).ToString();
      chain.pop_back();
      EXPECT_TRUE(bp.LeafUpdate(key, Slice(chain)).ok());
    }
    rbio::ScanRangeResponse broken =
        co_await ServeScanFrame(d.page_server(0), req);
    EXPECT_TRUE(broken.status.IsCorruption()) << broken.status.ToString();
    EXPECT_TRUE(broken.tuples.empty());
    // Through the planner the scan fails with it too, rather than
    // finishing the range on the local plan and returning OK.
    auto txn = e->Begin(true);
    auto r = co_await e->ScanWhere(txn.get(), key, key + 1, 0,
                                   ScanFilter{});
    EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
    EXPECT_EQ(e->stats().pushdown_fallbacks, 0u);
  });
  d.Stop();
}

// Forwards each chunk to the deployment's scanner and records its
// simulated round-trip time; with `hint` set it replaces the leaves the
// engine listed after the start leaf.
class ForwardingScanner : public RemoteScanner {
 public:
  ForwardingScanner(Simulator& sim, RemoteScanner* inner)
      : sim_(sim), inner_(inner) {}

  bool has_hint = false;
  std::vector<PageId> hint;
  std::vector<SimTime> chunk_us;

  bool Enabled() const override { return inner_->Enabled(); }
  PushdownCostModel CostModel() const override {
    return inner_->CostModel();
  }

  Task<Result<RemoteScanChunk>> ScanLeaves(
      PageId start_leaf, const RemoteScanSpec& spec) override {
    RemoteScanSpec sent = spec;
    if (has_hint) sent.next_leaves = hint;
    const SimTime t0 = sim_.now();
    Result<RemoteScanChunk> c = co_await inner_->ScanLeaves(start_leaf, sent);
    chunk_us.push_back(sim_.now() - t0);
    co_return c;
  }

  RemoteScanner* inner() const { return inner_; }

 private:
  Simulator& sim_;
  RemoteScanner* inner_;
};

TEST(PushdownEndToEndTest, ChunkReadsItsRbpexLeavesAtOnce) {
  // The server's memory tier holds 8 pages, so most of the range's k
  // leaves sit only on its RBPEX. Read one per sibling hop, they cost at
  // least LocalSsd's 50 µs floor each; read at once, the whole chunk
  // comes back in under k * 50 µs.
  constexpr uint64_t kRows = 8000;
  Simulator s;
  service::DeploymentOptions o = SmallDeployment();
  o.page_server.mem_pages = 8;
  service::Deployment d(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    Engine* e = d.primary_engine();
    co_await Load(e, kRows);
    co_await d.page_server(0)->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    std::vector<PageId> leaves;
    Result<PageId> first = co_await e->btree()->LeafIdFor(
        MakeKey(1, 0), &leaves, MakeKey(1, kRows), kScanLeavesPerFrame - 1);
    EXPECT_TRUE(first.ok());
    if (!first.ok()) co_return;
    leaves.push_back(*first);
    const size_t k = leaves.size();
    EXPECT_GE(k, 32u);
    EXPECT_LT(k, static_cast<size_t>(kScanLeavesPerFrame));  // one chunk
    size_t only_on_ssd = 0;
    BufferPool* server = d.page_server(0)->pool();
    for (PageId id : leaves) {
      if (!server->InMemory(id) && server->Contains(id)) only_on_ssd++;
    }
    EXPECT_GE(only_on_ssd, k - 8);

    ForwardingScanner timed(s, e->remote_scanner());
    e->SetRemoteScanner(&timed);
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(16, 1);
    filter.aggregate = common::ScanAggregate::Count();
    auto txn = e->Begin(true);
    auto r = co_await e->ScanWhere(txn.get(), MakeKey(1, 0),
                                   MakeKey(1, kRows), 0, filter);
    e->SetRemoteScanner(timed.inner());
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_TRUE(r->pushed_down);
      EXPECT_EQ(r->agg.rows, kRows / 16);
    }
    (void)co_await e->Commit(txn.get());
    EXPECT_EQ(timed.chunk_us.size(), 1u);
    if (timed.chunk_us.size() != 1) co_return;
    EXPECT_LT(timed.chunk_us[0], static_cast<SimTime>(k * 50))
        << k << " leaves, " << only_on_ssd << " only on the server's RBPEX";
  });
  d.Stop();
}

TEST(PushdownEndToEndTest, BadLeafHintsNeverChangeRowsOrFailScans) {
  // The leaves a request lists after its start leaf are a read-ahead
  // hint: the walk follows sibling links and fences. Whatever the list
  // says, the pushed scan returns the local plan's rows, with no fence
  // miss and no fallback.
  constexpr uint64_t kRows = 3000;
  Simulator s;
  service::Deployment d(s, SmallDeployment());
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    Engine* e = d.primary_engine();
    co_await Load(e, kRows);
    const uint64_t lo = MakeKey(1, 200), hi = MakeKey(1, 2200);
    std::vector<PageId> right;  // what the engine itself lists
    EXPECT_TRUE((co_await e->btree()->LeafIdFor(lo, &right, hi, 63)).ok());
    std::vector<PageId> elsewhere;  // leaves of another range
    Result<PageId> far = co_await e->btree()->LeafIdFor(
        MakeKey(1, 2500), &elsewhere, MakeKey(1, kRows), 63);
    EXPECT_TRUE(far.ok());
    if (!far.ok()) co_return;
    elsewhere.insert(elsewhere.begin(), *far);
    EXPECT_GE(right.size(), 4u);
    std::vector<PageId> doubled;
    for (PageId id : right) doubled.insert(doubled.end(), {id, id});
    const PageId other_partition = 2 * 8192 + 5;  // pages_per_partition
    const PageId never_written = 8000;            // in partition 0
    const std::vector<std::vector<PageId>> hints = {
        elsewhere,
        {other_partition, other_partition + 1, right[0]},
        {never_written, right[1]},
        doubled,
        {right.rbegin(), right.rend()},
        {},
    };
    ScanFilter filter;
    filter.predicate = common::ScanPredicate::KeyModEq(8, 3);
    filter.projection.extents.push_back({0, 8});
    auto txn = e->Begin(true);
    RemoteScanner* inner = e->remote_scanner();
    e->SetRemoteScanner(nullptr);
    auto local = co_await e->ScanWhere(txn.get(), lo, hi, 0, filter);
    EXPECT_TRUE(local.ok());
    if (!local.ok()) co_return;
    ForwardingScanner hinted(s, inner);
    hinted.has_hint = true;
    e->SetRemoteScanner(&hinted);
    for (size_t i = 0; i < hints.size(); i++) {
      SCOPED_TRACE("hint " + std::to_string(i));
      hinted.hint = hints[i];
      const uint64_t fallbacks = e->stats().pushdown_fallbacks;
      auto r = co_await e->ScanWhere(txn.get(), lo, hi, 0, filter);
      EXPECT_TRUE(r.ok());
      if (!r.ok()) continue;
      EXPECT_TRUE(r->pushed_down);
      EXPECT_EQ(r->rows, local->rows);
      EXPECT_EQ(e->stats().pushdown_fallbacks, fallbacks);
    }
    EXPECT_EQ(hinted.chunk_us.size(), hints.size());  // no fence miss
    e->SetRemoteScanner(inner);
    (void)co_await e->Commit(txn.get());

    // A request that lists no leaf at all has nowhere to start: the
    // server answers with a fence miss, never an error.
    rbio::ScanRangeRequest req;
    req.start_key = lo;
    req.end_key = hi;
    req.read_ts = e->last_committed_ts();
    rbio::ScanRangeResponse none =
        co_await ServeScanFrame(d.page_server(0), req);
    EXPECT_TRUE(none.status.ok()) << none.status.ToString();
    EXPECT_TRUE(none.fence_miss);
    EXPECT_TRUE(none.tuples.empty());
  });
  d.Stop();
}

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
  o.page_server.scan_admission_p99_us = 0;  // disable the trigger
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
    // Rows and cold reads enough to touch over 32 distinct leaves, so
    // the server's GetPage window fills and marks it degraded.
    co_await Load(d.primary_engine(), 6000);
    EXPECT_TRUE((co_await d.Checkpoint()).ok());
    EXPECT_TRUE((co_await d.AddPageServerReplica(0)).ok());
    EXPECT_TRUE((co_await d.RestartPrimary()).ok());
    co_await ColdPointReads(d.primary_engine(), 64, 6000);
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
