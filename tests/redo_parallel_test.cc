// Parallel redo tests: lane count must never change results (only the
// virtual time an apply takes), replays must be deterministic, and the
// §4.5 pending-fetch registration protocol (RegisterPendingFetch /
// DrainPendingInto) must stay correct when records race concurrent apply
// lanes.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "engine/btree.h"
#include "engine/buffer_pool.h"
#include "engine/log_record.h"
#include "engine/log_sink.h"
#include "engine/redo.h"
#include "sim/cpu.h"

namespace socrates {
namespace engine {
namespace {

using sim::Simulator;
using sim::Spawn;
using sim::Task;

template <typename Fn>
void RunSim(Simulator& s, Fn&& fn) {
  Spawn(s, fn());
  s.Run();
}

// Update-heavy stream: `passes` passes over the same keys (pass 0 inserts,
// later passes overwrite), with a kTxnCommit barrier record every 8
// writes. Returns the framed stream; *mid gets the record-boundary LSN at
// the end of pass 0.
std::string BuildUpdateHeavyStream(uint64_t keys, int passes, Lsn* mid) {
  Simulator sim;
  MemLogSink sink(sim);
  BufferPoolOptions opts;
  opts.mem_pages = 1 << 20;
  BufferPool pool(sim, opts, nullptr);
  BTree tree(sim, &pool, &sink);
  RunSim(sim, [&]() -> Task<> {
    EXPECT_TRUE((co_await tree.Create()).ok());
    Timestamp ts = 1;
    int in_txn = 0;
    for (int pass = 0; pass < passes; pass++) {
      for (uint64_t k = 0; k < keys; k++) {
        std::string value(100, static_cast<char>('a' + pass));
        // Trimming at the commit timestamp keeps one version per key.
        EXPECT_TRUE((co_await tree.Write(1, k * 5, ts, false, Slice(value),
                                         /*trim_ts=*/ts))
                        .ok());
        if (++in_txn == 8) {
          LogRecord commit;
          commit.type = LogRecordType::kTxnCommit;
          commit.commit_ts = ts++;
          sink.Append(commit);
          in_txn = 0;
        }
      }
      if (pass == 0 && mid != nullptr) *mid = sink.end_lsn();
    }
  });
  return sink.stream();
}

struct ApplyOutcome {
  Lsn applied = 0;
  Timestamp commit_ts = 0;
  uint64_t records_applied = 0;
  uint64_t parallel_batches = 0;
  uint64_t barrier_stalls = 0;
  std::map<PageId, std::string> pages;  // raw bytes of every final page
};

// Materialize `stream` into a fresh pool with the given lane count and
// capture everything observable: watermark, commit ts, counters, and the
// byte image of every page.
ApplyOutcome MaterializeWithLanes(const std::string& stream, int lanes,
                                  Lsn stop_at = kMaxLsn) {
  Simulator sim;
  BufferPoolOptions opts;
  opts.mem_pages = 1 << 20;
  BufferPool pool(sim, opts, nullptr);
  sim::CpuResource cpu(sim, 4);
  RedoApplier applier(sim, &pool, RedoApplier::MissPolicy::kMaterialize);
  applier.ConfigureLanes(lanes, &cpu);
  ApplyOutcome out;
  RunSim(sim, [&]() -> Task<> {
    Result<Lsn> r =
        co_await applier.ApplyStream(Slice(stream), kLogStreamStart, stop_at);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) co_return;
    applier.applied_lsn().Advance(*r);
    for (PageId id = 1; id <= applier.max_page_seen(); id++) {
      Result<PageRef> ref = co_await pool.GetPage(id);
      if (!ref.ok()) continue;  // never created
      out.pages.emplace(id, std::string(ref->page()->data(), kPageSize));
    }
  });
  out.applied = applier.applied_lsn().value();
  out.commit_ts = applier.applied_commit_ts();
  out.records_applied = applier.records_applied();
  out.parallel_batches = applier.parallel_batches();
  out.barrier_stalls = applier.barrier_stalls();
  return out;
}

void ExpectSameOutcome(const ApplyOutcome& a, const ApplyOutcome& b,
                       const char* label) {
  EXPECT_EQ(a.applied, b.applied) << label;
  EXPECT_EQ(a.commit_ts, b.commit_ts) << label;
  EXPECT_EQ(a.records_applied, b.records_applied) << label;
  ASSERT_EQ(a.pages.size(), b.pages.size()) << label;
  for (const auto& [id, bytes] : a.pages) {
    auto it = b.pages.find(id);
    ASSERT_NE(it, b.pages.end()) << label << " page " << id;
    EXPECT_EQ(0, memcmp(bytes.data(), it->second.data(), kPageSize))
        << label << " page " << id;
  }
}

TEST(ParallelRedoTest, LaneCountDoesNotChangeResults) {
  std::string stream = BuildUpdateHeavyStream(800, 3, nullptr);
  ApplyOutcome serial = MaterializeWithLanes(stream, 1);
  EXPECT_EQ(serial.parallel_batches, 0u);
  EXPECT_GT(serial.pages.size(), 4u);  // splits happened; real sharding
  for (int lanes : {2, 4, 8}) {
    ApplyOutcome parallel = MaterializeWithLanes(stream, lanes);
    EXPECT_GT(parallel.parallel_batches, 0u);
    ExpectSameOutcome(serial, parallel,
                      ("lanes=" + std::to_string(lanes)).c_str());
  }
}

// Apply `stream` in frame-aligned segments of cycling size (one record,
// up to 4 KiB, up to 64 KiB) and return the apply CPU charged. The
// one-record segments take the serial path at every lane count.
SimTime ApplyBusyInSegments(const std::string& stream, int lanes,
                            SimTime* model) {
  Simulator sim;
  BufferPoolOptions opts;
  opts.mem_pages = 1 << 20;
  BufferPool pool(sim, opts, nullptr);
  sim::CpuResource cpu(sim, 4);
  RedoApplier applier(sim, &pool, RedoApplier::MissPolicy::kMaterialize);
  applier.ConfigureLanes(lanes, &cpu);
  *model = 0;
  RunSim(sim, [&]() -> Task<> {
    const uint64_t caps[] = {1, 4 * KiB, 64 * KiB};
    Slice rest(stream);
    Lsn lsn = kLogStreamStart;
    for (int i = 0; !rest.empty(); i++) {
      const uint64_t len = FrameAlignedPrefix(rest, caps[i % 3]);
      if (len == 0) break;
      Result<Lsn> r =
          co_await applier.ApplyStream(Slice(rest.data(), len), lsn);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) co_return;
      applier.applied_lsn().Advance(*r);
      *model += 10 + len / 2000;  // kApplyCpuFixedUs + bytes / 2000
      rest.remove_prefix(len);
      lsn += len;
    }
  });
  return applier.apply_busy_us();
}

TEST(ParallelRedoTest, ApplyChargeIsTheSameAtEveryLaneCount) {
  // Lanes change how long the apply takes, not how much CPU it costs.
  std::string stream = BuildUpdateHeavyStream(800, 3, nullptr);
  SimTime model = 0;
  const SimTime serial = ApplyBusyInSegments(stream, 1, &model);
  EXPECT_EQ(serial, model);
  for (int lanes : {4, 8}) {
    EXPECT_EQ(ApplyBusyInSegments(stream, lanes, &model), serial)
        << "lanes=" << lanes;
  }
}

TEST(ParallelRedoTest, DeterministicAcrossRuns) {
  std::string stream = BuildUpdateHeavyStream(500, 2, nullptr);
  ApplyOutcome first = MaterializeWithLanes(stream, 4);
  ApplyOutcome second = MaterializeWithLanes(stream, 4);
  ExpectSameOutcome(first, second, "same seed, same lanes");
  EXPECT_EQ(first.barrier_stalls, second.barrier_stalls);
}

// Applies the stream tail past the applier's watermark with the
// kIgnoreUncached policy — the Secondary role — as a detached task so the
// test body can race a pending-fetch drain against the in-flight lanes.
Task<> ApplyTail(RedoApplier* applier, const std::string* stream,
                 bool* done) {
  Result<Lsn> r =
      co_await applier->ApplyStream(Slice(*stream), kLogStreamStart);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) applier->applied_lsn().Advance(*r);
  *done = true;
}

// A Secondary's remote fetch of one page, as compute::RemoteFetcher does
// it: the image arrives after `delay_us`, and the records the applier
// queued meanwhile are drained into it before the pool installs it. Until
// `page` is set every page is not found, so kMaterialize redo formats it.
class PendingFetchFetcher : public PageFetcher {
 public:
  explicit PendingFetchFetcher(Simulator& sim) : sim_(sim) {}

  Task<Result<storage::Page>> FetchPage(PageId page_id) override {
    if (page_id != page) {
      co_return Result<storage::Page>(Status::NotFound("no remote image"));
    }
    co_await sim::Delay(sim_, delay_us);
    storage::Page fetched = image;
    Status ds = applier->DrainPendingInto(page_id, &fetched);
    if (!ds.ok()) co_return Result<storage::Page>(ds);
    co_return Result<storage::Page>(std::move(fetched));
  }

  PageId page = kInvalidPageId;
  storage::Page image;
  SimTime delay_us = 0;
  RedoApplier* applier = nullptr;

 private:
  Simulator& sim_;
};

// The §4.5 race under parallel apply: while lanes chew through the tail,
// a fetch of a purged page completes mid-stream; queued records are
// drained into the image, the pool installs it, and later records apply
// to it directly. The final bytes must equal the serial materialization.
void RunPendingFetchRace(SimTime drain_at_us) {
  Lsn mid = 0;
  std::string stream = BuildUpdateHeavyStream(600, 3, &mid);
  ASSERT_GT(mid, kLogStreamStart);
  ApplyOutcome reference = MaterializeWithLanes(stream, 1);
  ApplyOutcome at_mid = MaterializeWithLanes(stream, 1, mid);

  // Victim: the first page touched after `mid` that already exists at
  // `mid` (so the "remote fetch" has an image to return).
  PageId victim = kInvalidPageId;
  (void)ForEachRecord(Slice(stream), kLogStreamStart,
                      [&](Lsn lsn, Slice payload) {
                        if (lsn < mid) return true;
                        LogRecord rec;
                        if (!LogRecord::Decode(payload, &rec).ok()) {
                          return false;
                        }
                        if (rec.HasPage() &&
                            at_mid.pages.count(rec.page_id) != 0) {
                          victim = rec.page_id;
                          return false;
                        }
                        return true;
                      });
  ASSERT_NE(victim, kInvalidPageId);

  Simulator sim;
  BufferPoolOptions opts;
  opts.mem_pages = 1 << 20;
  PendingFetchFetcher fetcher(sim);
  BufferPool pool(sim, opts, &fetcher);
  sim::CpuResource cpu(sim, 4);

  // Warm the cache with the prefix (what the Secondary had applied
  // before the fetch started).
  RedoApplier warm(sim, &pool, RedoApplier::MissPolicy::kMaterialize);
  warm.ConfigureLanes(4, &cpu);
  RunSim(sim, [&]() -> Task<> {
    Result<Lsn> r = co_await warm.ApplyStream(Slice(stream), kLogStreamStart,
                                              /*stop_at=*/mid);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });

  // The victim page is not cached; a fetch for it is in flight.
  pool.Purge(victim);
  ASSERT_FALSE(pool.Contains(victim));

  RedoApplier applier(sim, &pool,
                      RedoApplier::MissPolicy::kIgnoreUncached);
  applier.ConfigureLanes(4, &cpu);
  applier.applied_lsn().Advance(mid);
  applier.RegisterPendingFetch(victim);

  ASSERT_TRUE(fetcher.image.FromSlice(Slice(at_mid.pages[victim])).ok());
  fetcher.page = victim;
  fetcher.delay_us = drain_at_us;
  fetcher.applier = &applier;

  bool apply_done = false;
  RunSim(sim, [&]() -> Task<> {
    Spawn(sim, ApplyTail(&applier, &stream, &apply_done));
    Result<PageRef> fetched = co_await pool.GetPage(victim);
    EXPECT_TRUE(fetched.ok()) << fetched.status().ToString();
  });
  ASSERT_TRUE(apply_done);
  EXPECT_EQ(applier.applied_commit_ts(), reference.commit_ts);

  // Every page that existed at mid (and stayed cached) must match the
  // serial materialization byte for byte — including the victim.
  RunSim(sim, [&]() -> Task<> {
    for (const auto& kv : at_mid.pages) {
      PageId id = kv.first;
      Result<PageRef> ref = co_await pool.GetPage(id);
      EXPECT_TRUE(ref.ok()) << "page " << id;
      if (!ref.ok()) continue;
      EXPECT_EQ(0, memcmp(ref->page()->data(),
                          reference.pages.at(id).data(), kPageSize))
          << "page " << id;
    }
  });
}

TEST(ParallelRedoPendingFetchTest, DrainRacesParallelApply) {
  RunPendingFetchRace(/*drain_at_us=*/50);
}

TEST(ParallelRedoPendingFetchTest, DrainAfterTailFullyQueued) {
  // Fetch resolves long after the apply finished: every tail record for
  // the victim sat in the pending queue and is applied by the drain.
  RunPendingFetchRace(/*drain_at_us=*/10 * 1000 * 1000);
}

}  // namespace
}  // namespace engine
}  // namespace socrates
