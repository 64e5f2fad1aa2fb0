// Micro-benchmarks (google-benchmark, real CPU time) for the hot
// building blocks: CRC32-C, page checksum, slotted-page operations,
// the version-chain reader, log-record codec + redo, the log bytes of a
// split image, log-block frame codec, Zipf generation, the RBPEX
// promote/spill cycle, the landing-zone quorum write, the destage gather
// write, and the simulator substrate itself (event core, coroutine
// wakes, channel hand-offs, the end-to-end simulated GetPage path).
//
// A counting allocator (global operator new/delete overrides, this
// binary only) reports heap allocations per operation for the substrate
// benches — the number the fleet-scale refactor is budgeted against.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "engine/btree.h"
#include "engine/btree_page.h"
#include "engine/buffer_pool.h"
#include "engine/log_record.h"
#include "engine/log_sink.h"
#include "engine/redo.h"
#include "engine/version.h"
#include "rbio/rbio.h"
#include "service/deployment.h"
#include "sim/channel.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/block_device.h"
#include "storage/page.h"
#include "xlog/log_block.h"
#include "xstore/xstore.h"

// ----------------------------------------------------------------------
// Counting allocator: every heap allocation in this binary bumps a
// relaxed atomic. Benches sample the counter around their timing loop
// and report allocs/op, so substrate regressions show up as a number,
// not a feeling.

static std::atomic<uint64_t> g_heap_allocs{0};

static void* CountedAlloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) &
                                       ~(static_cast<std::size_t>(a) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return operator new(n, a);
}
// Out of line on purpose: GCC 12 at -O1 (the sanitizer builds) reports
// a free() it sees inlined into a sized operator delete as a
// mismatched-new-delete.
[[gnu::noinline]] static void CountedFree(void* p) { std::free(p); }

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}

namespace socrates {
namespace {

/// RAII sampler: reports heap allocations per op into a bench counter.
class AllocCounter {
 public:
  explicit AllocCounter(benchmark::State& state)
      : state_(state), start_(g_heap_allocs.load()) {}
  void Report(uint64_t ops) {
    uint64_t delta = g_heap_allocs.load() - start_;
    state_.counters["allocs_per_op"] = benchmark::Counter(
        ops == 0 ? 0.0 : static_cast<double>(delta) / ops);
  }

 private:
  benchmark::State& state_;
  uint64_t start_;
};

void BM_Crc32c(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(512)->Arg(8192)->Arg(65536);

void BM_PageChecksum(benchmark::State& state) {
  storage::Page page;
  page.Format(1, storage::PageType::kBTreeLeaf);
  for (auto _ : state) {
    page.UpdateChecksum();
    benchmark::DoNotOptimize(page.VerifyChecksum());
  }
  state.SetBytesProcessed(state.iterations() * kPageSize);
}
BENCHMARK(BM_PageChecksum);

void BM_LeafInsertLookup(benchmark::State& state) {
  Random rng(1);
  std::string value(state.range(0), 'v');
  for (auto _ : state) {
    storage::Page page;
    engine::BTreePage::Format(&page, 1, 0, engine::kMinKey,
                              engine::kMaxKey, kInvalidPageId);
    engine::BTreePage bp(&page);
    uint64_t k = 0;
    while (bp.CanHostLeafInsert(static_cast<uint32_t>(value.size()))) {
      benchmark::DoNotOptimize(bp.LeafInsert(k++, Slice(value)));
    }
    for (uint64_t i = 0; i < k; i++) {
      benchmark::DoNotOptimize(bp.FindSlot(i));
    }
  }
}
BENCHMARK(BM_LeafInsertLookup)->Arg(64)->Arg(256)->Arg(1024);

// The version-chain reader's visible-at lookup on a 1/4/8-version chain:
// the read every Get, scanned row and pushed-down row makes, here for a
// snapshot that sees the middle version. It reads in place, so
// allocs_per_op is 0.
void BM_VersionChainCodec(benchmark::State& state) {
  std::string chain;
  for (int i = 0; i < state.range(0); i++) {
    std::string pushed;
    engine::EncodePushed(Slice(chain), i + 1, false,
                         Slice("payload-payload-payload"), /*trim_ts=*/0,
                         &pushed);
    chain.swap(pushed);
  }
  const Timestamp read_ts = state.range(0) / 2;
  AllocCounter allocs(state);
  for (auto _ : state) {
    engine::VersionView v;
    benchmark::DoNotOptimize(engine::VisibleAt(Slice(chain), read_ts, &v));
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
  allocs.Report(state.iterations());
}
BENCHMARK(BM_VersionChainCodec)->Arg(1)->Arg(4)->Arg(8);

void BM_LogRecordCodec(benchmark::State& state) {
  engine::LogRecord rec;
  rec.type = engine::LogRecordType::kLeafInsert;
  rec.txn_id = 7;
  rec.page_id = 42;
  rec.key = 123456;
  rec.value = std::string(state.range(0), 'r');
  for (auto _ : state) {
    std::string enc = rec.Encode();
    engine::LogRecord dec;
    benchmark::DoNotOptimize(engine::LogRecord::Decode(Slice(enc), &dec));
  }
}
BENCHMARK(BM_LogRecordCodec)->Arg(64)->Arg(512);

// One log block over the XLOG wire: the Primary's EncodeBlockFrame plus
// the receiver's DecodeBlockFrame (header, partition list, body copy and
// the frame CRC on both sides). Bytes/s counts the raw payload.
void BM_LogFrameCodec(benchmark::State& state) {
  Random rng(7);
  std::string payload(state.range(0), '\0');
  for (char& c : payload) c = static_cast<char>(rng.Next());
  xlog::LogBlock block =
      xlog::LogBlock::Make(4096, std::move(payload), {0, 1, 3});
  for (auto _ : state) {
    std::string frame = xlog::EncodeBlockFrame(block, nullptr);
    xlog::LogBlock decoded;
    benchmark::DoNotOptimize(xlog::DecodeBlockFrame(Slice(frame), &decoded));
    benchmark::DoNotOptimize(decoded.payload().data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogFrameCodec)->Arg(4096)->Arg(65536);

void BM_RedoApply(benchmark::State& state) {
  engine::LogRecord rec;
  rec.type = engine::LogRecordType::kLeafInsert;
  rec.page_id = 1;
  rec.value = std::string(100, 'v');
  for (auto _ : state) {
    storage::Page page;
    engine::BTreePage::Format(&page, 1, 0, engine::kMinKey,
                              engine::kMaxKey, kInvalidPageId);
    Lsn lsn = 100;
    for (uint64_t k = 0; k < 50; k++) {
      rec.key = k;
      benchmark::DoNotOptimize(engine::ApplyToPage(rec, lsn, &page));
      lsn += 128;
    }
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_RedoApply);

void BM_Zipf(benchmark::State& state) {
  ZipfGenerator zipf(1000000, 0.9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next());
  }
}
BENCHMARK(BM_Zipf);

void BM_SimulatorEventLoop(benchmark::State& state) {
  AllocCounter allocs(state);
  for (auto _ : state) {
    sim::Simulator s;
    int count = 0;
    for (int i = 0; i < 1000; i++) {
      s.ScheduleAt(i, [&count] { count++; });
    }
    s.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  allocs.Report(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventLoop);

// The event-core stress the acceptance numbers are pinned to: a mix of
// future-time events and same-tick wake cascades (the shape of real
// cluster sims, where every co_await Delay(0)/wake is a +0 event).
void BM_EventStorm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  AllocCounter allocs(state);
  for (auto _ : state) {
    sim::Simulator s;
    uint64_t count = 0;
    for (int i = 0; i < n; i++) {
      s.ScheduleAt((static_cast<SimTime>(i) * 7919) % 4096,
                   [&count, &s] {
                     count++;
                     // Same-tick cascade: half the events reschedule at
                     // the current instant, like a wake chain.
                     if ((count & 1) == 0) {
                       s.ScheduleAfter(0, [&count] { count++; });
                     }
                   });
    }
    s.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n * 3 / 2);
  allocs.Report(state.iterations() * n * 3 / 2);
}
BENCHMARK(BM_EventStorm)->Arg(10000);

sim::Task<> PingPong(sim::Simulator& s, int n, int* out) {
  for (int i = 0; i < n; i++) {
    co_await sim::Delay(s, 1);
    (*out)++;
  }
}

void BM_CoroutineSwitch(benchmark::State& state) {
  AllocCounter allocs(state);
  for (auto _ : state) {
    sim::Simulator s;
    int out = 0;
    sim::Spawn(s, PingPong(s, 1000, &out));
    s.Run();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  allocs.Report(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineSwitch);

// Event wake + timeout churn: the sync.h hot path. Every round one
// waiter parks with a timeout and the event fires first — the pattern
// behind RBIO pending gets, freshness waits, and pull double-buffering.
sim::Task<> EventWaiter(sim::Event* ev, int n, int* out) {
  for (int i = 0; i < n; i++) {
    bool fired = co_await ev->WaitFor(1000);
    if (fired) (*out)++;
    ev->Reset();
  }
}

sim::Task<> EventSetter(sim::Simulator& s, sim::Event* ev, int n) {
  for (int i = 0; i < n; i++) {
    co_await sim::Delay(s, 1);
    ev->Set();
  }
}

void BM_EventWaitTimeout(benchmark::State& state) {
  AllocCounter allocs(state);
  for (auto _ : state) {
    sim::Simulator s;
    sim::Event ev(s);
    int out = 0;
    sim::Spawn(s, EventWaiter(&ev, 1000, &out));
    sim::Spawn(s, EventSetter(s, &ev, 1000));
    s.Run();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  allocs.Report(state.iterations() * 1000);
}
BENCHMARK(BM_EventWaitTimeout);

// Channel hand-off: producer/consumer token passing (log dissemination,
// destage queues).
sim::Task<> ChanProducer(sim::Simulator& s, sim::Channel<int>* ch, int n) {
  for (int i = 0; i < n; i++) {
    ch->Push(i);
    co_await sim::Yield(s);
  }
  ch->Close();
}

sim::Task<> ChanConsumer(sim::Channel<int>* ch, uint64_t* sum) {
  while (true) {
    auto v = co_await ch->Pop();
    if (!v.has_value()) co_return;
    *sum += static_cast<uint64_t>(*v);
  }
}

void BM_ChannelPingPong(benchmark::State& state) {
  AllocCounter allocs(state);
  for (auto _ : state) {
    sim::Simulator s;
    sim::Channel<int> ch(s);
    uint64_t sum = 0;
    sim::Spawn(s, ChanConsumer(&ch, &sum));
    sim::Spawn(s, ChanProducer(s, &ch, 1000));
    s.Run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  allocs.Report(state.iterations() * 1000);
}
BENCHMARK(BM_ChannelPingPong);

// Page value semantics: what a GetPage response leg pays per hop.
void BM_PageCopy(benchmark::State& state) {
  storage::Page page;
  page.Format(1, storage::PageType::kBTreeLeaf);
  page.UpdateChecksum();
  for (auto _ : state) {
    storage::Page copy = page;
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetBytesProcessed(state.iterations() * kPageSize);
}
BENCHMARK(BM_PageCopy);

// Log-apply decode churn: ApplyStream over a synthetic framed block,
// the per-record cost every Page Server / Secondary pays per byte of
// log. (Single lane, no CPU model: isolates decode + apply.)
void BM_ApplyStreamDecode(benchmark::State& state) {
  sim::Simulator s;
  // Build one 64-record framed stream.
  std::string stream;
  engine::LogRecord rec;
  rec.type = engine::LogRecordType::kLeafInsert;
  rec.txn_id = 1;
  std::string val(64, 'v');
  for (uint64_t k = 0; k < 64; k++) {
    rec.page_id = 1 + (k % 4);
    rec.key = k;
    rec.value = val;
    engine::FrameRecord(&stream, Slice(rec.Encode()));
  }
  engine::BufferPool pool(s, engine::BufferPoolOptions{}, nullptr);
  for (PageId id = 1; id <= 4; id++) {
    auto ref = pool.NewPage(id);
    engine::BTreePage::Format(ref->page(), id, 0, engine::kMinKey,
                              engine::kMaxKey, kInvalidPageId);
  }
  engine::RedoApplier applier(s, &pool,
                              engine::RedoApplier::MissPolicy::kMaterialize);
  AllocCounter allocs(state);
  Lsn lsn = engine::kLogStreamStart;
  for (auto _ : state) {
    bool done = false;
    sim::Spawn(s, [](engine::RedoApplier* a, Slice st, Lsn at,
                     bool* done) -> sim::Task<> {
      auto r = co_await a->ApplyStream(st, at);
      benchmark::DoNotOptimize(r);
      *done = true;
    }(&applier, Slice(stream), lsn, &done));
    while (!done && s.Step()) {
    }
    lsn += stream.size();
  }
  state.SetItemsProcessed(state.iterations() * 64);
  allocs.Report(state.iterations() * 64);
}
BENCHMARK(BM_ApplyStreamDecode);

// One root split through the B-tree into an in-memory log: the split logs
// the two halves and the new root as page images. Counters: the log bytes
// of one image (the record's image field) and the live bytes of the page
// it rebuilds (header and record heap up to free_offset, plus the slot
// directory). CI gates image_bytes <= live_bytes + 16, which a full 8 KiB
// image fails.
void BM_SplitImageLog(benchmark::State& state) {
  const std::string payload(100, 'p');
  double image_bytes = 0;
  double live_bytes = 0;
  int64_t images = 0;
  for (auto _ : state) {
    sim::Simulator s;
    engine::BufferPool pool(s, engine::BufferPoolOptions{}, nullptr);
    engine::MemLogSink sink(s);
    engine::BTree tree(s, &pool, &sink);
    sim::Spawn(s, [](engine::BTree* t, Slice v) -> sim::Task<> {
      if (!(co_await t->Create()).ok()) abort();
      for (uint64_t k = 0; t->next_page_id() == engine::kRootPageId + 1;
           k++) {
        if (!(co_await t->Write(1, k, 1, false, v, 1)).ok()) abort();
      }
    }(&tree, Slice(payload)));
    s.Run();
    Status st = engine::ForEachRecord(
        Slice(sink.stream()), engine::kLogStreamStart,
        [&](Lsn lsn, Slice p) {
          engine::LogRecord rec;
          if (!engine::LogRecord::Decode(p, &rec).ok()) abort();
          if (rec.type != engine::LogRecordType::kPageImage) return true;
          storage::Page page;
          if (!engine::ApplyToPage(rec, lsn, &page).ok()) abort();
          engine::BTreePage bp(&page);
          image_bytes += rec.value.size();
          live_bytes += engine::kRecordAreaStart + bp.LiveBytes() +
                        2 * bp.slot_count();
          images++;
          return true;
        });
    if (!st.ok()) abort();
  }
  state.SetItemsProcessed(images);
  state.counters["image_bytes"] = benchmark::Counter(image_bytes / images);
  state.counters["live_bytes"] = benchmark::Counter(live_bytes / images);
}
BENCHMARK(BM_SplitImageLog);

// RBPEX round trip: 32 pages cycled round-robin through 16 memory frames
// over a 64-page SSD tier, so every op is one SSD promotion plus one
// eviction spill — the path a Page Server's covering cache runs on every
// memory miss. The SSD tier keeps page images by reference, so
// allocs_per_op is the pool's own bookkeeping, not page copies.
class FormattingFetcher : public engine::PageFetcher {
 public:
  sim::Task<Result<storage::Page>> FetchPage(PageId page_id) override {
    storage::Page p;
    engine::BTreePage::Format(&p, page_id, 0, engine::kMinKey,
                              engine::kMaxKey, kInvalidPageId);
    p.UpdateChecksum();
    co_return p;
  }
};

sim::Task<> TouchPage(engine::BufferPool* pool, PageId id, bool* done) {
  auto ref = co_await pool->GetPage(id);
  if (!ref.ok()) abort();
  benchmark::DoNotOptimize(ref->page()->cdata());
  *done = true;
}

void BM_RbpexCycle(benchmark::State& state) {
  constexpr PageId kPages = 32;
  sim::Simulator s;
  FormattingFetcher fetcher;
  engine::BufferPoolOptions opts;
  opts.mem_pages = 16;
  opts.ssd_pages = 64;
  engine::BufferPool pool(s, opts, &fetcher);
  PageId next = 0;
  auto touch = [&] {
    bool done = false;
    sim::Spawn(s, TouchPage(&pool, next++ % kPages, &done));
    while (!done && s.Step()) {
    }
  };
  for (PageId i = 0; i < 2 * kPages; i++) touch();  // reach steady state
  uint64_t ssd_hits = pool.stats().ssd_hits;
  AllocCounter allocs(state);
  for (auto _ : state) touch();
  allocs.Report(state.iterations());
  state.SetItemsProcessed(state.iterations());
  if (pool.stats().ssd_hits - ssd_hits !=
      static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("an op was not an SSD promotion");
  }
}
BENCHMARK(BM_RbpexCycle);

// One 64 KiB log frame through the landing zone's replica set (3
// replicas, write quorum 2), over a 1 MiB ring so each write overwrites
// a frame of the previous lap. The producer already holds the frame as
// a shared segment, as XLogClient holds a block payload; every replica
// maps that segment, so allocs_per_op counts bookkeeping, not copies.

sim::Task<> QuorumWrite(storage::ReplicatedBlockDevice* dev, uint64_t off,
                        const storage::Segment* frame, bool* done) {
  Status st = co_await dev->Write(off, *frame);
  if (!st.ok()) abort();
  *done = true;
}

void BM_LzQuorumWrite(benchmark::State& state) {
  constexpr uint64_t kFrame = 64 * KiB;
  constexpr uint64_t kRing = 16 * kFrame;
  sim::Simulator s;
  storage::ReplicatedBlockDevice dev(s, sim::DeviceProfile::Xio(),
                                     /*num_replicas=*/3, /*write_quorum=*/2);
  const storage::Segment frame =
      std::make_shared<const std::string>(kFrame, 'f');
  uint64_t off = 0;
  auto write = [&] {
    bool done = false;
    sim::Spawn(s, QuorumWrite(&dev, off, &frame, &done));
    off = (off + kFrame) % kRing;
    while (!done && s.Step()) {
    }
  };
  for (int i = 0; i < 32; i++) write();  // fill the ring twice
  AllocCounter allocs(state);
  for (auto _ : state) write();
  allocs.Report(state.iterations());
  state.SetItemsProcessed(state.iterations());
  s.Run();  // let the laggard replica writes land
}
BENCHMARK(BM_LzQuorumWrite);

// One destage batch: 64 admitted 64 KiB log blocks go to XLOG's SSD
// cache in one write and to the LT archive in XStore in one write, as
// XLogProcess's destage task issues them. The batch is a gather list of
// the blocks' own payload segments, so allocs_per_op counts the list and
// bookkeeping, not a 4 MiB concatenated copy. Both stores are rings over
// 16 batches, so every write remaps the previous lap's extents.

sim::Task<> DestageBatch(storage::SimBlockDevice* ssd, xstore::XStore* lt,
                         const std::vector<xlog::LogBlock>* blocks,
                         uint64_t off, bool* done) {
  storage::SegmentList batch;
  for (const xlog::LogBlock& b : *blocks) batch.Append(b.payload_ptr());
  if (!(co_await ssd->Write(off, batch)).ok()) abort();
  if (!(co_await lt->Write("log/lt", off, batch)).ok()) abort();
  *done = true;
}

void BM_DestageBatch(benchmark::State& state) {
  constexpr uint64_t kBlock = 64 * KiB;
  constexpr int kBlocks = 64;
  constexpr uint64_t kBatch = kBlock * kBlocks;
  constexpr uint64_t kRing = 16 * kBatch;
  sim::Simulator s;
  storage::SimBlockDevice ssd(s, sim::DeviceProfile::LocalSsd());
  xstore::XStore lt(s);
  std::vector<xlog::LogBlock> blocks;
  for (int i = 0; i < kBlocks; i++) {
    blocks.push_back(xlog::LogBlock::Make(
        i * kBlock, std::string(kBlock, static_cast<char>('a' + i % 26)),
        {}));
  }
  uint64_t off = 0;
  auto destage = [&] {
    bool done = false;
    sim::Spawn(s, DestageBatch(&ssd, &lt, &blocks, off, &done));
    off = (off + kBatch) % kRing;
    while (!done && s.Step()) {
    }
  };
  for (int i = 0; i < 32; i++) destage();  // fill both rings twice
  AllocCounter allocs(state);
  for (auto _ : state) destage();
  allocs.Report(state.iterations());
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_DestageBatch);

// ----------------------------------------------------------------------
// End-to-end simulated GetPage: a real Deployment (Primary + Page Server
// + XLOG + XStore), loaded with data, then a client hammering
// GetPage@LSN. allocs_per_op is THE substrate frugality number: heap
// allocations per simulated GetPage across client encode, batcher,
// server decode/serve, response encode, client decode, pool install.

sim::Task<> DriveLoad(service::Deployment* d, bool* ready) {
  auto st = co_await d->Start();
  if (!st.ok()) abort();
  engine::Engine* e = d->primary_engine();
  // Enough rows for well over 16 pages, so the benches below fetch
  // pages that exist rather than ids past the tree.
  for (uint64_t i = 0; i < 4096; i += 32) {
    auto txn = e->Begin();
    for (uint64_t k = i; k < i + 32; k++) {
      (void)e->Put(txn.get(), engine::MakeKey(1, k),
                   "value-" + std::to_string(k));
    }
    (void)co_await e->Commit(txn.get());
  }
  co_await d->page_server(0)->applied_lsn().WaitFor(
      d->log_client().end_lsn());
  *ready = true;
}

service::DeploymentOptions GetPageBedOptions() {
  service::DeploymentOptions o;
  o.partition_map.pages_per_partition = 4096;
  o.num_page_servers = 1;
  o.compute.mem_pages = 64;
  o.compute.ssd_pages = 128;
  return o;
}

// A loaded one-Page-Server deployment and an RBIO client of it.
struct GetPageBed {
  explicit GetPageBed(const service::DeploymentOptions& o) : d(s, o) {
    bool ready = false;
    sim::Spawn(s, DriveLoad(&d, &ready));
    while (!ready && s.Step()) {
    }
    eps.push_back({d.page_server(0), "ps0"});
  }
  ~GetPageBed() { d.Stop(); }

  sim::Simulator s;
  service::Deployment d;
  rbio::RbioClient client{s, nullptr, rbio::RbioClientOptions{}};
  std::vector<rbio::Endpoint> eps;
};

sim::Task<> OneGetPage(rbio::RbioClient* c,
                       const std::vector<rbio::Endpoint>* eps, PageId id,
                       int* pending) {
  auto r = co_await c->GetPage(*eps, id, 0);
  benchmark::DoNotOptimize(r);
  --*pending;
}

// `count` concurrent misses on pages first .. first + count - 1, run to
// completion.
void GetPages(GetPageBed* bed, PageId first, int count) {
  int pending = count;
  for (int i = 0; i < count; i++) {
    sim::Spawn(bed->s,
               OneGetPage(&bed->client, &bed->eps, first + i, &pending));
  }
  while (pending > 0 && bed->s.Step()) {
  }
}

// One lone miss per op: a one-entry frame. Each page is served once
// before counting: a page's first fetch allocates on the Page Server,
// and that fixed cost would otherwise show as allocs/op that depend on
// how many iterations the run takes.
void BM_SimGetPage(benchmark::State& state) {
  GetPageBed bed(GetPageBedOptions());
  for (PageId id = 1; id <= 16; id++) GetPages(&bed, id, 1);
  PageId id = 1;
  AllocCounter allocs(state);
  for (auto _ : state) {
    GetPages(&bed, 1 + (id++ % 16), 1);
  }
  state.SetItemsProcessed(state.iterations());
  allocs.Report(state.iterations());
}
BENCHMARK(BM_SimGetPage);

// range(0) misses on distinct pages in one virtual instant per op: they
// share one frame, so allocs_per_op is the budget of the multiplexed
// path (flush vector, request, server serve order, response, decode).
// One op runs before counting, as in BM_SimGetPage.
// The Page Server's checkpoint rounds are pushed out of the run: each
// one allocates, so with the default 500 ms interval the count would
// grow with the simulated time a run covers, not with this path.
void BM_SimGetPageFanout(benchmark::State& state) {
  service::DeploymentOptions o = GetPageBedOptions();
  o.page_server.checkpoint_interval_us = 3600ull * 1000 * 1000;
  GetPageBed bed(o);
  const int fanout = static_cast<int>(state.range(0));
  GetPages(&bed, 1, fanout);
  const uint64_t frames_before = bed.client.batches_sent();
  AllocCounter allocs(state);
  for (auto _ : state) {
    GetPages(&bed, 1, fanout);
  }
  state.SetItemsProcessed(state.iterations());
  allocs.Report(state.iterations());
  state.counters["frames_per_op"] = benchmark::Counter(
      static_cast<double>(bed.client.batches_sent() - frames_before) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SimGetPageFanout)->Arg(16);

// As BM_SimGetPageFanout, but every id lies past the tree: the Page
// Server answers each entry NotFound ("page never checkpointed"), so
// allocs_per_op is the budget of a frame of not-found entries. A
// decoded not-found entry must cost no more than a found one.
void BM_SimGetPagePastTree(benchmark::State& state) {
  service::DeploymentOptions o = GetPageBedOptions();
  o.page_server.checkpoint_interval_us = 3600ull * 1000 * 1000;
  GetPageBed bed(o);
  const int fanout = static_cast<int>(state.range(0));
  const PageId first = bed.d.primary_engine()->btree()->next_page_id() + 64;
  GetPages(&bed, first, fanout);
  AllocCounter allocs(state);
  for (auto _ : state) {
    GetPages(&bed, first, fanout);
  }
  state.SetItemsProcessed(state.iterations());
  allocs.Report(state.iterations());
}
BENCHMARK(BM_SimGetPagePastTree)->Arg(16);

}  // namespace
}  // namespace socrates

// Like BENCHMARK_MAIN(), but the repo-wide `--json` flag is translated
// into google-benchmark's own JSON reporter writing BENCH_micro.json.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char out_flag[] = "--benchmark_out=BENCH_micro.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (std::strcmp(*it, "--json") == 0) {
      *it = out_flag;
      args.insert(it + 1, fmt_flag);
      break;
    }
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
