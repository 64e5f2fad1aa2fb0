#include "pageserver/page_server.h"

#include <algorithm>

#include "engine/btree_page.h"
#include "engine/version.h"

namespace socrates {
namespace pageserver {

namespace {
// Out of line on purpose: GCC 12 with -fsanitize=thread flags an error
// Result<Page> built inline in XStoreFetcher::FetchPage as
// maybe-uninitialized.
[[gnu::noinline]] Result<storage::Page> PageError(Status s) {
  return Result<storage::Page>(std::move(s));
}
}  // namespace

// Fan-out state shared by one checkpoint round's batch writers.
struct PageServer::CheckpointJoin {
  explicit CheckpointJoin(sim::Simulator& sim) : drained(sim) {}
  int inflight = 0;
  Status first_error;
  sim::Event drained;  // pulsed on every batch completion
};

// Fetches partition pages from the XStore checkpoint blob. Pages that
// were never checkpointed read as zeros -> NotFound (the log-apply loop
// materializes them from creation records instead).
class PageServer::XStoreFetcher : public engine::PageFetcher {
 public:
  XStoreFetcher(PageServer* ps) : ps_(ps) {}

  sim::Task<Result<storage::Page>> FetchPage(PageId page_id) override {
    // Interned: these fire on every miss past the checkpointed extent,
    // and a static Status makes returning one a pure refcount bump.
    static const Status kNoBlobYet = Status::NotFound("no blob yet");
    static const Status kNeverCheckpointed =
        Status::NotFound("page never checkpointed");
    uint64_t offset =
        (page_id - ps_->opts_.partition_map.FirstPage(ps_->opts_.partition)) *
        kPageSize;
    // Fail fast past the checkpointed extent: the read would spend a
    // full XStore round trip to return zeros (= never checkpointed).
    // Scan readahead overshooting the end of a table hits this on every
    // window, and a batch frame serializes those misses server-side.
    if (!ps_->xstore_->Exists(ps_->data_blob_)) {
      co_return PageError(kNoBlobYet);
    }
    if (offset + kPageSize > ps_->xstore_->BlobSize(ps_->data_blob_)) {
      co_return PageError(kNeverCheckpointed);
    }
    std::string image;
    Status s = co_await ps_->xstore_->Read(ps_->data_blob_, offset,
                                           kPageSize, &image);
    if (s.IsNotFound()) {
      co_return PageError(kNoBlobYet);
    }
    if (!s.ok()) co_return PageError(s);
    bool all_zero = true;
    for (char c : image) {
      if (c != '\0') {
        all_zero = false;
        break;
      }
    }
    if (all_zero) {
      co_return PageError(kNeverCheckpointed);
    }
    storage::Page page = storage::Page::Uninitialized();
    if (Status ps = page.FromSlice(Slice(image)); !ps.ok()) {
      co_return PageError(ps);
    }
    if (Status cs = page.VerifyChecksum(); !cs.ok()) {
      co_return PageError(cs);
    }
    co_return std::move(page);
  }

 private:
  PageServer* ps_;
};

PageServer::PageServer(sim::Simulator& sim, xlog::XLogProcess* xlog,
                       xstore::XStore* xstore,
                       const PageServerOptions& options)
    : sim_(sim),
      xlog_(xlog),
      xstore_(xstore),
      opts_(options),
      data_blob_(options.blob_override.empty()
                     ? BlobName(options.partition)
                     : options.blob_override),
      meta_blob_(data_blob_ + "/meta"),
      owned_cpu_(options.shared_cpu != nullptr
                     ? nullptr
                     : std::make_unique<sim::CpuResource>(
                           sim, options.cpu_cores)),
      cpu_(options.shared_cpu != nullptr ? options.shared_cpu
                                         : owned_cpu_.get()),
      consumer_(sim, xlog,
                {.name = "pageserver-" + std::to_string(options.partition),
                 .partition = options.partition,
                 .apply_until = options.apply_until,
                 // A chaos partition between this server and XLOG fails
                 // pulls like a transient XLOG error.
                 .partitioned =
                     [this] {
                       return chaos_port_.PartitionedFrom(chaos::kXLogSite);
                     },
                 .on_fatal = [this] { running_ = false; }}),
      checkpoint_mu_(std::make_unique<sim::Mutex>(sim)),
      checkpoint_rng_(std::hash<std::string>{}(data_blob_) ^ 0xc4e9) {
  engine::BufferPoolOptions pool_opts;
  pool_opts.mem_pages = opts_.mem_pages;
  // Covering cache: the SSD tier holds the entire partition (§4.6), so
  // steady-state page serving never reads XStore.
  pool_opts.ssd_pages = opts_.ssd_pages != 0
                            ? opts_.ssd_pages
                            : opts_.partition_map.pages_per_partition;
  pool_opts.ssd_recoverable = true;
  fetcher_ = std::make_unique<XStoreFetcher>(this);
  pool_ = std::make_unique<engine::BufferPool>(
      sim, pool_opts, fetcher_.get(),
      /*seed=*/0x9a9e + options.partition);
  applier_ = std::make_unique<engine::RedoApplier>(
      sim, pool_.get(), engine::RedoApplier::MissPolicy::kMaterialize);
  applier_->SetPageFilter([this](PageId id) { return InPartition(id); });
  applier_->ConfigureLanes(opts_.apply_lanes, cpu_);
  AttachWaiterWake();
}

PageServer::~PageServer() = default;

sim::Task<Status> PageServer::Start() {
  SOCRATES_CO_RETURN_IF_ERROR(co_await LoadMeta());
  // RBPEX recovery: a warm SSD cache survives short failures (§3.3).
  // Pages newer than the hardened log would be speculative; the Page
  // Server only ever applies hardened log, so everything is retained up
  // to the XLOG hardened mark.
  pool_->Recover(xlog_->hardened_lsn());
  // A fresh applier for this incarnation: its applied watermark must
  // restart at the checkpoint replay point. (The old watermark is
  // monotonic — reusing it would skip re-applying records whose effects
  // died with the memory tier.) Stale waiters notice via the epoch.
  applier_ = std::make_unique<engine::RedoApplier>(
      sim_, pool_.get(), engine::RedoApplier::MissPolicy::kMaterialize);
  applier_->SetPageFilter([this](PageId id) { return InPartition(id); });
  applier_->ConfigureLanes(opts_.apply_lanes, cpu_);
  AttachWaiterWake();
  applier_->applied_lsn().Advance(restart_lsn_);
  running_ = true;
  epoch_++;
  sim::Spawn(sim_, consumer_.Run(applier_.get(), [this, epoch = epoch_] {
    return Live(epoch);
  }));
  if (opts_.checkpointing_enabled) {
    sim::Spawn(sim_, CheckpointLoop(epoch_));
  }
  co_return Status::OK();
}

void PageServer::Stop() {
  running_ = false;
  epoch_++;
  WakeAllWaiters();
}

void PageServer::ResumeCheckpointing() {
  if (opts_.checkpointing_enabled) return;
  opts_.checkpointing_enabled = true;
  // A stopped server picks the loop up on its next Start().
  if (running_) sim::Spawn(sim_, CheckpointLoop(epoch_));
}

void PageServer::Crash() {
  running_ = false;
  epoch_++;  // orphan any loop still suspended from this incarnation
  WakeAllWaiters();  // parked freshness waits fail Unavailable
  pool_->Crash();  // memory tier lost; recoverable RBPEX survives
}

// ----- Event-driven freshness waits (§4.4).
//
// The applied-LSN watermark wakes waiters exactly when their threshold is
// crossed — including the applier's internal mid-stream advances — via
// the on_advance hook. The waiter heap lives on the server (it survives
// the applier swap on restart); Stop/Crash wake everything so parked
// coroutines resume, observe the epoch bump, and fail Unavailable.

void PageServer::AttachWaiterWake() {
  applier_->applied_lsn().set_on_advance(
      [this](uint64_t applied) { WakeWaiters(applied); });
}

void PageServer::WakeWaiters(uint64_t applied) {
  auto after = [](const std::shared_ptr<FreshnessWaiter>& a,
                  const std::shared_ptr<FreshnessWaiter>& b) {
    return a->lsn > b->lsn;
  };
  while (!waiters_.empty() && waiters_.front()->lsn <= applied) {
    std::pop_heap(waiters_.begin(), waiters_.end(), after);
    std::shared_ptr<FreshnessWaiter> w = std::move(waiters_.back());
    waiters_.pop_back();
    w->woken_at = sim_.now();
    waiter_wakes_++;
    w->event.Set();
  }
}

void PageServer::WakeAllWaiters() {
  for (auto& w : waiters_) {
    w->woken_at = sim_.now();
    waiter_wakes_++;
    w->event.Set();
  }
  waiters_.clear();
}

sim::Task<Result<storage::Page>> PageServer::GetPageAtLsn(PageId page_id,
                                                          Lsn min_lsn) {
  // The one-entry case of the wire path: a frame's entry bytes, served
  // by the same routine.
  char entry[rbio::GetPageBatchRequest::kEntryBytes];
  EncodeFixed64(entry, page_id);
  EncodeFixed64(entry + 8, min_lsn);
  GetPageScratch scratch = AcquireScratch();
  co_await ServeGetPages(rbio::GetPageBatchRequest(entry, 1), &scratch);
  rbio::GetPageBatchResponse::Entry& e = scratch.resp.entries[0];
  Result<storage::Page> page = e.status.ok()
                                   ? Result<storage::Page>(std::move(e.page))
                                   : Result<storage::Page>(e.status);
  ReleaseScratch(std::move(scratch));
  co_return page;
}

sim::Task<Result<storage::Page>> PageServer::ServeLocal(PageId page_id) {
  if (!InPartition(page_id)) {
    co_return Result<storage::Page>(
        Status::InvalidArgument("page not in this partition"));
  }
  Result<engine::PageRef> ref = co_await pool_->GetPage(page_id);
  if (!ref.ok()) co_return Result<storage::Page>(ref.status());
  // Checksum the cached frame in place (recomputed only when dirtied
  // since the last serve), then ship a COW reference: no 8 KiB copy —
  // the applier's next write to this frame detaches it instead.
  ref->EnsureChecksum();
  storage::Page copy = *ref->page();
  co_return std::move(copy);
}

// Wait until this incarnation has applied log up to `min_lsn`. If the
// server crashes/restarts while we wait, fail Unavailable so the RBIO
// client retries against the new incarnation (stateless protocol).
sim::Task<Status> PageServer::WaitApplied(Lsn min_lsn) {
  const uint64_t my_epoch = epoch_;
  const SimTime wait_start = sim_.now();
  auto after = [](const std::shared_ptr<FreshnessWaiter>& a,
                  const std::shared_ptr<FreshnessWaiter>& b) {
    return a->lsn > b->lsn;
  };
  while (true) {
    if (epoch_ != my_epoch || !running_) {
      co_return Status::Unavailable("page server restarted");
    }
    if (applier_->applied_lsn().value() >= min_lsn) {
      freshness_wait_us_.Add(static_cast<double>(sim_.now() - wait_start));
      co_return Status::OK();
    }
    // Park on the waiter heap; the watermark's on_advance hook (or
    // Stop/Crash) wakes us exactly when the threshold is crossed. Loop to
    // re-check the epoch — a crash swaps the applier under us.
    auto w = std::make_shared<FreshnessWaiter>(sim_, min_lsn);
    waiters_.push_back(w);
    std::push_heap(waiters_.begin(), waiters_.end(), after);
    co_await w->event.Wait();
    waiter_wake_lag_us_.Add(static_cast<double>(sim_.now() - w->woken_at));
  }
}

sim::Task<Result<std::string>> PageServer::HandleRbio(
    const std::string& frame) {
  SimTime gray = chaos_port_.GrayDelayUs();
  if (gray > 0) co_await sim::Delay(sim_, gray);
  if (chaos_port_.Out() || chaos_port_.ConsumeFailure()) {
    co_return Result<std::string>(
        Status::Unavailable("injected transient failure"));
  }
  // Dispatch on the peeked type byte: exactly one decode runs per frame.
  Status ds;
  switch (rbio::PeekMessageType(frame)) {
    case rbio::MessageType::kGetPageBatch: {
      rbio::GetPageBatchRequest req;
      ds = rbio::GetPageBatchRequest::Decode(Slice(frame), &req);
      if (!ds.ok()) break;
      GetPageScratch scratch = AcquireScratch();
      co_await ServeGetPages(req, &scratch);
      std::string out = scratch.resp.Encode();
      ReleaseScratch(std::move(scratch));
      co_return out;
    }
    case rbio::MessageType::kScanRange: {
      rbio::ScanRangeRequest scan;
      ds = rbio::ScanRangeRequest::Decode(Slice(frame), &scan);
      if (!ds.ok()) break;
      co_return co_await ServeScan(std::move(scan));
    }
    default:
      ds = Status::NotSupported("rbio: unknown message type");
      break;
  }
  // Undecodable or unknown frame: reject in a typed way (a zero-entry
  // GetPage response, whose prefix every format shares) so the client
  // can distinguish protocol errors from data errors.
  co_return rbio::GetPageBatchResponse{ds, {}}.Encode();
}

PageServer::GetPageScratch PageServer::AcquireScratch() {
  if (scratch_pool_.empty()) return GetPageScratch{};
  GetPageScratch s = std::move(scratch_pool_.back());
  scratch_pool_.pop_back();
  return s;
}

void PageServer::ReleaseScratch(GetPageScratch&& scratch) {
  scratch.resp.entries.clear();  // keeps capacity, drops page refs
  scratch_pool_.push_back(std::move(scratch));
}

namespace {

void SetEntry(rbio::GetPageBatchResponse::Entry* out,
              Result<storage::Page> page) {
  if (page.ok()) {
    out->page = std::move(page).value();
    out->status = Status::OK();
  } else {
    out->status = page.status();
  }
}

}  // namespace

// Serve every GetPage@LSN entry of one frame into scratch->resp, in
// request order. A one-page frame waits for freshness, then pays 5 us of
// CPU and feeds its service time to the scan-admission window. A frame of
// N >= 2 pays 5 + N/2 us on arrival plus 1 us per page, and serves its
// entries grouped by min_lsn in ascending order (ties in request order),
// so low-LSN groups' page reads overlap the apply progress the high-LSN
// groups are still waiting on.
sim::Task<> PageServer::ServeGetPages(rbio::GetPageBatchRequest req,
                                      GetPageScratch* scratch) {
  const uint32_t n = req.size();
  batch_requests_++;
  batch_subrequests_ += n;
  getpage_requests_ += n;
  rbio::GetPageBatchResponse& resp = scratch->resp;
  resp.status = Status::OK();
  resp.entries.resize(n);
  if (n == 1) {
    const rbio::GetPageBatchRequest::Entry e = req[0];
    rbio::GetPageBatchResponse::Entry& out = resp.entries[0];
    const SimTime t0 = sim_.now();
    if (!InPartition(e.page_id)) {
      out.status = Status::InvalidArgument("page not in this partition");
    } else if (Status ws = co_await WaitApplied(e.min_lsn); !ws.ok()) {
      out.status = ws;
    } else {
      co_await cpu_->Consume(5);
      SetEntry(&out, co_await ServeLocal(e.page_id));
      RecordGetPageServiceTime(sim_.now() - t0);
    }
  } else {
    std::vector<uint32_t>& order = scratch->order;
    order.resize(n);
    for (uint32_t i = 0; i < n; i++) order[i] = i;
    std::sort(order.begin(), order.end(), [&req](uint32_t a, uint32_t b) {
      const Lsn la = req[a].min_lsn, lb = req[b].min_lsn;
      return la != lb ? la < lb : a < b;
    });
    co_await cpu_->Consume(5 + n / 2);
    for (uint32_t g = 0; g < n;) {
      const Lsn min_lsn = req[order[g]].min_lsn;
      Status ws = co_await WaitApplied(min_lsn);
      for (; g < n && req[order[g]].min_lsn == min_lsn; g++) {
        rbio::GetPageBatchResponse::Entry& out = resp.entries[order[g]];
        if (!ws.ok()) {
          out.status = ws;
          continue;
        }
        co_await cpu_->Consume(1);
        SetEntry(&out, co_await ServeLocal(req[order[g]].page_id));
      }
    }
  }
  // Crash-during-wait: if every entry died Unavailable, report it as the
  // overall status so the client's retry loop treats the whole frame as
  // transient.
  if (n > 0 && std::all_of(resp.entries.begin(), resp.entries.end(),
                           [](const rbio::GetPageBatchResponse::Entry& e) {
                             return e.status.IsUnavailable();
                           })) {
    resp.status = resp.entries[0].status;
  }
}

namespace {

// One pre-read of ServeScan: pin `id` into `pins`. A failed read is
// dropped; if the walk reaches that page it reads it again and reports
// the error there.
sim::Task<> PinScanLeaf(engine::BufferPool* pool, PageId id,
                        std::vector<engine::PageRef>* pins) {
  Result<engine::PageRef> ref = co_await pool->GetPage(id);
  if (ref.ok()) pins->push_back(std::move(ref).value());
}

}  // namespace

// Serve one kScanRange frame: the computation-pushdown evaluator. Wait
// for min_lsn, pin the leaves the client listed (all reads at once), then
// walk leaf pages from req.leaves[0] through right-sibling links,
// evaluating predicate / projection / aggregate against the covering
// RBPEX (§4.6) at snapshot req.read_ts — shipping back qualifying tuples
// (or one partial-aggregate state) instead of raw pages. Fence keys
// police the walk exactly like a §4.5 traversal: a leaf that does not
// cover the cursor key (split racing log apply) stops the scan with
// fence_miss and the client re-locates or falls back.
sim::Task<Result<std::string>> PageServer::ServeScan(
    rbio::ScanRangeRequest req) {
  scan_requests_++;
  rbio::ScanRangeResponse resp;
  // Admission (§4.6 serving health): while the point-read path is
  // degraded, scans queue behind a token bucket and are shed with
  // kOverloaded past the wait bound — before they pin pages, wait on
  // freshness, or burn evaluator CPU.
  Status admit = co_await AdmitScan();
  if (!admit.ok()) {
    resp.status = admit;
    co_return resp.Encode();
  }
  Status ws = co_await WaitApplied(req.min_lsn);
  if (!ws.ok()) {
    resp.status = ws;
    co_return resp.Encode();
  }
  resp.status = Status::OK();
  resp.aggregated = req.aggregate.enabled();
  uint64_t cursor = req.start_key;
  resp.resume_key = cursor;
  if (req.leaves.empty()) {
    resp.fence_miss = true;  // no leaf to start on: the client re-locates
    co_return resp.Encode();
  }
  PageId leaf = req.leaves[0];
  // Read the listed leaves at once, up to the walk's budget and the
  // first one another partition owns (the walk stops there), and hold
  // the pins for the walk: it then finds them in memory instead of
  // paying one SSD read per sibling hop. The list is only a hint; a
  // wrong id costs one wasted read.
  std::vector<engine::PageRef> pins;
  {
    std::vector<sim::Task<>> reads;
    const size_t n = std::min<size_t>(req.leaves.size(), req.max_pages);
    for (size_t i = 0; i < n && InPartition(req.leaves[i]); i++) {
      reads.push_back(PinScanLeaf(pool_.get(), req.leaves[i], &pins));
    }
    co_await sim::Gather(sim_, std::move(reads));
  }
  // Projected tuple bytes accumulate in one arena (the walk's own page
  // pin lives per leaf); response Slices are taken after it stops
  // growing.
  std::string arena;
  struct Tup {
    uint64_t key;
    uint32_t off;
    uint32_t len;
  };
  std::vector<Tup> tups;
  // Pushdown trades wire bytes for Page Server compute: each leaf visited
  // pays the evaluator's per-I/O and per-KB price on this server's CPU.
  const sim::DeviceProfile eval = sim::DeviceProfile::PushdownEval();
  const SimTime eval_cpu_us =
      eval.cpu_per_io_us +
      static_cast<SimTime>(eval.cpu_per_kb_us *
                           (static_cast<double>(kPageSize) / 1024.0));
  uint32_t pages_scanned = 0;
  bool done = false;
  while (!done) {
    if (!InPartition(leaf)) {
      // Partition boundary: the client resumes from resume_key against
      // the owning Page Server.
      break;
    }
    Result<engine::PageRef> ref = co_await pool_->GetPage(leaf);
    if (!ref.ok()) {
      if (ref.status().IsNotFound()) {
        // The sibling pointer led to a not-yet-materialized page (split
        // racing log apply): nothing past resume_key was evaluated.
        resp.fence_miss = true;
        break;
      }
      resp.status = ref.status();
      co_return resp.Encode();
    }
    engine::BTreePage bp(ref->page());
    if (!bp.is_leaf() || !bp.CoversKey(cursor)) {
      resp.fence_miss = true;
      break;
    }
    pages_scanned++;
    // The evaluator is not free: pushdown trades wire bytes for Page
    // Server CPU, priced per leaf + per KB by the pushdown profile.
    co_await cpu_->Consume(eval_cpu_us);
    const uint64_t high = bp.high_fence();
    const PageId sibling = bp.right_sibling();
    const int n = bp.slot_count();
    for (int i = bp.LowerBound(cursor); i < n; i++) {
      const uint64_t key = bp.KeyAt(i);
      if (key >= req.end_key) {
        resp.complete = true;
        done = true;
        break;
      }
      // The local plan's reader: a malformed chain fails both plans alike.
      engine::VersionView v;
      const engine::ChainLookup found =
          engine::VisibleAt(bp.LeafValueAt(i), req.read_ts, &v);
      if (found == engine::ChainLookup::kMalformed) {
        resp.status = Status::Corruption("bad version chain encoding");
        co_return resp.Encode();
      }
      if (found == engine::ChainLookup::kNone || v.tombstone) {
        continue;  // row not visible at this snapshot
      }
      scan_rows_scanned_++;
      if (!common::EvalPredicate(req.predicate, key, v.payload)) continue;
      if (resp.aggregated) {
        resp.agg.Accumulate(common::AggFieldValue(req.aggregate, v.payload));
      } else {
        const auto off = static_cast<uint32_t>(arena.size());
        req.projection.Apply(v.payload, &arena);
        tups.push_back(
            {key, off, static_cast<uint32_t>(arena.size()) - off});
        if (req.limit > 0 && tups.size() >= req.limit) {
          resp.resume_key = key + 1;
          done = true;
          break;
        }
      }
    }
    if (done) break;
    // Page fully evaluated: advance to the right sibling.
    cursor = high;
    resp.resume_key = high;
    if (high == engine::kMaxKey || high >= req.end_key ||
        sibling == kInvalidPageId) {
      resp.complete = true;
      break;
    }
    leaf = sibling;
    if (pages_scanned >= req.max_pages) {
      // Budget spent: bound frame size / service time; the client
      // resumes from resume_key.
      break;
    }
  }
  resp.tuples.reserve(tups.size());
  for (const Tup& t : tups) {
    resp.tuples.push_back({t.key, Slice(arena.data() + t.off, t.len)});
  }
  scan_tuples_returned_ += tups.size();
  co_return resp.Encode();
}

void PageServer::RecordGetPageServiceTime(SimTime us) {
  getpage_service_us_.Add(static_cast<double>(us));
  getpage_lat_ring_[getpage_lat_next_] = us;
  getpage_lat_next_ = (getpage_lat_next_ + 1) % kGetPageLatWindow;
  if (getpage_lat_count_ < kGetPageLatWindow) getpage_lat_count_++;
}

SimTime PageServer::RecentGetPageP99Us() const {
  // Too few samples = no signal (a freshly started server must not look
  // degraded because its first request waited on recovery).
  if (getpage_lat_count_ < 16) return 0;
  SimTime buf[kGetPageLatWindow];
  std::copy(getpage_lat_ring_, getpage_lat_ring_ + getpage_lat_count_, buf);
  size_t idx = (getpage_lat_count_ * 99) / 100;
  if (idx >= getpage_lat_count_) idx = getpage_lat_count_ - 1;
  std::nth_element(buf, buf + idx, buf + getpage_lat_count_);
  return buf[idx];
}

bool PageServer::ServingDegraded() const {
  return opts_.scan_admission_p99_us > 0 &&
         RecentGetPageP99Us() > opts_.scan_admission_p99_us;
}

// Scan admission token bucket capacity (burst allowance).
constexpr double kScanAdmissionBurst = 2.0;
// Max admission-queue wait before a scan is shed with kOverloaded.
constexpr SimTime kScanAdmissionMaxWaitUs = 20 * 1000;

// Gate one kScanRange request. Healthy server: admit immediately, zero
// added latency. Degraded server: the scan joins a token-bucket queue
// (refill scan_admission_tokens_per_s, cap kScanAdmissionBurst) and is
// shed with kOverloaded once waiting any longer cannot yield a token
// before kScanAdmissionMaxWaitUs. The health predicate is re-checked
// every wakeup, so scans stop paying the bucket as soon as the point-
// read burst drains.
sim::Task<Status> PageServer::AdmitScan() {
  if (!opts_.scan_admission_enabled) co_return Status::OK();
  if (!ServingDegraded()) co_return Status::OK();
  scans_queued_++;
  const SimTime start = sim_.now();
  const SimTime deadline = start + kScanAdmissionMaxWaitUs;
  while (true) {
    const SimTime now = sim_.now();
    // Lazy refill from elapsed virtual time.
    if (scan_tokens_refill_at_ == 0) scan_tokens_refill_at_ = now;
    if (now > scan_tokens_refill_at_ &&
        opts_.scan_admission_tokens_per_s > 0) {
      const double refill =
          static_cast<double>(now - scan_tokens_refill_at_) *
          opts_.scan_admission_tokens_per_s / 1e6;
      scan_tokens_ =
          std::min(kScanAdmissionBurst, scan_tokens_ + refill);
    }
    scan_tokens_refill_at_ = now;
    if (!ServingDegraded()) {
      // Recovered while we queued; no token needed.
      scan_queue_wait_us_.Add(static_cast<double>(now - start));
      co_return Status::OK();
    }
    if (scan_tokens_ >= 1.0) {
      scan_tokens_ -= 1.0;
      scan_queue_wait_us_.Add(static_cast<double>(now - start));
      co_return Status::OK();
    }
    // Time until the bucket reaches one token; shed if that lands past
    // the deadline (waiting longer cannot help).
    if (opts_.scan_admission_tokens_per_s <= 0) {
      scans_rejected_++;
      scan_queue_wait_us_.Add(static_cast<double>(now - start));
      co_return Status::Overloaded("ps: scan admission shed");
    }
    const SimTime token_wait =
        static_cast<SimTime>((1.0 - scan_tokens_) * 1e6 /
                             opts_.scan_admission_tokens_per_s) +
        1;
    if (now + token_wait > deadline) {
      scans_rejected_++;
      scan_queue_wait_us_.Add(static_cast<double>(now - start));
      co_return Status::Overloaded("ps: scan admission shed");
    }
    co_await sim::Delay(sim_, token_wait);
  }
}

// Aggregate contiguous dirty pages into single XStore writes up to this
// many pages (§4.6 "aggregate multiple I/Os ... in a single large write").
constexpr uint64_t kMaxXStoreBatchPages = 64;

sim::Task<> PageServer::CheckpointWriteBatch(
    std::vector<PageId> run, std::shared_ptr<CheckpointJoin> join,
    sim::Semaphore* sem, uint64_t epoch) {
  PageId first_page = opts_.partition_map.FirstPage(opts_.partition);
  // Capture images up front, in one synchronous stretch together with
  // each page's dirty generation. The batch maps the captured frames
  // themselves, not copies: XStore holding a frame makes it shared, so
  // when concurrent log apply mutates one of these pages while the write
  // is in flight (or later), Page's copy-on-write detaches the pool's
  // copy onto a fresh frame and the captured image never changes. The
  // generation check in ClearDirtyIfUnchanged keeps such a page dirty for
  // the next round (the XStore image is stale for it).
  storage::SegmentList batch;
  std::vector<std::pair<PageId, uint64_t>> captured;
  captured.reserve(run.size());
  Status status;
  for (PageId id : run) {
    if (epoch_ != epoch) {
      status = Status::Unavailable("page server restarted");
      break;
    }
    Result<engine::PageRef> ref = co_await pool_->GetPage(id);
    if (!ref.ok()) {
      status = ref.status();
      break;
    }
    ref->EnsureChecksum();
    batch.Append(storage::SegmentRef(ref->page()->ShareFrame(), kPageSize));
    captured.emplace_back(id, pool_->DirtyGen(id));
  }
  if (status.ok() && epoch_ == epoch) {
    status = co_await xstore_->Write(
        data_blob_, (run.front() - first_page) * kPageSize,
        std::move(batch));
  }
  if (epoch_ == epoch) {
    if (status.ok()) {
      for (auto [id, gen] : captured) {
        pool_->ClearDirtyIfUnchanged(id, gen);
      }
      checkpoint_batches_++;
      checkpoint_pages_written_ += run.size();
    } else {
      // XStore outage insulation (§4.6): this batch's pages stay dirty
      // and the round reports the failure; the next round retries.
      if (join->first_error.ok()) join->first_error = status;
    }
  } else if (join->first_error.ok()) {
    join->first_error = Status::Unavailable("page server restarted");
  }
  sem->Release();
  join->inflight--;
  join->drained.Set();
}

sim::Task<Status> PageServer::Checkpoint() {
  // Rounds are serialized: the periodic loop, manual calls, and
  // Backup() must not interleave extent writes of two rounds.
  sim::Mutex::Guard round = co_await checkpoint_mu_->Acquire();
  const uint64_t epoch = epoch_;
  const SimTime round_start = sim_.now();
  // The replay point must cover every record not yet reflected in
  // XStore: everything applied after this round's dirty set was captured
  // stays dirty for the next round.
  Lsn candidate_restart = applier_->applied_lsn().value();
  if (candidate_restart >= restart_lsn_) {
    restart_lag_bytes_.Add(
        static_cast<double>(candidate_restart - restart_lsn_));
  }
  std::vector<PageId> dirty = pool_->DirtyPages();
  std::sort(dirty.begin(), dirty.end());

  // Aggregate contiguous dirty pages into single large XStore writes,
  // overlapped up to checkpoint_inflight_writes at a time. The
  // semaphore is acquired before a batch captures its images, so
  // permits=1 degenerates to the exact serial capture→write→clear
  // order (and permit-bounded capture also bounds copied-image memory).
  const int permits = std::max(1, opts_.checkpoint_inflight_writes);
  sim::Semaphore sem(sim_, permits);
  auto join = std::make_shared<CheckpointJoin>(sim_);
  size_t i = 0;
  while (i < dirty.size()) {
    size_t j = i + 1;
    while (j < dirty.size() && dirty[j] == dirty[j - 1] + 1 &&
           j - i < kMaxXStoreBatchPages) {
      j++;
    }
    co_await sem.Acquire();
    if (!join->first_error.ok() || epoch_ != epoch) {
      sem.Release();
      break;
    }
    join->inflight++;
    sim::Spawn(sim_, CheckpointWriteBatch(
                         std::vector<PageId>(dirty.begin() + i,
                                             dirty.begin() + j),
                         join, &sem, epoch));
    i = j;
  }
  while (join->inflight > 0) {
    join->drained.Reset();
    co_await join->drained.Wait();
  }
  if (epoch_ != epoch) {
    co_return Status::Unavailable("page server restarted mid-checkpoint");
  }
  if (!join->first_error.ok()) {
    checkpoint_failures_++;
    co_return join->first_error;
  }
  // Materialize the data blob even if this partition has no pages yet,
  // so backups (XStore snapshots) always have a blob to snapshot.
  if (!xstore_->Exists(data_blob_)) {
    SOCRATES_CO_RETURN_IF_ERROR(
        co_await xstore_->Write(data_blob_, 0, Slice()));
  }
  Status meta = co_await StoreMeta(candidate_restart);
  if (epoch_ != epoch) {
    co_return Status::Unavailable("page server restarted mid-checkpoint");
  }
  if (!meta.ok()) {
    checkpoint_failures_++;
    co_return meta;
  }
  restart_lsn_ = candidate_restart;
  checkpoints_++;
  checkpoint_duration_us_.Add(static_cast<double>(sim_.now() - round_start));
  co_return Status::OK();
}

sim::Task<> PageServer::CheckpointLoop(uint64_t epoch) {
  while (Live(epoch)) {
    SimTime delay = opts_.checkpoint_interval_us;
    if (opts_.checkpoint_jitter_frac > 0 && delay > 0) {
      // interval * (1 ± jitter), deterministic per server: replicas'
      // rounds drift apart instead of herding XStore together.
      SimTime span = static_cast<SimTime>(
          static_cast<double>(delay) * opts_.checkpoint_jitter_frac);
      if (span > 0) {
        delay += checkpoint_rng_.Uniform(2 * span + 1);
        delay -= span;
      }
    }
    co_await sim::Delay(sim_, std::max<SimTime>(delay, 1));
    if (!Live(epoch)) break;
    if (checkpoint_starts_.size() < 16) {
      checkpoint_starts_.push_back(sim_.now());
    }
    (void)co_await Checkpoint();  // failures retried next round
  }
}

sim::Task<Result<xstore::SnapshotId>> PageServer::Backup() {
  const SimTime t0 = sim_.now();
  SOCRATES_CO_RETURN_IF_ERROR(co_await Checkpoint());
  const SimTime t1 = sim_.now();
  Result<xstore::SnapshotId> snap = co_await xstore_->Snapshot(data_blob_);
  last_backup_checkpoint_us_ = t1 - t0;
  last_backup_snapshot_us_ = sim_.now() - t1;
  co_return snap;
}

void PageServer::SeedAsync() {
  seeding_done_ = false;
  sim::Spawn(sim_, SeedLoop(epoch_));
}

sim::Task<> PageServer::SeedLoop(uint64_t epoch) {
  // Warm the covering cache in the background; the server answers
  // GetPage@LSN and applies log the whole time (§4.6).
  PageId first = opts_.partition_map.FirstPage(opts_.partition);
  PageId end = opts_.partition_map.EndPage(opts_.partition);
  constexpr PageId kSeedWindow = 32;
  for (PageId id = first; id < end && Live(epoch); id++) {
    // Issue a window of prefetches ahead of the serial walk so the
    // XStore fetches overlap instead of paying one RTT per page.
    if ((id - first) % kSeedWindow == 0) {
      std::vector<PageId> window;
      for (PageId p = id; p < std::min(id + kSeedWindow, end); p++) {
        if (!pool_->Contains(p)) window.push_back(p);
      }
      pool_->Prefetch(window);
    }
    if (!pool_->Contains(id)) {
      // NotFound = page does not exist yet; fine.
      (void)co_await pool_->GetPage(id);
      if (!Live(epoch)) co_return;
    }
    if ((id - first) % 64 == 63) co_await sim::Yield(sim_);
  }
  seeding_done_ = true;
}

sim::Task<Status> PageServer::LoadMeta() {
  std::string meta;
  Status s = co_await xstore_->Read(meta_blob_, 0, 8, &meta);
  if (s.IsNotFound()) {
    restart_lsn_ = engine::kLogStreamStart;  // brand-new partition
    co_return Status::OK();
  }
  if (!s.ok()) co_return s;
  restart_lsn_ = DecodeFixed64(meta.data());
  if (restart_lsn_ < engine::kLogStreamStart) {
    restart_lsn_ = engine::kLogStreamStart;
  }
  co_return Status::OK();
}

sim::Task<Status> PageServer::StoreMeta(Lsn restart_lsn) {
  std::string meta;
  PutFixed64(&meta, restart_lsn);
  co_return co_await xstore_->Write(meta_blob_, 0, Slice(meta));
}

}  // namespace pageserver
}  // namespace socrates
