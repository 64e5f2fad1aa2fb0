#include "compute/compute_node.h"

namespace socrates {
namespace compute {

namespace {
// Out of line on purpose: GCC 12 with -fsanitize=thread flags an error
// Result<Page> built inline in FetchPageInner as maybe-uninitialized.
[[gnu::noinline]] Result<storage::Page> PageError(Status s) {
  return Result<storage::Page>(std::move(s));
}
}  // namespace

// GetPage@LSN client over RBIO (§3.4): typed request to the best replica
// of the owning partition, freshness LSN from the evicted-LSN map
// (Primary) or the applied watermark (Secondary), checksum verification
// on receipt.
class ComputeNode::RemoteFetcher : public engine::PageFetcher {
 public:
  explicit RemoteFetcher(ComputeNode* node) : node_(node) {}

  sim::Task<Result<storage::Page>> FetchPage(PageId page_id) override {
    const SimTime start = node_->sim_.now();
    Result<storage::Page> page = co_await FetchPageInner(page_id);
    node_->remote_fetch_us_.Add(
        static_cast<double>(node_->sim_.now() - start));
    co_return page;
  }

 private:
  sim::Task<Result<storage::Page>> FetchPageInner(PageId page_id) {
    std::vector<rbio::Endpoint> endpoints =
        node_->router_->EndpointsFor(page_id);
    if (endpoints.empty()) {
      co_return PageError(Status::Unavailable("no page server for partition"));
    }
    Lsn min_lsn = node_->evicted_map_.Get(page_id);
    if (min_lsn == kInvalidLsn) min_lsn = 0;
    if (node_->recovery_floor_ != kInvalidLsn) {
      min_lsn = std::max(min_lsn, node_->recovery_floor_);
    }
    bool secondary = node_->role_ == Role::kSecondary;
    if (secondary) {
      // §4.5: the fetch must cover everything the apply loop has already
      // processed (and possibly skipped) for this page; register so
      // records arriving mid-fetch are queued and drained below.
      min_lsn = std::max(min_lsn, node_->applied_lsn());
      node_->applier_->RegisterPendingFetch(page_id);
    }
    node_->remote_fetches_++;

    // Concurrent misses for the same partition issued this tick are
    // multiplexed into one kGetPageBatch frame by the RBIO client.
    Result<storage::Page> page =
        co_await node_->rbio_->GetPage(endpoints, page_id, min_lsn);

    if (!page.ok()) {
      if (secondary) node_->applier_->CancelPendingFetch(page_id);
      co_return page;
    }
    if (secondary) {
      Status ds =
          node_->applier_->DrainPendingInto(page_id, &page.value());
      if (!ds.ok()) co_return PageError(ds);
    }
    co_return page;
  }

  ComputeNode* node_;
};

// Engine::RemoteScanner over RBIO kScanRange (computation pushdown):
// routes the chunk to the replicas of the partition owning the start
// leaf, sets the LSN-consistency floor for the node's role, and converts
// the wire response (tuple Slices aliasing the response frame) into an
// owned RemoteScanChunk. Server and transport errors surface as an error
// Result; the planner then falls back to the page-based path.
class ComputeNode::PushdownScanner : public engine::RemoteScanner {
 public:
  explicit PushdownScanner(ComputeNode* node) : node_(node) {}

  bool Enabled() const override {
    return node_->opts_.pushdown_plan != PushdownPlan::kPages &&
           node_->alive_;
  }

  engine::PushdownCostModel CostModel() const override {
    engine::PushdownCostModel m;
    m.enabled = node_->opts_.pushdown_plan == PushdownPlan::kCost;
    return m;
  }

  sim::Task<Result<engine::RemoteScanChunk>> ScanLeaves(
      PageId start_leaf, const engine::RemoteScanSpec& spec) override {
    std::vector<rbio::Endpoint> endpoints =
        node_->router_->EndpointsFor(start_leaf);
    if (endpoints.empty()) {
      co_return Result<engine::RemoteScanChunk>(
          Status::Unavailable("no page server for partition"));
    }
    rbio::ScanRangeRequest req;
    req.leaves.reserve(1 + spec.next_leaves.size());
    req.leaves.push_back(start_leaf);
    req.leaves.insert(req.leaves.end(), spec.next_leaves.begin(),
                      spec.next_leaves.end());
    req.start_key = spec.start_key;
    req.end_key = spec.end_key;
    req.limit = spec.limit;
    req.max_pages = engine::kScanLeavesPerFrame;
    req.read_ts = spec.read_ts;
    req.predicate = spec.predicate;
    req.projection = spec.projection;
    req.aggregate = spec.aggregate;
    // LSN-consistency rule: the server must have applied enough log that
    // every version visible at read_ts exists in its pages. Primary: the
    // newest local commit LSN (conservative sink-end at commit; all
    // applied page images are <= it). Secondary: its applied watermark —
    // read_ts is the applied-commit ts, so that log covers the snapshot.
    req.min_lsn = node_->role_ == Role::kPrimary
                      ? node_->engine_->last_committed_lsn()
                      : node_->applied_lsn();
    if (node_->recovery_floor_ != kInvalidLsn) {
      req.min_lsn = std::max(req.min_lsn, node_->recovery_floor_);
    }

    Result<rbio::ScanRangeResponse> resp =
        co_await node_->rbio_->ScanRange(endpoints, req);
    if (!resp.ok()) co_return Result<engine::RemoteScanChunk>(resp.status());
    if (!resp->status.ok()) {
      co_return Result<engine::RemoteScanChunk>(resp->status);
    }
    engine::RemoteScanChunk chunk;
    chunk.complete = resp->complete;
    chunk.fence_miss = resp->fence_miss;
    chunk.resume_key = resp->resume_key;
    chunk.agg = resp->agg;
    chunk.tuples.reserve(resp->tuples.size());
    for (const rbio::ScanRangeResponse::Tuple& t : resp->tuples) {
      chunk.tuples.emplace_back(t.key, t.value.ToString());
    }
    co_return chunk;
  }

 private:
  ComputeNode* node_;
};

// Redo apply lanes for the Secondary / recovery apply path: page records
// are sharded by PageId across this many concurrent coroutines (see
// engine::RedoApplier::ConfigureLanes).
constexpr int kApplyLanes = 4;

ComputeNode::ComputeNode(sim::Simulator& sim, Role role,
                         PageServerRouter* router, xlog::XLogProcess* xlog,
                         engine::LogSink* sink,
                         const ComputeOptions& options)
    : sim_(sim),
      role_(role),
      router_(router),
      xlog_(xlog),
      sink_(sink),
      opts_(options),
      cpu_(std::make_unique<sim::CpuResource>(sim, options.cpu_cores)),
      rpc_rng_(0xfe7c + options.cpu_cores),
      consumer_(sim, xlog,
                {.name = "secondary", .ship_latency = options.pull_latency}) {
  rbio::RbioClientOptions rbio_opts;
  rbio_opts.network = options.rpc_latency;
  rbio_opts.chaos = options.chaos;
  rbio_opts.wire_mb_per_s = options.rbio_wire_mb_per_s;
  rbio_ = std::make_unique<rbio::RbioClient>(
      sim, cpu_.get(), rbio_opts, 0xb10c + options.cpu_cores);
  engine::BufferPoolOptions pool_opts;
  pool_opts.mem_pages = opts_.mem_pages;
  pool_opts.ssd_pages = opts_.ssd_pages;
  pool_opts.ssd_recoverable = opts_.rbpex_recoverable;
  fetcher_ = std::make_unique<RemoteFetcher>(this);
  pool_ = std::make_unique<engine::BufferPool>(sim, pool_opts,
                                               fetcher_.get(),
                                               /*seed=*/0xc0de);
  pool_->set_eviction_callback(
      [this](PageId id, Lsn lsn) { evicted_map_.Update(id, lsn); });
  applier_ = std::make_unique<engine::RedoApplier>(
      sim, pool_.get(), engine::RedoApplier::MissPolicy::kIgnoreUncached);
  applier_->ConfigureLanes(kApplyLanes, cpu_.get());
  engine_ = std::make_unique<engine::Engine>(
      sim, pool_.get(), role == Role::kPrimary ? sink : nullptr);
  // Scan readahead is safe on both roles: prefetch misses go through
  // RemoteFetcher::FetchPage and therefore the §4.5 registration.
  engine_->btree()->set_scan_readahead(opts_.scan_readahead);
  scanner_ = std::make_unique<PushdownScanner>(this);
  engine_->SetRemoteScanner(scanner_.get());
  if (role == Role::kSecondary) {
    engine_->SetReadTsProvider(
        [this] { return applier_->applied_commit_ts(); });
  }
}

ComputeNode::~ComputeNode() = default;

sim::Task<Status> ComputeNode::BootstrapPrimary() {
  if (role_ != Role::kPrimary || sink_ == nullptr) {
    co_return Status::InvalidArgument("not a primary");
  }
  SOCRATES_CO_RETURN_IF_ERROR(co_await engine_->Bootstrap());
  Result<Lsn> ckpt = co_await LogCheckpoint();
  co_return ckpt.status();
}

sim::Task<Result<Lsn>> ComputeNode::LogCheckpoint() {
  engine::LogRecord rec;
  rec.type = engine::LogRecordType::kCheckpoint;
  rec.commit_ts = engine_->last_committed_ts();
  rec.next_page_id = engine_->btree()->next_page_id();
  Lsn lsn = sink_->Append(rec);
  Lsn end = sink_->end_lsn();
  SOCRATES_CO_RETURN_IF_ERROR(co_await sink_->WaitHardened(end));
  co_return lsn;
}

sim::Task<Status> ComputeNode::StartSecondary() {
  if (role_ != Role::kSecondary || xlog_ == nullptr) {
    co_return Status::InvalidArgument("not a secondary");
  }
  applier_->applied_lsn().Advance(engine::kLogStreamStart);
  // Consume until the node crashes or is promoted.
  sim::Spawn(sim_, consumer_.Run(applier_.get(), [this] {
    return alive_ && role_ == Role::kSecondary;
  }));
  co_return Status::OK();
}

sim::Task<Status> ComputeNode::RecoverPrimary(Lsn replay_from,
                                              Lsn durable_end) {
  if (role_ != Role::kPrimary || xlog_ == nullptr) {
    co_return Status::InvalidArgument("not a primary");
  }
  alive_ = true;
  // 1. RBPEX: keep the warm cache, discard anything speculative.
  pool_->Recover(durable_end);
  // 2. Redo the hardened tail over cached pages. Uncached pages will be
  //    fetched fresh (>= durable_end) from Page Servers when touched.
  applier_->applied_lsn().Advance(replay_from);
  SOCRATES_CO_RETURN_IF_ERROR(
      co_await consumer_.Replay(applier_.get(), durable_end));
  // 3. Counters from the checkpoint + everything replayed after it.
  PageId next_page = std::max<PageId>(applier_->checkpoint_next_page_id(),
                                      applier_->max_page_seen() + 1);
  engine_->RestoreCounters(applier_->applied_commit_ts(), next_page);
  // 4. The evicted-LSN map died with the process: every fetch must be
  //    satisfied at least at the durable log end.
  recovery_floor_ = durable_end;
  evicted_map_.Clear();
  // 5. Warm-cache promotion (§3.3): pull the recovered RBPEX MRU prefix
  //    back into memory in the background so the node reaches warm-cache
  //    throughput without waiting for demand misses.
  if (opts_.warmup_after_recovery) {
    pool_->StartWarmup();
  }
  co_return Status::OK();
}

sim::Task<Status> ComputeNode::Promote(engine::LogSink* sink,
                                       Lsn durable_end) {
  if (role_ != Role::kSecondary) {
    co_return Status::InvalidArgument("only secondaries promote");
  }
  // Apply every hardened byte before taking writes.
  co_await applier_->applied_lsn().WaitFor(durable_end);
  alive_ = true;
  role_ = Role::kPrimary;
  sink_ = sink;
  engine_->SetSink(sink);
  engine_->SetReadTsProvider(nullptr);
  PageId next_page = std::max<PageId>(applier_->checkpoint_next_page_id(),
                                      applier_->max_page_seen() + 1);
  engine_->RestoreCounters(applier_->applied_commit_ts(), next_page);
  recovery_floor_ = durable_end;
  // The new Primary inherits a mostly-cold memory tier if the Secondary
  // was serving a different read set; promote the RBPEX MRU prefix so
  // failover reaches warm-cache throughput quickly (§5 + §3.3).
  if (opts_.warmup_after_recovery) {
    pool_->StartWarmup();
  }
  co_return Status::OK();
}

void ComputeNode::Crash() {
  alive_ = false;
  pool_->Crash();
}

}  // namespace compute
}  // namespace socrates
