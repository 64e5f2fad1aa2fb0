#include "engine/txn_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace socrates {
namespace engine {

std::unique_ptr<Transaction> Engine::Begin(bool read_only) {
  auto txn = std::make_unique<Transaction>();
  txn->id_ = next_txn_id_++;
  txn->read_ts_ =
      read_ts_provider_ ? read_ts_provider_() : last_committed_ts_;
  txn->read_only_ = read_only;
  active_read_ts_.insert(txn->read_ts_);
  return txn;
}

namespace {

// Remove one occurrence of the txn's read_ts from the active set.
void Deactivate(std::multiset<Timestamp>* active, Transaction* txn) {
  auto it = active->find(txn->read_ts());
  assert(it != active->end());
  active->erase(it);
}

Status BadChain() { return Status::Corruption("bad version chain encoding"); }

}  // namespace

sim::Task<Result<std::string>> Engine::Get(Transaction* txn, uint64_t key) {
  stats_.reads++;
  // Read-your-writes.
  auto wit = txn->writes_.find(key);
  if (wit != txn->writes_.end()) {
    if (wit->second.is_delete) {
      co_return Result<std::string>(Status::NotFound("deleted by self"));
    }
    co_return wit->second.value;
  }
  Result<BTree::PinnedChain> found = co_await btree_.Find(key);
  if (!found.ok()) co_return Result<std::string>(found.status());
  VersionView v;
  const ChainLookup seen = VisibleAt(found->chain, txn->read_ts(), &v);
  if (seen == ChainLookup::kMalformed) {
    co_return Result<std::string>(BadChain());
  }
  if (seen == ChainLookup::kNone || v.tombstone) {
    co_return Result<std::string>(Status::NotFound("invisible at snapshot"));
  }
  co_return v.payload.ToString();
}

GetBatch Engine::StartGets(Transaction* txn,
                           const std::vector<uint64_t>& keys) {
  return GetBatch(sim_, this, txn, keys);
}

GetBatch::GetBatch(sim::Simulator& sim, Engine* engine, Transaction* txn,
                   const std::vector<uint64_t>& keys)
    : engine_(engine),
      txn_(txn),
      unread_(keys.size()),
      landed_(sim),
      pending_(sim) {
  pending_.Add(static_cast<int>(keys.size()));
  for (size_t i = 0; i < keys.size(); i++) {
    sim::Spawn(sim, ReadOne(i, keys[i]));
  }
}

sim::Task<> GetBatch::ReadOne(size_t index, uint64_t key) {
  // A co_await inside the braced initializer below frees the result
  // twice under GCC 12, so the read is its own statement.
  Result<std::string> value = co_await engine_->Get(txn_, key);
  landed_.Push(Read{index, std::move(value)});
  pending_.Done();
}

sim::Task<GetBatch::Read> GetBatch::Next() {
  assert(unread_ > 0);
  unread_--;
  std::optional<Read> read = co_await landed_.Pop();
  co_return std::move(*read);
}

sim::Task<> GetBatch::Join() {
  if (pending_.count() > 0) co_await pending_.Wait();
}

Status Engine::Put(Transaction* txn, uint64_t key, Slice value) {
  if (txn->read_only_) {
    return Status::InvalidArgument("read-only transaction");
  }
  Transaction::WriteOp op;
  op.is_delete = false;
  op.value = value.ToString();
  txn->writes_[key] = std::move(op);
  return Status::OK();
}

Status Engine::Delete(Transaction* txn, uint64_t key) {
  if (txn->read_only_) {
    return Status::InvalidArgument("read-only transaction");
  }
  Transaction::WriteOp op;
  op.is_delete = true;
  txn->writes_[key] = std::move(op);
  return Status::OK();
}

sim::Task<Result<std::vector<std::pair<uint64_t, std::string>>>>
Engine::Scan(Transaction* txn, uint64_t start, size_t count) {
  std::vector<std::pair<uint64_t, std::string>> rows;
  Timestamp read_ts = txn->read_ts();
  // Over-fetch by the write-set size: each buffered delete can remove one
  // fetched row, each buffered insert can only add rows.
  const size_t want = count + txn->writes_.size();
  uint64_t cursor = start;
  bool exhausted = false;
  while (rows.size() < want && !exhausted) {
    size_t batch = want - rows.size() + 16;
    uint64_t last_key = cursor;
    size_t seen = 0;
    bool malformed = false;
    Result<size_t> r = co_await btree_.Scan(
        cursor, batch, [&](uint64_t key, Slice chain) {
          last_key = key;
          seen++;
          VersionView v;
          const ChainLookup found = VisibleAt(chain, read_ts, &v);
          if (found == ChainLookup::kMalformed) {
            malformed = true;
            return false;
          }
          if (found == ChainLookup::kFound && !v.tombstone) {
            rows.emplace_back(key, v.payload.ToString());
          }
          return rows.size() < want;
        });
    if (!r.ok() || malformed) {
      co_return Result<std::vector<std::pair<uint64_t, std::string>>>(
          malformed ? BadChain() : r.status());
    }
    if (seen < batch) exhausted = true;
    if (last_key == UINT64_MAX) exhausted = true;
    cursor = last_key + 1;
  }
  // Overlay buffered writes inside the scanned window.
  const uint64_t window_end = exhausted ? UINT64_MAX : cursor;
  for (auto& [key, op] : txn->writes_) {
    if (key < start || (key >= window_end && window_end != UINT64_MAX)) {
      continue;
    }
    auto pos = std::lower_bound(
        rows.begin(), rows.end(), key,
        [](const auto& a, uint64_t k) { return a.first < k; });
    bool present = pos != rows.end() && pos->first == key;
    if (op.is_delete) {
      if (present) rows.erase(pos);
    } else if (present) {
      pos->second = op.value;
    } else {
      rows.insert(pos, {key, op.value});
    }
  }
  if (rows.size() > count) rows.resize(count);
  co_return std::move(rows);
}

sim::Task<Status> Engine::CollectFiltered(
    uint64_t cursor, uint64_t end_key, size_t want, Timestamp read_ts,
    const ScanFilter& filter, bool project,
    std::vector<std::pair<uint64_t, std::string>>* rows,
    uint64_t* window_end) {
  bool done = false;
  while (!done && (want == 0 || rows->size() < want)) {
    const size_t batch = 256;
    uint64_t last_key = cursor;
    size_t seen = 0;
    bool malformed = false;
    Result<size_t> r = co_await btree_.Scan(
        cursor, batch, [&](uint64_t key, Slice chain) {
          if (key >= end_key) {
            done = true;
            return false;
          }
          last_key = key;
          seen++;
          VersionView v;
          const ChainLookup found = VisibleAt(chain, read_ts, &v);
          if (found == ChainLookup::kMalformed) {
            malformed = true;
            return false;
          }
          if (found == ChainLookup::kFound && !v.tombstone &&
              common::EvalPredicate(filter.predicate, key, v.payload)) {
            if (project) {
              std::string out;
              filter.projection.Apply(v.payload, &out);
              rows->emplace_back(key, std::move(out));
            } else {
              rows->emplace_back(key, v.payload.ToString());
            }
            if (want > 0 && rows->size() >= want) return false;
          }
          return true;
        });
    if (malformed) co_return BadChain();
    if (!r.ok()) co_return r.status();
    if (!done && seen < batch) done = true;  // tree exhausted
    if (last_key == UINT64_MAX) done = true;
    cursor = last_key + 1;
  }
  *window_end = done ? end_key : cursor;
  co_return Status::OK();
}

sim::Task<Engine::ResidencyProbe> Engine::ProbeResidency(uint64_t start,
                                                         uint64_t end) {
  ResidencyProbe p;
  if (end <= start) co_return p;
  const uint64_t width = end - start;
  const int n =
      static_cast<int>(std::min<uint64_t>(kProbeSamples, width));
  const uint64_t step = width / static_cast<uint64_t>(n);
  int resident = 0;
  int in_mem = 0;
  for (int i = 0; i < n; i++) {
    const uint64_t key = start + static_cast<uint64_t>(i) * step;
    Result<PageId> leaf = co_await btree_.LeafIdFor(key);
    // A racing split loses the sample; under-sampling just makes the
    // planner lean on its priors, never wrong results.
    if (!leaf.ok()) continue;
    p.samples++;
    const bool mem = pool_->InMemory(leaf.value());
    const bool res = mem || pool_->Contains(leaf.value());
    if (res) resident++;
    if (mem) in_mem++;
  }
  if (p.samples > 0) {
    p.resident_frac = static_cast<double>(resident) / p.samples;
    p.mem_frac = static_cast<double>(in_mem) / p.samples;
  }
  co_return p;
}

namespace {

// Scan-planner constants, in virtual µs unless noted. Local evaluation
// of one leaf, by residency tier: memory, RBPEX SSD, and a non-resident
// leaf, which costs a GetPage round trip.
constexpr double kMemLeafUs = 8;
constexpr double kSsdLeafUs = 95;
constexpr double kMissLeafUs = 600;
// Shipping qualifying tuple bytes back over the wire.
constexpr double kWireUsPerKb = 1.0;
// Tree geometry estimates for sizing a range in leaves and bytes.
constexpr double kRowsPerLeaf = 64;
constexpr size_t kAvgRowBytes = 128;

}  // namespace

sim::Task<Result<FilteredScanResult>> Engine::ScanWhere(
    Transaction* txn, uint64_t start, uint64_t end_key, size_t limit,
    const ScanFilter& filter) {
  // Give up on pushdown after this many consecutive server-side fence
  // misses (split storms): the local path always makes progress.
  constexpr int kMaxFenceRetries = 3;
  stats_.reads++;
  stats_.filtered_scans++;
  FilteredScanResult out;
  const bool agg = filter.aggregate.enabled();
  out.aggregated = agg;
  const Timestamp read_ts = txn->read_ts();

  bool writes_in_range = false;
  {
    auto it = txn->writes_.lower_bound(start);
    writes_in_range = it != txn->writes_.end() && it->first < end_key;
  }

  // Folds one full payload into the aggregate state, exactly as the
  // remote evaluator does.
  auto fold = [&](Slice payload) {
    out.agg.Accumulate(common::AggFieldValue(filter.aggregate, payload));
  };

  // ----- Plan. Policy first: aggregates cannot push down over an
  // uncommitted write set (the server cannot see it); tuple mode can —
  // the overlay below repairs the stream exactly like the unfiltered
  // Scan.
  const bool remote_allowed = scanner_ != nullptr && scanner_->Enabled() &&
                              (!agg || !writes_in_range);
  const PushdownCostModel cm =
      scanner_ != nullptr ? scanner_->CostModel() : PushdownCostModel{};

  ScanPlanDebug plan;
  bool use_remote = false;
  // The residency probe can only size a bounded, non-empty range; any
  // other range stays local while the model is on.
  const bool cost_planned = remote_allowed && cm.enabled &&
                            end_key != UINT64_MAX && end_key > start;

  if (remote_allowed && !cm.enabled) {
    // Model off (a forced plan): every eligible scan ships.
    plan.kind = ScanPlanDebug::Kind::kPushdown;
    use_remote = true;
  } else if (cost_planned) {
    // Residency-aware plan: sample the range's leaves against the pool
    // tiers, price local vs pushdown from the model, take the cheaper.
    const ResidencyProbe probe = co_await ProbeResidency(start, end_key);
    // Range-aware selectivity: a window narrower than a kKeyModEq
    // modulus is dense relative to itself, never 1/a-sparse.
    const double sel =
        common::EstimatedSelectivity(filter.predicate, start, end_key);
    const double width = static_cast<double>(end_key - start);
    const double leaves = std::max(1.0, width / kRowsPerLeaf);
    const double ssd_frac =
        std::max(0.0, probe.resident_frac - probe.mem_frac);
    const double miss_frac = std::max(0.0, 1.0 - probe.resident_frac);
    const double local_leaf_us = probe.mem_frac * kMemLeafUs +
                                 ssd_frac * kSsdLeafUs +
                                 miss_frac * kMissLeafUs;
    // Per shipped tuple: key + projected payload bytes.
    const double proj_bytes =
        16.0 + static_cast<double>(
                   filter.projection.ProjectedSize(kAvgRowBytes));
    // Pushdown cost: round trips + server eval CPU + the qualifying
    // tuple bytes on the wire (aggregates ship one fixed-size state per
    // round trip).
    const double rts =
        std::max(1.0, std::ceil(leaves / kScanLeavesPerFrame));
    const double wire_kb =
        agg ? rts * 0.05 : sel * leaves * kRowsPerLeaf * proj_bytes / 1024.0;
    const double est_push = rts * cm.round_trip_us +
                            leaves * cm.remote_leaf_us +
                            wire_kb * kWireUsPerKb;
    const double est_local = leaves * local_leaf_us;
    plan.resident_frac = probe.resident_frac;
    plan.mem_frac = probe.mem_frac;
    plan.est_local_us = est_local;
    plan.est_push_us = est_push;
    if (est_push < est_local) {
      plan.kind = ScanPlanDebug::Kind::kPushdown;
      use_remote = true;
    } else {
      plan.kind = ScanPlanDebug::Kind::kLocal;
    }
  }
  last_scan_plan_ = plan;

  std::vector<std::pair<uint64_t, std::string>> rows;
  // Over-fetch by the write-set size, mirroring Scan: buffered deletes
  // can only remove fetched rows.
  const size_t want =
      (agg || limit == 0) ? 0 : limit + txn->writes_.size();
  uint64_t cursor = start;
  uint64_t window_end = end_key;
  bool need_local_tail = !use_remote;

  if (use_remote) {
    RemoteScanSpec spec;
    spec.end_key = end_key;
    spec.read_ts = read_ts;
    spec.predicate = filter.predicate;
    spec.projection = filter.projection;
    spec.aggregate = filter.aggregate;
    int fence_retries = 0;
    while (true) {
      if (want > 0 && rows.size() >= want) {
        window_end = cursor;  // limit hit: keys past here not examined
        need_local_tail = false;
        break;
      }
      // Each chunk locates its leaves by key: the leaf covering the
      // cursor and, off the same level-1 page, the ones after it that the
      // server will walk, so it can read them all at once.
      Result<PageId> leaf = co_await btree_.LeafIdFor(
          cursor, &spec.next_leaves, end_key, kScanLeavesPerFrame - 1);
      if (!leaf.ok()) {
        out.fallbacks++;
        need_local_tail = true;
        break;
      }
      spec.start_key = cursor;
      spec.limit =
          want == 0 ? 0 : static_cast<uint32_t>(want - rows.size());
      Result<RemoteScanChunk> c =
          co_await scanner_->ScanLeaves(leaf.value(), spec);
      if (!c.ok()) {
        // A Page Server that read a malformed page answers Corruption:
        // fail the scan, as the local plan would, rather than hide the
        // server's bad copy behind a local re-read.
        if (c.status().IsCorruption()) {
          co_return Result<FilteredScanResult>(c.status());
        }
        // A transport or server error: finish [cursor, end_key) on the
        // local page-based path — partial remote results stay valid.
        out.fallbacks++;
        need_local_tail = true;
        break;
      }
      // What the server evaluated before resume_key is final, also when
      // a fence miss stopped its walk there.
      if (!c->fence_miss || c->resume_key > cursor) out.pushed_down = true;
      if (agg) {
        out.agg.Merge(c->agg);
      } else {
        for (auto& t : c->tuples) rows.push_back(std::move(t));
      }
      if (c->fence_miss) {
        // §4.5 split racing log apply, observed server-side. Re-locate
        // the leaf and retry; persistent misses degrade to local.
        cursor = std::max(cursor, c->resume_key);
        if (++fence_retries > kMaxFenceRetries) {
          out.fallbacks++;
          need_local_tail = true;
          break;
        }
        co_await sim::Delay(sim_, BTree::kRetryPauseUs);
        continue;
      }
      fence_retries = 0;
      if (c->complete) {
        need_local_tail = false;
        break;
      }
      cursor = c->resume_key;
    }
  }

  if (need_local_tail && cursor < end_key) {
    if (agg && use_remote) {
      // Fallback remainder of a remote-participating aggregate (no
      // writes in range by eligibility): fold the local tail directly.
      std::vector<std::pair<uint64_t, std::string>> rest;
      SOCRATES_CO_RETURN_IF_ERROR(
          co_await CollectFiltered(cursor, end_key, 0, read_ts, filter,
                                   /*project=*/false, &rest, &window_end));
      for (auto& [key, payload] : rest) fold(Slice(payload));
    } else {
      // Tuple mode stores projected values; local aggregate mode keeps
      // full payloads (aggregated after the write overlay below).
      SOCRATES_CO_RETURN_IF_ERROR(
          co_await CollectFiltered(cursor, end_key, want, read_ts, filter,
                                   /*project=*/!agg, &rows, &window_end));
    }
  }

  // Overlay buffered writes inside the examined window, evaluating the
  // predicate against the written values (same code as both scan paths).
  if (writes_in_range) {
    for (auto it = txn->writes_.lower_bound(start);
         it != txn->writes_.end() && it->first < end_key; ++it) {
      const uint64_t key = it->first;
      if (key >= window_end) break;
      auto pos = std::lower_bound(
          rows.begin(), rows.end(), key,
          [](const auto& a, uint64_t k) { return a.first < k; });
      const bool present = pos != rows.end() && pos->first == key;
      const bool match =
          !it->second.is_delete &&
          common::EvalPredicate(filter.predicate, key,
                                Slice(it->second.value));
      if (!match) {
        if (present) rows.erase(pos);
        continue;
      }
      std::string val;
      if (agg) {
        val = it->second.value;
      } else {
        filter.projection.Apply(Slice(it->second.value), &val);
      }
      if (present) {
        pos->second = std::move(val);
      } else {
        rows.insert(pos, {key, std::move(val)});
      }
    }
  }

  if (agg && !use_remote) {
    // Local aggregate: fold the (overlaid) full payloads.
    for (auto& [key, payload] : rows) fold(Slice(payload));
    rows.clear();
  }
  if (!agg && limit > 0 && rows.size() > limit) rows.resize(limit);
  out.rows = std::move(rows);
  stats_.pushdown_fallbacks += out.fallbacks;
  if (out.pushed_down) stats_.pushdown_scans++;

  co_return std::move(out);
}

sim::Task<Status> Engine::Commit(Transaction* txn) {
  assert(!txn->finished_);
  if (txn->writes_.empty()) {
    // Read-only commit: nothing to log.
    txn->finished_ = true;
    Deactivate(&active_read_ts_, txn);
    co_return Status::OK();
  }
  // Every error exit finishes the transaction too: one left in
  // active_read_ts_ would pin OldestActiveTs and stop version trimming.
  auto fail = [this, txn](Status s) {
    stats_.aborts++;
    txn->finished_ = true;
    Deactivate(&active_read_ts_, txn);
    return s;
  };
  if (sink_ == nullptr) {
    co_return fail(Status::InvalidArgument("engine has no log sink"));
  }

  // Fetch before taking the mutex: pin every page Phase 1 and Phase 2
  // read, which is each written key's root-to-leaf path, with the leaves
  // not in memory fetched at once. The pins hold until the commit record
  // is appended, so the critical section touches only resident pages.
  std::vector<uint64_t> keys;
  keys.reserve(txn->writes_.size());
  for (const auto& [key, op] : txn->writes_) keys.push_back(key);
  std::vector<PageRef> pins;
  const uint64_t pinned_at = btree_.splits();
  if (Status ps = co_await btree_.PinPaths(keys, &pins); !ps.ok()) {
    co_return fail(std::move(ps));
  }

  Lsn commit_lsn;
  {
    const SimTime asked_us = sim_.now();
    auto guard = co_await commit_mutex_.Acquire();
    // Samples the hold on every way out of the critical section, just
    // before `guard` releases the mutex.
    struct HoldSample {
      sim::Simulator& sim;
      Histogram& hist;
      SimTime since_us;
      ~HoldSample() { hist.Add(static_cast<double>(sim.now() - since_us)); }
    } hold{sim_, stats_.commit_mutex_hold_us, sim_.now()};
    stats_.commit_mutex_wait_us.Add(static_cast<double>(hold.since_us -
                                                        asked_us));

    // Another commit's split during the wait may have moved a key to a
    // page not pinned yet: pin the paths again before the first write.
    if (btree_.splits() != pinned_at) {
      if (Status ps = co_await btree_.PinPaths(keys, &pins); !ps.ok()) {
        co_return fail(std::move(ps));
      }
    }

    // Phase 1: validation (first-committer-wins). A key written by a
    // transaction that committed after our snapshot aborts us. Each key's
    // push is planned from the chain read here (a new key's is empty).
    // Consecutive keys are read from the leaf that covers them.
    std::vector<PushPlan> plans(txn->writes_.size());
    auto plan = plans.begin();
    PageRef leaf;
    for (const auto& [key, op] : txn->writes_) {
      if (!leaf.valid() || !BTreePage(leaf.page()).is_leaf() ||
          !BTreePage(leaf.page()).CoversKey(key)) {
        Result<PageRef> found = co_await btree_.FindLeaf(key);
        if (!found.ok()) co_return fail(found.status());
        leaf = std::move(found).value();
      }
      const BTreePage bp(leaf.page());
      if (const int slot = bp.FindSlot(key); slot >= 0) {
        const Slice chain = bp.LeafValueAt(slot);
        if (!plan->Read(chain)) co_return fail(BadChain());
        VersionView newest;
        if (Newest(chain, &newest) == ChainLookup::kFound &&
            newest.commit_ts > txn->read_ts()) {
          stats_.conflicts++;
          co_return fail(Status::Aborted("write-write conflict"));
        }
      }
      ++plan;
    }

    // Phase 2: apply. Versions carry the commit timestamp; chains are
    // trimmed against the oldest active snapshot.
    Timestamp commit_ts = ++next_ts_;
    Timestamp trim_ts = OldestActiveTs();
    // Size every chain before the first write: a write that failed after
    // earlier keys' versions were in their chains would leave versions no
    // commit record covers, visible once a later commit passes commit_ts.
    plan = plans.begin();
    for (const auto& [key, op] : txn->writes_) {
      if (plan->PushedSize(commit_ts, op.value.size(), trim_ts) >
          kMaxChainBytes) {
        co_return fail(
            Status::InvalidArgument("version chain too large for a page"));
      }
      ++plan;
    }
    for (const auto& [key, op] : txn->writes_) {
      stats_.writes++;
      Status ws = co_await btree_.Write(txn->id_, key, commit_ts,
                                        op.is_delete, Slice(op.value),
                                        trim_ts, &pins);
      if (!ws.ok()) co_return fail(std::move(ws));
    }

    // Phase 3: commit record. Visibility advances as soon as the record
    // is appended; durability is awaited outside the mutex.
    LogRecord rec;
    rec.type = LogRecordType::kTxnCommit;
    rec.txn_id = txn->id_;
    rec.commit_ts = commit_ts;
    sink_->Append(rec);
    commit_lsn = sink_->end_lsn();  // harden through the commit record
    last_committed_ts_ = commit_ts;
    // Pushdown LSN floor: a Page Server applied through here has every
    // version any current snapshot can see.
    last_committed_lsn_ = commit_lsn;
  }
  pins.clear();

  txn->finished_ = true;
  Deactivate(&active_read_ts_, txn);
  Status hs = co_await sink_->WaitHardened(commit_lsn);
  if (!hs.ok()) co_return hs;
  stats_.commits++;
  co_return Status::OK();
}

void Engine::Abort(Transaction* txn) {
  assert(!txn->finished_);
  txn->finished_ = true;
  stats_.aborts++;
  Deactivate(&active_read_ts_, txn);
}

Timestamp Engine::OldestActiveTs() const {
  if (active_read_ts_.empty()) return last_committed_ts_;
  return *active_read_ts_.begin();
}

}  // namespace engine
}  // namespace socrates
