#include "engine/txn_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

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
  Result<VersionChain> chain = co_await btree_.Find(key);
  if (!chain.ok()) co_return Result<std::string>(chain.status());
  const RowVersion* v = chain->VisibleAt(txn->read_ts());
  if (v == nullptr || v->tombstone) {
    co_return Result<std::string>(Status::NotFound("invisible at snapshot"));
  }
  co_return v->payload;
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
    Result<size_t> r = co_await btree_.Scan(
        cursor, batch,
        [&](uint64_t key, const VersionChain& chain) {
          last_key = key;
          seen++;
          const RowVersion* v = chain.VisibleAt(read_ts);
          if (v != nullptr && !v->tombstone) {
            rows.emplace_back(key, v->payload);
          }
          return rows.size() < want;
        });
    if (!r.ok()) {
      co_return Result<std::vector<std::pair<uint64_t, std::string>>>(
          r.status());
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
    Result<size_t> r = co_await btree_.Scan(
        cursor, batch, [&](uint64_t key, const VersionChain& chain) {
          if (key >= end_key) {
            done = true;
            return false;
          }
          last_key = key;
          seen++;
          const RowVersion* v = chain.VisibleAt(read_ts);
          if (v != nullptr && !v->tombstone &&
              common::EvalPredicate(filter.predicate, key,
                                    Slice(v->payload))) {
            if (project) {
              std::string out;
              filter.projection.Apply(Slice(v->payload), &out);
              rows->emplace_back(key, std::move(out));
            } else {
              rows->emplace_back(key, v->payload);
            }
            if (want > 0 && rows->size() >= want) return false;
          }
          return true;
        });
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
  p.warm_prefix_end = start;
  if (end <= start) co_return p;
  const uint64_t width = end - start;
  const int n =
      static_cast<int>(std::min<uint64_t>(kProbeSamples, width));
  const uint64_t step = width / static_cast<uint64_t>(n);
  int resident = 0;
  int in_mem = 0;
  bool prefix_unbroken = true;
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
    if (prefix_unbroken) {
      if (res) {
        p.warm_prefix_end =
            i == n - 1 ? end : start + static_cast<uint64_t>(i + 1) * step;
      } else {
        prefix_unbroken = false;
      }
    }
  }
  if (p.samples > 0) {
    p.resident_frac = static_cast<double>(resident) / p.samples;
    p.mem_frac = static_cast<double>(in_mem) / p.samples;
  }
  co_return p;
}

namespace {

// Scan-planner constants, in virtual µs unless noted. The per-range EWMA
// corrections absorb their error, so they only need to be in the right
// ballpark. Local evaluation of one leaf, by residency tier: memory,
// RBPEX SSD, and a non-resident leaf, which costs a GetPage round trip.
constexpr double kMemLeafUs = 8;
constexpr double kSsdLeafUs = 95;
constexpr double kMissLeafUs = 600;
// Shipping qualifying tuple bytes back over the wire.
constexpr double kWireUsPerKb = 1.0;
// Tree geometry estimates for sizing a range in leaves and bytes.
constexpr double kRowsPerLeaf = 64;
constexpr size_t kAvgRowBytes = 128;
// EWMA smoothing for the per-range observed/modeled correction.
constexpr double kEwmaAlpha = 0.3;
// A hybrid (split) plan must beat the straight local plan by this factor
// before the planner splits. The pushed suffix's round-trip tail lands
// directly on the scan's completion time, so a hybrid that is only
// marginally cheaper on modeled mean cost trades p99 for a sliver of
// throughput; demand a decisive win instead.
constexpr double kHybridMargin = 0.75;

}  // namespace

Engine::ScanCostEwma& Engine::EwmaFor(uint64_t start, uint64_t end) {
  uint64_t h = start * 0x9E3779B97F4A7C15ull ^ (end + 0x7F4A7C15ull);
  h ^= h >> 29;
  return scan_ewma_[h % kEwmaBuckets];
}

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
  bool use_remote = false;     // the plan includes a remote portion
  uint64_t push_from = start;  // keys >= push_from go remote
  // The residency probe can only size a bounded, non-empty range; any
  // other range stays local while the model is on.
  const bool cost_planned = remote_allowed && cm.enabled &&
                            end_key != UINT64_MAX && end_key > start;
  // Residency-weighted model constants, kept for the EWMA update below.
  double model_local_leaf_us = 0;
  double model_remote_leaf_us = 0;

  if (remote_allowed && !cm.enabled) {
    // Model off (a forced plan): every eligible scan ships.
    plan.kind = ScanPlanDebug::Kind::kPushdown;
    use_remote = true;
  } else if (cost_planned) {
    // Residency- and load-aware plan: sample the range's leaves against
    // the pool tiers, price local vs pushdown vs hybrid from the model
    // (corrected by per-range EWMA feedback), take the cheapest.
    const ResidencyProbe probe = co_await ProbeResidency(start, end_key);
    const ScanCostEwma& e = EwmaFor(start, end_key);
    // Range-aware selectivity: a window narrower than a kKeyModEq
    // modulus is dense relative to itself, never 1/a-sparse.
    const double sel =
        common::EstimatedSelectivity(filter.predicate, start, end_key);
    const double width = static_cast<double>(end_key - start);
    const double leaves = std::max(1.0, width / kRowsPerLeaf);
    const double ssd_frac =
        std::max(0.0, probe.resident_frac - probe.mem_frac);
    const double miss_frac = std::max(0.0, 1.0 - probe.resident_frac);
    model_local_leaf_us = probe.mem_frac * kMemLeafUs +
                          ssd_frac * kSsdLeafUs + miss_frac * kMissLeafUs;
    // Per shipped tuple: key + projected payload bytes.
    const double proj_bytes =
        16.0 + static_cast<double>(
                   filter.projection.ProjectedSize(kAvgRowBytes));
    const double remote_corr = e.remote_seen ? e.remote_corr : 1.0;
    const double local_corr = e.local_seen ? e.local_corr : 1.0;
    // Pushdown cost of `l` leaves: round trips + server eval CPU + the
    // qualifying tuple bytes on the wire (aggregates ship one fixed-size
    // state per round trip).
    auto push_cost_us = [&](double l) {
      if (l <= 0) return 0.0;
      const double rts = std::max(1.0, std::ceil(l / kScanLeavesPerFrame));
      const double wire_kb =
          agg ? rts * 0.05 : sel * l * kRowsPerLeaf * proj_bytes / 1024.0;
      const double c = rts * cm.round_trip_us + l * cm.remote_leaf_us +
                       wire_kb * kWireUsPerKb;
      return c * remote_corr;
    };
    model_remote_leaf_us = push_cost_us(leaves) / leaves / remote_corr;
    const double est_local = leaves * model_local_leaf_us * local_corr;
    const double est_push = push_cost_us(leaves);
    // Hybrid: the probe saw a warm prefix and a cold remainder — read
    // the prefix from the local tiers, push only the cold suffix.
    double est_hybrid = std::numeric_limits<double>::infinity();
    if (probe.warm_prefix_end > start && probe.warm_prefix_end < end_key) {
      const double warm_leaves =
          leaves * static_cast<double>(probe.warm_prefix_end - start) /
          width;
      const double mem_share =
          probe.resident_frac > 0
              ? std::min(1.0, probe.mem_frac / probe.resident_frac)
              : 0.0;
      const double warm_leaf_us =
          mem_share * kMemLeafUs + (1.0 - mem_share) * kSsdLeafUs;
      est_hybrid = warm_leaves * warm_leaf_us * local_corr +
                   push_cost_us(leaves - warm_leaves);
    }
    plan.resident_frac = probe.resident_frac;
    plan.mem_frac = probe.mem_frac;
    plan.est_local_us = est_local;
    plan.est_push_us = est_push;
    plan.est_hybrid_us = est_hybrid;
    plan.local_corr = local_corr;
    plan.remote_corr = remote_corr;
    // Splitting is only worth it on a decisive modeled win: the pushed
    // suffix's round trips sit on the completion path, so a marginal
    // hybrid beats local on mean cost but loses on tail latency.
    if (est_hybrid < est_local * kHybridMargin && est_hybrid < est_push) {
      plan.kind = ScanPlanDebug::Kind::kHybrid;
      plan.split_key = probe.warm_prefix_end;
      use_remote = true;
      push_from = probe.warm_prefix_end;
    } else if (est_push < est_local) {
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
  bool limit_hit_in_prefix = false;
  // EWMA instrumentation: virtual time and coverage per executed path.
  SimTime local_us_spent = 0;
  uint64_t local_width_covered = 0;
  SimTime remote_us_spent = 0;
  uint64_t remote_pages = 0;
  uint64_t remote_width_covered = 0;

  // Hybrid warm prefix: [start, push_from) on the local page path.
  if (use_remote && push_from > start) {
    stats_.hybrid_scans++;
    const SimTime t0 = sim_.now();
    uint64_t prefix_end = push_from;
    if (agg) {
      // No writes in range by eligibility: fold straight into the state.
      std::vector<std::pair<uint64_t, std::string>> rest;
      SOCRATES_CO_RETURN_IF_ERROR(
          co_await CollectFiltered(start, push_from, 0, read_ts, filter,
                                   /*project=*/false, &rest, &prefix_end));
      for (auto& [key, payload] : rest) fold(Slice(payload));
    } else {
      SOCRATES_CO_RETURN_IF_ERROR(
          co_await CollectFiltered(start, push_from, want, read_ts, filter,
                                   /*project=*/true, &rows, &prefix_end));
    }
    local_us_spent += sim_.now() - t0;
    if (prefix_end > start) local_width_covered += prefix_end - start;
    cursor = push_from;
    if (want > 0 && rows.size() >= want && prefix_end <= push_from) {
      // Limit satisfied inside the warm prefix: nothing remote to do,
      // and the examined window ends where the prefix stopped.
      window_end = prefix_end;
      limit_hit_in_prefix = true;
    }
  }

  if (use_remote && !limit_hit_in_prefix) {
    RemoteScanSpec spec;
    spec.end_key = end_key;
    spec.read_ts = read_ts;
    spec.predicate = filter.predicate;
    spec.projection = filter.projection;
    spec.aggregate = filter.aggregate;
    PageId leaf_hint = kInvalidPageId;
    int fence_retries = 0;
    const uint64_t remote_from = cursor;
    const SimTime rt0 = sim_.now();
    while (true) {
      if (want > 0 && rows.size() >= want) {
        window_end = cursor;  // limit hit: keys past here not examined
        need_local_tail = false;
        break;
      }
      PageId leaf = leaf_hint;
      leaf_hint = kInvalidPageId;
      if (leaf == kInvalidPageId) {
        Result<PageId> lid = co_await btree_.LeafIdFor(cursor);
        if (!lid.ok()) {
          out.fallbacks++;
          need_local_tail = true;
          break;
        }
        leaf = lid.value();
      }
      spec.start_key = cursor;
      spec.limit =
          want == 0 ? 0 : static_cast<uint32_t>(want - rows.size());
      Result<RemoteScanChunk> c =
          co_await scanner_->ScanLeaves(leaf, spec);
      if (!c.ok()) {
        // kOverloaded (scan admission shed — the rbio client is already
        // backing off that endpoint) or a hard transport error: finish
        // [cursor, end_key) on the local page-based path — partial
        // remote results stay valid.
        if (c.status().IsOverloaded()) stats_.pushdown_overloaded++;
        out.fallbacks++;
        need_local_tail = true;
        break;
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
      out.pushed_down = true;
      remote_pages += c->pages_scanned;
      if (agg) {
        out.agg.Merge(c->agg);
      } else {
        for (auto& t : c->tuples) rows.push_back(std::move(t));
      }
      if (c->complete) {
        need_local_tail = false;
        break;
      }
      cursor = c->resume_key;
      leaf_hint = c->next_leaf;
    }
    remote_us_spent += sim_.now() - rt0;
    const uint64_t remote_to = need_local_tail ? cursor : window_end;
    if (remote_to > remote_from) {
      remote_width_covered += remote_to - remote_from;
    }
  }

  if (need_local_tail && cursor < end_key) {
    const SimTime t0 = sim_.now();
    const uint64_t from = cursor;
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
    local_us_spent += sim_.now() - t0;
    if (window_end > from) local_width_covered += window_end - from;
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

  // Per-range EWMA feedback: fold this scan's observed per-leaf cost
  // into the correction the next plan over this range will apply. The
  // ratio is clamped so one pathological outcome cannot wedge the
  // planner.
  if (cost_planned) {
    ScanCostEwma& e = EwmaFor(start, end_key);
    if (local_width_covered > 0 && model_local_leaf_us > 0) {
      const double l = std::max(
          1.0, static_cast<double>(local_width_covered) / kRowsPerLeaf);
      const double ratio = std::clamp(
          (static_cast<double>(local_us_spent) / l) / model_local_leaf_us,
          0.05, 20.0);
      e.local_corr = e.local_seen
                         ? (1 - kEwmaAlpha) * e.local_corr + kEwmaAlpha * ratio
                         : ratio;
      e.local_seen = true;
    }
    if (remote_width_covered > 0 && model_remote_leaf_us > 0) {
      // Normalize by the *modeled* leaves of the width pushed — the
      // same denominator the planner multiplies back — not the server's
      // reported page count. With the server count, geometry error
      // (real leaves per key vs kRowsPerLeaf) cancels out of the
      // feedback loop and the corrected push estimate stays
      // permanently optimistic by exactly that factor.
      const double l = std::max(
          1.0, static_cast<double>(remote_width_covered) / kRowsPerLeaf);
      const double ratio = std::clamp(
          (static_cast<double>(remote_us_spent) / l) / model_remote_leaf_us,
          0.05, 20.0);
      e.remote_corr =
          e.remote_seen
              ? (1 - kEwmaAlpha) * e.remote_corr + kEwmaAlpha * ratio
              : ratio;
      e.remote_seen = true;
    }
  }
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

  Lsn commit_lsn;
  {
    auto guard = co_await commit_mutex_.Acquire();

    // Phase 1: validation (first-committer-wins). A key written by a
    // transaction that committed after our snapshot aborts us.
    for (const auto& [key, op] : txn->writes_) {
      Result<VersionChain> chain = co_await btree_.Find(key);
      if (chain.ok()) {
        const RowVersion* newest = chain->Newest();
        if (newest != nullptr && newest->commit_ts > txn->read_ts()) {
          stats_.conflicts++;
          co_return fail(Status::Aborted("write-write conflict"));
        }
      } else if (!chain.status().IsNotFound()) {
        co_return fail(chain.status());
      }
    }

    // Phase 2: apply. Versions carry the commit timestamp; chains are
    // trimmed against the oldest active snapshot.
    Timestamp commit_ts = ++next_ts_;
    Timestamp trim_ts = OldestActiveTs();
    for (const auto& [key, op] : txn->writes_) {
      stats_.writes++;
      Status ws = co_await btree_.Write(txn->id_, key, commit_ts,
                                        op.is_delete, Slice(op.value),
                                        trim_ts);
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
