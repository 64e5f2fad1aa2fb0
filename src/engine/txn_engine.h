// Engine: the miniature SQL-Server-like transactional engine.
//
// Snapshot isolation via the version chains in leaf values (§3.1):
//  * Begin() captures read_ts = last committed timestamp.
//  * Reads return the newest version with commit_ts <= read_ts
//    (read-your-writes via the transaction's buffered write set).
//  * Writes are buffered in the write set and applied at commit under a
//    commit mutex: first-committer-wins validation (a newer committed
//    version than read_ts aborts the transaction), then the new versions
//    are pushed onto the chains, then the commit record is appended.
//    The pages those steps read are fetched and pinned before the mutex
//    is taken, so its holder never waits for a fetch.
//  * Commit acks only after the log sink hardens the commit LSN — but the
//    mutex is released before that wait, so commits pipeline into group
//    commits exactly as in the real system.
//
// Because pages never contain uncommitted data, recovery is pure redo —
// the effect the paper gets from ADR (§3.2): restart time is bounded by
// the checkpoint interval, never by the oldest active transaction.
//
// The same class serves read-only tiers (Secondaries): construct with a
// null sink and install an external read-timestamp provider that tracks
// the applied-commit watermark.

#pragma once

#include <cassert>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/btree.h"
#include "engine/buffer_pool.h"
#include "engine/log_sink.h"
#include "engine/remote_scan.h"
#include "engine/version.h"
#include "sim/channel.h"
#include "sim/sync.h"

namespace socrates {
namespace engine {

/// Compose a table id and row id into a B-tree key: table in the top
/// 8 bits, row in the lower 56.
inline uint64_t MakeKey(TableId table, uint64_t row) {
  return (static_cast<uint64_t>(table) << 56) | (row & ((1ull << 56) - 1));
}
inline TableId KeyTable(uint64_t key) {
  return static_cast<TableId>(key >> 56);
}
inline uint64_t KeyRow(uint64_t key) { return key & ((1ull << 56) - 1); }

class Transaction {
 public:
  TxnId id() const { return id_; }
  Timestamp read_ts() const { return read_ts_; }
  bool read_only() const { return read_only_; }

 private:
  friend class Engine;
  struct WriteOp {
    bool is_delete = false;
    std::string value;
  };

  TxnId id_ = kInvalidTxnId;
  Timestamp read_ts_ = kInvalidTimestamp;
  bool read_only_ = false;
  bool finished_ = false;
  std::map<uint64_t, WriteOp> writes_;  // ordered => deterministic commit
};

struct EngineStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t conflicts = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  /// ScanWhere calls / those served (at least partly) by remote pushdown
  /// / those that degraded mid-scan to the local page-based path.
  uint64_t filtered_scans = 0;
  uint64_t pushdown_scans = 0;
  uint64_t pushdown_fallbacks = 0;
  /// Remote chunks shed by Page-Server scan admission (kOverloaded);
  /// each also counts as a fallback — the local path finished the range.
  uint64_t pushdown_overloaded = 0;
  /// Commit critical section, one sample per commit that takes the
  /// commit mutex (every commit with writes, bulk loads included), in
  /// simulated µs: the wait to acquire it, and how long it is held
  /// (validation, apply and the commit-record append, on pages pinned
  /// beforehand; a holder fetches only after another commit's split
  /// moved one of its keys).
  Histogram commit_mutex_wait_us;
  Histogram commit_mutex_hold_us;
};

/// How the planner decided the last ScanWhere (debug / test visibility;
/// the residency and cost fields are filled only by cost-planned scans).
struct ScanPlanDebug {
  enum class Kind : uint8_t { kLocal = 0, kPushdown };
  Kind kind = Kind::kLocal;
  /// Sampled fraction of the range's leaves resident locally (mem+ssd).
  double resident_frac = 0;
  double mem_frac = 0;
  /// Modeled costs (µs) the choice was made from.
  double est_local_us = 0;
  double est_push_us = 0;
};

/// Result of a filtered scan: projected tuples (tuple mode) or one
/// aggregate state (aggregate mode), plus how the plan executed.
struct FilteredScanResult {
  /// (key, projected payload), in key order; empty in aggregate mode.
  std::vector<std::pair<uint64_t, std::string>> rows;
  common::AggState agg;
  bool aggregated = false;
  /// At least one chunk was evaluated remotely.
  bool pushed_down = false;
  /// Times the plan degraded to the local page-based path (errors,
  /// persistent fence misses, unsupported servers).
  uint64_t fallbacks = 0;
};

class GetBatch;

class Engine {
 public:
  /// `sink` may be null for read-only tiers; Commit then fails.
  Engine(sim::Simulator& sim, BufferPool* pool, LogSink* sink)
      : sim_(sim),
        pool_(pool),
        sink_(sink),
        btree_(sim, pool, sink),
        commit_mutex_(sim) {}

  /// Create the empty database (Primary bootstrap).
  sim::Task<Status> Bootstrap() { return btree_.Create(); }

  std::unique_ptr<Transaction> Begin(bool read_only = false);

  /// Snapshot read. NotFound if the key is invisible at the snapshot.
  sim::Task<Result<std::string>> Get(Transaction* txn, uint64_t key);

  /// Start a snapshot Get of every one of `keys` at once (a batch of
  /// point reads). Each read copies its row the moment its leaf lands and
  /// unpins it; cold leaves are fetched concurrently, so misses to one
  /// Page Server share a GetPage batch frame. See GetBatch.
  GetBatch StartGets(Transaction* txn, const std::vector<uint64_t>& keys);

  /// Buffer an upsert / delete in the write set (no I/O).
  Status Put(Transaction* txn, uint64_t key, Slice value);
  Status Delete(Transaction* txn, uint64_t key);

  /// Snapshot range scan: up to `count` visible rows with key >= start.
  sim::Task<Result<std::vector<std::pair<uint64_t, std::string>>>> Scan(
      Transaction* txn, uint64_t start, size_t count);

  /// Filtered snapshot scan over [start, end_key): rows matching
  /// filter.predicate, projected (tuple mode) or partially aggregated
  /// (aggregate mode); `limit` caps returned tuples (0 = unbounded).
  /// The planner pushes evaluation down to Page Servers via the attached
  /// RemoteScanner when its cost model says the wire is cheaper (or on
  /// every eligible scan when the scanner's model is off), with
  /// transparent mid-scan fallback to the local page-based path —
  /// both paths evaluate the same scan_expr code, so results are
  /// identical either way.
  sim::Task<Result<FilteredScanResult>> ScanWhere(Transaction* txn,
                                                  uint64_t start,
                                                  uint64_t end_key,
                                                  size_t limit,
                                                  const ScanFilter& filter);

  /// Validate, apply, log, and harden. Returns Aborted on write-write
  /// conflict (first-committer-wins). The transaction is finished either
  /// way.
  sim::Task<Status> Commit(Transaction* txn);

  void Abort(Transaction* txn);

  /// Commit timestamp of the newest committed transaction.
  Timestamp last_committed_ts() const { return last_committed_ts_; }

  /// Log position of the newest local commit record (0 before the first
  /// commit). The pushdown planner's LSN-consistency floor on the
  /// Primary: a Page Server that has applied through this LSN has every
  /// version this engine's snapshots can see. Conservative — the sink's
  /// end LSN at commit time — so waiting on it is always safe.
  Lsn last_committed_lsn() const { return last_committed_lsn_; }

  /// Attach the remote pushdown evaluator (compute tier); null disables
  /// pushdown and ScanWhere always runs the local page-based plan.
  void SetRemoteScanner(RemoteScanner* scanner) { scanner_ = scanner; }
  RemoteScanner* remote_scanner() const { return scanner_; }

  /// Read-only tiers: visibility follows an external watermark (the
  /// applied-commit timestamp) instead of local commits.
  void SetReadTsProvider(std::function<Timestamp()> fn) {
    read_ts_provider_ = std::move(fn);
  }

  /// Attach a log sink (used when a Secondary is promoted to Primary:
  /// the read-only engine becomes writable).
  void SetSink(LogSink* sink) {
    sink_ = sink;
    btree_.SetSink(sink);
  }

  /// Restore engine counters from a checkpoint (recovery).
  void RestoreCounters(Timestamp last_commit_ts, PageId next_page_id) {
    last_committed_ts_ = last_commit_ts;
    next_ts_ = last_commit_ts;
    btree_.set_next_page_id(next_page_id);
  }

  BTree* btree() { return &btree_; }
  BufferPool* pool() { return pool_; }
  LogSink* sink() { return sink_; }
  const EngineStats& stats() const { return stats_; }
  /// How the most recent ScanWhere was planned (tests / benches).
  const ScanPlanDebug& last_scan_plan() const { return last_scan_plan_; }

  /// Oldest read_ts among active transactions (version-trim watermark).
  Timestamp OldestActiveTs() const;

 private:
  // Local page-based collection for [cursor, end_key): visible rows
  // matching filter.predicate, stored projected (project=true) or as
  // full payloads (aggregate paths). Shared by the non-pushdown plan and
  // the mid-scan fallback. `want` caps collected rows (0 = unbounded);
  // *window_end receives the first key NOT examined (end_key if the
  // range was exhausted).
  sim::Task<Status> CollectFiltered(
      uint64_t cursor, uint64_t end_key, size_t want, Timestamp read_ts,
      const ScanFilter& filter, bool project,
      std::vector<std::pair<uint64_t, std::string>>* rows,
      uint64_t* window_end);

  // Residency probe for the cost-based planner: descend to the leaf id
  // of `kProbeSamples` evenly spaced keys in [start, end) (interior
  // pages only — never faults a leaf in) and classify each against the
  // pool's tiers.
  struct ResidencyProbe {
    double resident_frac = 0;  // mem or ssd
    double mem_frac = 0;
    int samples = 0;
  };
  static constexpr int kProbeSamples = 8;
  sim::Task<ResidencyProbe> ProbeResidency(uint64_t start, uint64_t end);

  sim::Simulator& sim_;
  BufferPool* pool_;
  LogSink* sink_;
  BTree btree_;
  sim::Mutex commit_mutex_;
  RemoteScanner* scanner_ = nullptr;

  TxnId next_txn_id_ = 1;
  Timestamp next_ts_ = 0;
  Timestamp last_committed_ts_ = 0;
  Lsn last_committed_lsn_ = 0;
  std::multiset<Timestamp> active_read_ts_;
  std::function<Timestamp()> read_ts_provider_;
  EngineStats stats_;
  ScanPlanDebug last_scan_plan_;
};

/// The reads of Engine::StartGets, running. Take each read with Next()
/// as it finishes, and co_await Join() before the batch or its
/// transaction goes away: a read still running uses both.
class GetBatch {
 public:
  /// One finished read of keys[index] (the keys given to StartGets).
  struct Read {
    size_t index;
    Result<std::string> value;
  };

  GetBatch(const GetBatch&) = delete;
  GetBatch& operator=(const GetBatch&) = delete;
  ~GetBatch() { assert(pending_.count() == 0); }

  /// The next read to finish, in landing order; reads that finish at the
  /// same instant come in the order the simulator ran them. At most one
  /// call per key.
  sim::Task<Read> Next();

  /// Resumes once every read has finished.
  sim::Task<> Join();

 private:
  friend class Engine;

  GetBatch(sim::Simulator& sim, Engine* engine, Transaction* txn,
           const std::vector<uint64_t>& keys);
  sim::Task<> ReadOne(size_t index, uint64_t key);

  Engine* engine_;
  Transaction* txn_;
  size_t unread_;  // reads Next() has not handed out yet
  sim::Channel<Read> landed_;
  sim::WaitGroup pending_;
};

}  // namespace engine
}  // namespace socrates
