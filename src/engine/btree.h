// B+-tree over the buffer pool.
//
// Read paths (Find/Scan) run on every tier — Primary, Secondaries — and
// tolerate the paper's §4.5 hazard: because pages arrive via GetPage@LSN,
// a traversal can observe a child "from the future" (already split) while
// the parent was read from the present. Fence keys detect this: if the
// search key falls outside the fetched page's [low, high) range, the
// traversal pauses (letting log apply catch up) and retries.
//
// The write path (Write/Create) runs only on the Primary, serialized by
// the engine's commit mutex. Every mutation is expressed as a log record
// that is appended to the LogSink and then applied to the local page with
// the same ApplyToPage used by redo on Page Servers — one code path for
// do and redo. A leaf write logs only the new row version; structure
// changes (splits) are logged as page images without their free-space
// hole (see log_record.h).
//
// A full page splits where the key that needs room lands: when the key
// sorts after the page's last record (an ascending load), the left page
// keeps all but that last record, so a bulk-loaded index comes out full;
// otherwise the page splits at its middle record.

#pragma once

#include <functional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/btree_page.h"
#include "engine/buffer_pool.h"
#include "engine/log_record.h"
#include "engine/log_sink.h"
#include "engine/version.h"
#include "sim/sync.h"

namespace socrates {
namespace engine {

/// Root page id is fixed; the root never moves (root splits rebuild it in
/// place as an interior page over two freshly allocated children).
inline constexpr PageId kRootPageId = 1;

/// The longest version chain a write may leave: a leaf must hold two.
inline constexpr size_t kMaxChainBytes = storage::kPageUsableSize / 2;

class BTree {
 public:
  /// `sink` may be null on read-only tiers (Secondaries, Page Servers).
  BTree(sim::Simulator& sim, BufferPool* pool, LogSink* sink)
      : sim_(sim), pool_(pool), sink_(sink) {}

  /// Bootstrap a fresh tree (Primary, empty database): formats the root
  /// as an empty leaf covering the whole key space.
  sim::Task<Status> Create();

  /// A leaf's encoded version chain (see version.h), readable while
  /// `leaf` stays pinned.
  struct PinnedChain {
    PageRef leaf;
    Slice chain;
  };

  /// Point lookup: the version chain stored under `key`.
  sim::Task<Result<PinnedChain>> Find(uint64_t key);

  /// The leaf covering `key`, pinned, whether or not it holds the key.
  sim::Task<Result<PageRef>> FindLeaf(uint64_t key);

  /// Pin every page on the root-to-leaf path of each of `keys`
  /// (ascending) into `pins`. Leaves not in memory are fetched
  /// concurrently, so remote misses share GetPage batch frames; a key
  /// inside the key range of the leaf pinned before it is not walked
  /// again. Returns the first fetch error once every fetch has finished.
  /// The pins hold each key's path until splits() moves.
  sim::Task<Status> PinPaths(const std::vector<uint64_t>& keys,
                             std::vector<PageRef>* pins);

  /// Page splits made through this tree (the only way a key's path
  /// changes on the Primary).
  uint64_t splits() const { return splits_; }

  /// Visit up to `count` keys >= `start` in order, each with its encoded
  /// version chain, valid during the call. The visitor returns false to
  /// stop early. Returns the number of keys visited.
  sim::Task<Result<size_t>> Scan(
      uint64_t start, size_t count,
      const std::function<bool(uint64_t, Slice)>& visitor);

  /// Id of the leaf that should cover `key`, found by descending interior
  /// pages only — the leaf itself is never fetched. This is the pushdown
  /// planner's leaf locator: interior pages are hot in the compute tier's
  /// cache, so locating costs no Page Server round trip, and the server
  /// re-validates the leaf's fences anyway (fence_miss). Subject to the
  /// same §4.5 retry discipline as TraverseToLeaf. With `next` given, it
  /// also gets the leaves the same level-1 page lists after that one, in
  /// key order, while their ranges start below `end_key`, at most
  /// `max_next`: the leaves a scan from `key` walks next, found without
  /// another page visit.
  sim::Task<Result<PageId>> LeafIdFor(uint64_t key,
                                      std::vector<PageId>* next = nullptr,
                                      uint64_t end_key = kMaxKey,
                                      size_t max_next = 0);

  /// Commit one row version under `key` (insert or update), splitting as
  /// needed. The stored chain becomes EncodePushed of the old one (empty
  /// for a new key); the log record carries only the new version and
  /// `trim_ts`. A chain longer than kMaxChainBytes fails. Primary-only,
  /// under the engine's commit mutex. Pages its splits create stay pinned
  /// in `pins` when given, so a caller that pinned the key's path beforehand
  /// (PinPaths) can write its later keys without a fetch.
  sim::Task<Status> Write(TxnId txn, uint64_t key, Timestamp commit_ts,
                          bool tombstone, Slice payload, Timestamp trim_ts,
                          std::vector<PageRef>* pins = nullptr);

  /// Remove `key` entirely (version GC when the whole chain is dead).
  sim::Task<Status> Erase(TxnId txn, uint64_t key);

  PageId next_page_id() const { return next_page_id_; }
  void set_next_page_id(PageId id) { next_page_id_ = id; }

  /// Attach a log sink (Secondary promotion: the tree becomes writable).
  void SetSink(LogSink* sink) { sink_ = sink; }

  /// Enable sequential-scan readahead: when Scan confirms sequential
  /// leaf access via sibling pointers, prefetch a window of upcoming
  /// leaves that ramps 2 → `max_window` and collapses when the access
  /// pattern breaks. 0 (the default) disables readahead entirely — the
  /// scan path is then byte-for-byte the old serial behaviour.
  void set_scan_readahead(uint32_t max_window) {
    scan_readahead_ = max_window;
  }

  /// Pause before retrying a traversal that hit a future page; gives the
  /// log-apply thread time to catch up (§4.5).
  static constexpr SimTime kRetryPauseUs = 200;

 private:
  // Traverse to the leaf covering `key`; fills `path` (when non-null)
  // with page ids from root to leaf (inclusive) and returns a pinned ref
  // to the leaf.
  sim::Task<Result<PageRef>> TraverseToLeaf(uint64_t key,
                                            std::vector<PageId>* path);

  // Append `rec` to the log and apply it to `page` (stamping the LSN).
  Status ApplyAndLog(const LogRecord& rec, PageRef* page);

  // Split path[depth] to make room for `key` (see SplitSlot); afterwards
  // the caller must re-traverse. New pages go to `pins` when non-null.
  sim::Task<Status> SplitPage(TxnId txn, const std::vector<PageId>& path,
                              size_t depth, uint64_t key,
                              std::vector<PageRef>* pins);

  // Insert (sep, child) into interior page path[depth], splitting upward
  // as needed.
  sim::Task<Status> InsertIntoInterior(TxnId txn,
                                       const std::vector<PageId>& path,
                                       size_t depth, uint64_t sep,
                                       PageId child,
                                       std::vector<PageRef>* pins);

  sim::Task<Status> SplitRoot(TxnId txn, uint64_t key,
                              std::vector<PageRef>* pins);

  // One concurrent leaf fetch of PinPaths: pins `id` into `pins` or keeps
  // the first error in `first_error`, then checks in with `fetches`.
  sim::Task<> PinOne(PageId id, std::vector<PageRef>* pins,
                     Status* first_error, sim::WaitGroup* fetches);

  // Scan readahead: called once per distinct leaf Scan lands on. Ramps
  // the prefetch window while consecutive leaves match the predicted
  // sibling chain, and issues BufferPool::Prefetch for the id range
  // ahead of the scan cursor (with hysteresis: re-issue only once the
  // unconsumed runway drops below half a window, so prefetches go out
  // in half-window chunks that batch well on the wire).
  void MaybeReadahead(PageId leaf, PageId sibling);

  PageId AllocatePage() { return next_page_id_++; }

  sim::Simulator& sim_;
  BufferPool* pool_;
  LogSink* sink_;
  PageId next_page_id_ = kRootPageId + 1;
  uint64_t splits_ = 0;

  // Readahead state persists across Scan calls so stride-driven scans
  // (many small Scan calls walking forward) still ramp. Concurrent
  // interleaved scans merely perturb the heuristic — worst case the
  // window collapses and re-ramps; correctness is unaffected.
  uint32_t scan_readahead_ = 0;  // max window in leaves; 0 = off
  PageId ra_last_leaf_ = kInvalidPageId;
  PageId ra_expected_ = kInvalidPageId;  // predicted next leaf id
  PageId ra_frontier_ = kInvalidPageId;  // exclusive end of issued ids
  uint32_t ra_window_ = 0;
};

}  // namespace engine
}  // namespace socrates
