#include "engine/btree.h"

#include <algorithm>
#include <cassert>

#include "sim/task.h"

namespace socrates {
namespace engine {

namespace {

// Maximum traversal retries before declaring the structure corrupt. On a
// healthy Secondary the log-apply thread catches up after a few pauses.
constexpr int kMaxTraverseRetries = 10000;

// The slot a full page splits at to make room for `key` (a leaf's new
// key, or the separator an interior page must take): records [slot, n)
// move right. An append keeps all but the last record on the left, so
// the right page starts with one record and ascending inserts fill
// their pages; any other key splits at the middle.
int SplitSlot(const BTreePage& page, uint64_t key) {
  const int n = page.slot_count();
  return key > page.KeyAt(n - 1) ? n - 1 : n / 2;
}

}  // namespace

sim::Task<Status> BTree::Create() {
  Result<PageRef> root = pool_->NewPage(kRootPageId);
  if (!root.ok()) co_return root.status();
  LogRecord rec;
  rec.type = LogRecordType::kPageFormat;
  rec.page_id = kRootPageId;
  rec.page_type = static_cast<uint32_t>(storage::PageType::kBTreeLeaf);
  rec.level = 0;
  rec.low_fence = kMinKey;
  rec.high_fence = kMaxKey;
  rec.right_sibling = kInvalidPageId;
  co_return ApplyAndLog(rec, &root.value());
}

sim::Task<Result<PageRef>> BTree::TraverseToLeaf(uint64_t key,
                                                 std::vector<PageId>* path) {
  for (int attempt = 0; attempt < kMaxTraverseRetries; attempt++) {
    if (path != nullptr) path->clear();
    PageId page_id = kRootPageId;
    bool retry = false;
    while (true) {
      Result<PageRef> ref = co_await pool_->GetPage(page_id);
      if (!ref.ok()) co_return Result<PageRef>(ref.status());
      BTreePage bp(ref->page());
      if (!bp.CoversKey(key) ||
          (!bp.is_leaf() && bp.slot_count() == 0)) {
        // §4.5: this page is from the "future" relative to the parent we
        // came through (or apply is mid-flight). Pause and re-traverse.
        co_await sim::Delay(sim_, kRetryPauseUs);
        retry = true;
        break;
      }
      if (path != nullptr) path->push_back(page_id);
      if (bp.is_leaf()) co_return std::move(ref).value();
      page_id = bp.ChildAt(bp.FindChildSlot(key));
    }
    if (retry) continue;
  }
  co_return Result<PageRef>(
      Status::Corruption("btree traversal did not converge"));
}

sim::Task<Result<PageId>> BTree::LeafIdFor(uint64_t key,
                                           std::vector<PageId>* next,
                                           uint64_t end_key,
                                           size_t max_next) {
  if (next != nullptr) next->clear();
  for (int attempt = 0; attempt < kMaxTraverseRetries; attempt++) {
    PageId page_id = kRootPageId;
    bool retry = false;
    while (true) {
      Result<PageRef> ref = co_await pool_->GetPage(page_id);
      if (!ref.ok()) co_return Result<PageId>(ref.status());
      BTreePage bp(ref->page());
      if (!bp.CoversKey(key) ||
          (!bp.is_leaf() && bp.slot_count() == 0)) {
        // §4.5: page from the future / apply mid-flight — pause, retry.
        co_await sim::Delay(sim_, kRetryPauseUs);
        retry = true;
        break;
      }
      if (bp.is_leaf()) co_return page_id;  // root-is-leaf tree
      const int slot = bp.FindChildSlot(key);
      PageId child = bp.ChildAt(slot);
      if (bp.level() == 1) {  // child is the leaf: done
        if (next != nullptr) {
          for (int i = slot + 1; i < bp.slot_count() &&
                                 bp.KeyAt(i) < end_key &&
                                 next->size() < max_next;
               i++) {
            next->push_back(bp.ChildAt(i));
          }
        }
        co_return child;
      }
      page_id = child;
    }
    if (retry) continue;
  }
  co_return Result<PageId>(
      Status::Corruption("btree leaf locate did not converge"));
}

sim::Task<Result<PageRef>> BTree::FindLeaf(uint64_t key) {
  return TraverseToLeaf(key, /*path=*/nullptr);
}

sim::Task<Result<BTree::PinnedChain>> BTree::Find(uint64_t key) {
  Result<PageRef> leaf = co_await FindLeaf(key);
  if (!leaf.ok()) co_return Result<PinnedChain>(leaf.status());
  BTreePage bp(leaf->page());
  int slot = bp.FindSlot(key);
  if (slot < 0) co_return Result<PinnedChain>(Status::NotFound("no key"));
  co_return PinnedChain{std::move(leaf).value(), bp.LeafValueAt(slot)};
}

sim::Task<Status> BTree::PinPaths(const std::vector<uint64_t>& keys,
                                  std::vector<PageRef>* pins) {
  sim::WaitGroup fetches(sim_);
  Status first_error;
  // Key range [lo, hi) of the last leaf pinned; hi == kMaxKey is open.
  uint64_t lo = 1, hi = 0;
  for (uint64_t key : keys) {
    if (!first_error.ok()) break;
    if (key >= lo && (hi == kMaxKey || key < hi)) continue;
    PageId page_id = kRootPageId;
    while (true) {
      Result<PageRef> ref = co_await pool_->GetPage(page_id);
      if (!ref.ok()) {
        if (first_error.ok()) first_error = ref.status();
        break;
      }
      BTreePage bp(ref->page());
      // A page that does not cover the key (§4.5, on a promoted
      // Secondary) ends this key's walk; FindLeaf and Write retry it.
      if (!bp.CoversKey(key) || (!bp.is_leaf() && bp.slot_count() == 0)) {
        break;
      }
      if (bp.is_leaf()) {  // the root is the only leaf
        lo = bp.low_fence();
        hi = bp.high_fence();
        pins->push_back(std::move(ref).value());
        break;
      }
      const int slot = bp.FindChildSlot(key);
      const PageId child = bp.ChildAt(slot);
      if (bp.level() == 1) {
        // The leaf's key range is its parent's separators: the walk need
        // not wait for the leaf to know which keys it covers.
        lo = bp.KeyAt(slot);
        hi = slot + 1 < bp.slot_count() ? bp.KeyAt(slot + 1)
                                        : bp.high_fence();
        pins->push_back(std::move(ref).value());
        if (pool_->InMemory(child)) {
          Result<PageRef> leaf = co_await pool_->GetPage(child);  // a hit
          if (leaf.ok()) pins->push_back(std::move(leaf).value());
        } else {
          fetches.Add();
          sim::Spawn(sim_, PinOne(child, pins, &first_error, &fetches));
        }
        break;
      }
      pins->push_back(std::move(ref).value());
      page_id = child;
    }
  }
  if (fetches.count() > 0) co_await fetches.Wait();
  co_return first_error;
}

sim::Task<> BTree::PinOne(PageId id, std::vector<PageRef>* pins,
                          Status* first_error, sim::WaitGroup* fetches) {
  Result<PageRef> ref = co_await pool_->GetPage(id);
  if (ref.ok()) {
    pins->push_back(std::move(ref).value());
  } else if (first_error->ok()) {
    *first_error = ref.status();
  }
  fetches->Done();
}

sim::Task<Result<size_t>> BTree::Scan(
    uint64_t start, size_t count,
    const std::function<bool(uint64_t, Slice)>& visitor) {
  size_t visited = 0;
  uint64_t key = start;
  while (visited < count) {
    Result<PageRef> leaf = co_await TraverseToLeaf(key, /*path=*/nullptr);
    if (!leaf.ok()) co_return Result<size_t>(leaf.status());
    BTreePage bp(leaf->page());
    if (scan_readahead_ > 0) {
      MaybeReadahead(leaf->page()->page_id(), bp.right_sibling());
    }
    int slot = bp.LowerBound(key);
    for (; slot < bp.slot_count() && visited < count; slot++) {
      visited++;
      if (!visitor(bp.KeyAt(slot), bp.LeafValueAt(slot))) co_return visited;
    }
    if (visited >= count) break;
    uint64_t high = bp.high_fence();
    if (high == kMaxKey) break;  // rightmost leaf
    // Continue from the next leaf's key range. Re-traversing (rather than
    // chasing right_sibling directly) keeps the §4.5 consistency check on
    // every hop.
    key = high;
  }
  co_return visited;
}

void BTree::MaybeReadahead(PageId leaf, PageId sibling) {
  // Strided scans revisit the same leaf across calls; that is neither
  // confirmation nor a break of sequentiality.
  if (leaf == ra_last_leaf_) return;
  ra_last_leaf_ = leaf;
  if (leaf == ra_expected_) {
    ra_window_ = ra_window_ == 0
                     ? 2
                     : std::min(ra_window_ * 2, scan_readahead_);
  } else {
    ra_window_ = 0;  // pattern broke: collapse the window
    ra_frontier_ = kInvalidPageId;
  }
  ra_expected_ = sibling;
  if (ra_window_ == 0 || sibling == kInvalidPageId) return;
  // Leaf ids are allocated in key order for sequentially built trees, so
  // [sibling, sibling + window) approximates the upcoming leaf chain;
  // wrong guesses install unused pages and surface as prefetch_wasted.
  PageId lo = sibling;
  PageId hi = sibling + ra_window_;
  if (ra_frontier_ != kInvalidPageId && ra_frontier_ > lo) {
    // Hysteresis: while at least half a window of issued-but-unvisited
    // runway remains, do not trickle out single-page prefetches — wait
    // and issue the next half-window chunk so it batches on the wire.
    if (ra_frontier_ >= lo + (ra_window_ + 1) / 2) return;
    lo = ra_frontier_;
  }
  if (lo >= hi) return;
  std::vector<PageId> ids;
  ids.reserve(hi - lo);
  for (PageId id = lo; id < hi; id++) ids.push_back(id);
  pool_->Prefetch(ids);
  ra_frontier_ = hi;
}

Status BTree::ApplyAndLog(const LogRecord& rec, PageRef* page) {
  assert(sink_ != nullptr);
  Lsn lsn = sink_->Append(rec);
  Status s = ApplyToPage(rec, lsn, page->page());
  if (s.ok()) page->MarkDirty();
  return s;
}

sim::Task<Status> BTree::Write(TxnId txn, uint64_t key, Timestamp commit_ts,
                               bool tombstone, Slice payload,
                               Timestamp trim_ts,
                               std::vector<PageRef>* pins) {
  std::string chain;  // the chain this write leaves, sized for the fit check
  for (int attempt = 0; attempt < kMaxTraverseRetries; attempt++) {
    std::vector<PageId> path;
    Result<PageRef> leaf = co_await TraverseToLeaf(key, &path);
    if (!leaf.ok()) co_return leaf.status();
    BTreePage bp(leaf->page());
    const int slot = bp.FindSlot(key);
    const bool exists = slot >= 0;
    chain.clear();
    if (!EncodePushed(exists ? bp.LeafValueAt(slot) : Slice(), commit_ts,
                      tombstone, payload, trim_ts, &chain)) {
      co_return Status::Corruption("bad version chain encoding");
    }
    if (chain.size() > kMaxChainBytes) {
      co_return Status::InvalidArgument(
          "version chain too large for a page");
    }
    uint32_t vsize = static_cast<uint32_t>(chain.size());
    bool fits = exists ? bp.CanHostLeafUpdate(key, vsize)
                       : bp.CanHostLeafInsert(vsize);
    if (fits) {
      LogRecord rec;
      rec.type = exists ? LogRecordType::kLeafUpdate
                        : LogRecordType::kLeafInsert;
      rec.txn_id = txn;
      rec.page_id = path.back();
      rec.key = key;
      rec.commit_ts = commit_ts;
      rec.tombstone = tombstone;
      rec.trim_ts = trim_ts;
      rec.value.assign(payload.data(), payload.size());
      co_return ApplyAndLog(rec, &leaf.value());
    }
    // Split and retry. Release the leaf pin first; splits repin.
    leaf.value().Release();
    SOCRATES_CO_RETURN_IF_ERROR(
        co_await SplitPage(txn, path, path.size() - 1, key, pins));
  }
  co_return Status::Corruption("btree write did not converge");
}

sim::Task<Status> BTree::Erase(TxnId txn, uint64_t key) {
  std::vector<PageId> path;
  Result<PageRef> leaf = co_await TraverseToLeaf(key, &path);
  if (!leaf.ok()) co_return leaf.status();
  BTreePage bp(leaf->page());
  if (bp.FindSlot(key) < 0) co_return Status::NotFound("no key");
  LogRecord rec;
  rec.type = LogRecordType::kLeafDelete;
  rec.txn_id = txn;
  rec.page_id = path.back();
  rec.key = key;
  co_return ApplyAndLog(rec, &leaf.value());
}

sim::Task<Status> BTree::SplitPage(TxnId txn,
                                   const std::vector<PageId>& path,
                                   size_t depth, uint64_t key,
                                   std::vector<PageRef>* pins) {
  if (depth == 0) co_return co_await SplitRoot(txn, key, pins);
  splits_++;

  PageId left_id = path[depth];
  Result<PageRef> left = co_await pool_->GetPage(left_id);
  if (!left.ok()) co_return left.status();
  BTreePage lp(left->page());
  int n = lp.slot_count();
  if (n < 2) co_return Status::Corruption("cannot split page with <2 keys");
  const int mid = SplitSlot(lp, key);
  uint64_t sep = lp.KeyAt(mid);

  PageId right_id = AllocatePage();

  // The right half is a new page: log its image. The left half keeps
  // its lower records, which redo derives from the page itself.
  storage::Page right_img;
  BTreePage::CopyRange(lp, &right_img, right_id, sep, lp.high_fence(),
                       lp.right_sibling(), mid, n);

  Result<PageRef> right = pool_->NewPage(right_id);
  if (!right.ok()) co_return right.status();

  LogRecord rrec;
  rrec.type = LogRecordType::kPageImage;
  rrec.txn_id = txn;
  rrec.page_id = right_id;
  rrec.value = right_img.HoleFreeImage();
  SOCRATES_CO_RETURN_IF_ERROR(ApplyAndLog(rrec, &right.value()));

  LogRecord lrec;
  lrec.type = LogRecordType::kSplitLeft;
  lrec.txn_id = txn;
  lrec.page_id = left_id;
  lrec.key = sep;
  lrec.right_sibling = right_id;
  lrec.split_count = static_cast<uint16_t>(n);
  SOCRATES_CO_RETURN_IF_ERROR(ApplyAndLog(lrec, &left.value()));
  if (pins != nullptr) pins->push_back(std::move(right).value());

  co_return co_await InsertIntoInterior(txn, path, depth - 1, sep,
                                        right_id, pins);
}

sim::Task<Status> BTree::InsertIntoInterior(TxnId txn,
                                            const std::vector<PageId>& path,
                                            size_t depth, uint64_t sep,
                                            PageId child,
                                            std::vector<PageRef>* pins) {
  Result<PageRef> node = co_await pool_->GetPage(path[depth]);
  if (!node.ok()) co_return node.status();
  const uint32_t orig_level = BTreePage(node->page()).level();
  if (BTreePage(node->page()).CanHostInteriorInsert()) {
    LogRecord rec;
    rec.type = LogRecordType::kInteriorInsert;
    rec.txn_id = txn;
    rec.page_id = path[depth];
    rec.key = sep;
    rec.child = child;
    co_return ApplyAndLog(rec, &node.value());
  }
  // The interior page is full: split it first. Release the pin; splits
  // repin by page id.
  node.value().Release();
  SOCRATES_CO_RETURN_IF_ERROR(
      co_await SplitPage(txn, path, depth, sep, pins));
  // Relocate the insert target. Two cases:
  //  * ordinary split: path[depth] kept its level; the separator belongs
  //    to it or to its new right sibling (fence check).
  //  * root split (depth reached 0 somewhere in the cascade): path[depth]
  //    may now be an ANCESTOR (the root grew a level). Descend by key
  //    until we are back at the original level — inserting higher up
  //    would attach `child` at the wrong height and corrupt the tree.
  PageId cur = path[depth];
  for (int hop = 0; hop < 64; hop++) {
    Result<PageRef> ref = co_await pool_->GetPage(cur);
    if (!ref.ok()) co_return ref.status();
    BTreePage p(ref->page());
    if (p.level() > orig_level) {
      cur = p.ChildAt(p.FindChildSlot(sep));
      continue;
    }
    if (p.level() < orig_level) {
      co_return Status::Corruption("interior relocation descended too far");
    }
    if (!p.CoversKey(sep)) {
      cur = p.right_sibling();
      if (cur == kInvalidPageId) {
        co_return Status::Corruption(
            "separator lost after interior split");
      }
      continue;
    }
    if (!p.CanHostInteriorInsert()) {
      // The split was made for this separator: the half that covers it
      // lost at least one record, so it can take it unless the tree is
      // corrupt.
      co_return Status::Corruption("split half cannot host separator");
    }
    LogRecord rec;
    rec.type = LogRecordType::kInteriorInsert;
    rec.txn_id = txn;
    rec.page_id = cur;
    rec.key = sep;
    rec.child = child;
    co_return ApplyAndLog(rec, &ref.value());
  }
  co_return Status::Corruption("interior relocation did not converge");
}

sim::Task<Status> BTree::SplitRoot(TxnId txn, uint64_t key,
                                   std::vector<PageRef>* pins) {
  splits_++;
  Result<PageRef> root = co_await pool_->GetPage(kRootPageId);
  if (!root.ok()) co_return root.status();
  BTreePage rp(root->page());
  int n = rp.slot_count();
  if (n < 2) co_return Status::Corruption("cannot split root with <2 keys");
  const int mid = SplitSlot(rp, key);
  uint64_t sep = rp.KeyAt(mid);

  PageId left_id = AllocatePage();
  PageId right_id = AllocatePage();

  storage::Page left_img, right_img;
  BTreePage::CopyRange(rp, &left_img, left_id, rp.low_fence(), sep,
                       right_id, 0, mid);
  BTreePage::CopyRange(rp, &right_img, right_id, sep, rp.high_fence(),
                       rp.right_sibling(), mid, n);

  // New root: interior page one level up with exactly two children.
  storage::Page root_img;
  BTreePage::Format(&root_img, kRootPageId, rp.level() + 1, rp.low_fence(),
                    rp.high_fence(), kInvalidPageId);
  {
    BTreePage nr(&root_img);
    Status s = nr.InteriorInsert(rp.low_fence(), left_id);
    assert(s.ok());
    s = nr.InteriorInsert(sep, right_id);
    assert(s.ok());
    (void)s;
  }

  Result<PageRef> left = pool_->NewPage(left_id);
  if (!left.ok()) co_return left.status();
  Result<PageRef> right = pool_->NewPage(right_id);
  if (!right.ok()) co_return right.status();

  LogRecord rec;
  rec.type = LogRecordType::kPageImage;
  rec.txn_id = txn;

  rec.page_id = left_id;
  rec.value = left_img.HoleFreeImage();
  SOCRATES_CO_RETURN_IF_ERROR(ApplyAndLog(rec, &left.value()));

  rec.page_id = right_id;
  rec.value = right_img.HoleFreeImage();
  SOCRATES_CO_RETURN_IF_ERROR(ApplyAndLog(rec, &right.value()));

  rec.page_id = kRootPageId;
  rec.value = root_img.HoleFreeImage();
  SOCRATES_CO_RETURN_IF_ERROR(ApplyAndLog(rec, &root.value()));

  if (pins != nullptr) {
    pins->push_back(std::move(left).value());
    pins->push_back(std::move(right).value());
  }
  co_return Status::OK();
}

}  // namespace engine
}  // namespace socrates
