// B-tree page layout over storage::Page.
//
// Layout after the 32-byte page header:
//   [32,40)  low fence key (inclusive)
//   [40,48)  high fence key (exclusive; kMaxKey = +infinity)
//   [48,56)  right sibling page id (kInvalidPageId = none)
//   [56,64)  reserved
//   [64,...) record heap, growing up from kRecordAreaStart
//   [...,8192) slot directory, growing down from the page end; slot i is a
//              u16 record offset at (kPageSize - 2*(i+1)).
// Slots are kept sorted by key. The tree level lives in the page header's
// aux field (0 = leaf).
//
// Fence keys are load-bearing for Socrates: a traverser that lands on a
// page "from the future" (paper §4.5 — the Secondary's GetPage@LSN can
// return a newer page than the parent it came from) detects the mismatch
// because the search key falls outside [low_fence, high_fence) and
// retries the traversal after letting log apply catch up.
//
// Leaf record:      [u64 key][u32 len][len bytes of encoded version chain]
// Interior record:  [u64 key][u64 child]   (key = low fence of the child;
//                   the first record's key equals the page's low fence)

#pragma once

#include <cassert>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

namespace socrates {
namespace engine {

inline constexpr uint64_t kMinKey = 0;
inline constexpr uint64_t kMaxKey = UINT64_MAX;  // high fence "+infinity"
inline constexpr uint32_t kRecordAreaStart = 64;

/// Non-owning mutable view implementing B-tree page operations.
class BTreePage {
 public:
  explicit BTreePage(storage::Page* page) : p_(page) {}

  /// Format `page` as a B-tree page. level 0 = leaf.
  static void Format(storage::Page* page, PageId id, uint32_t level,
                     uint64_t low_fence, uint64_t high_fence,
                     PageId right_sibling) {
    page->Format(id, level == 0 ? storage::PageType::kBTreeLeaf
                                : storage::PageType::kBTreeInterior);
    page->set_aux(level);
    page->set_free_offset(kRecordAreaStart);
    char* d = page->data();
    EncodeFixed64(d + 32, low_fence);
    EncodeFixed64(d + 40, high_fence);
    EncodeFixed64(d + 48, right_sibling);
    EncodeFixed64(d + 56, 0);
  }

  /// Format `dst` as page `dst_id` carrying slots [from, to) of `src`
  /// (a split half). The records land back to back in slot order, so the
  /// hole after them is all zeros.
  static void CopyRange(const BTreePage& src, storage::Page* dst,
                        PageId dst_id, uint64_t low, uint64_t high,
                        PageId right_sibling, int from, int to) {
    Format(dst, dst_id, src.level(), low, high, right_sibling);
    BTreePage d(dst);
    for (int i = from; i < to; i++) {
      Status s = src.is_leaf()
                     ? d.LeafInsert(src.KeyAt(i), src.LeafValueAt(i))
                     : d.InteriorInsert(src.KeyAt(i), src.ChildAt(i));
      assert(s.ok());
      (void)s;
    }
  }

  bool is_leaf() const { return p_->aux() == 0; }
  uint32_t level() const { return p_->aux(); }

  // Reads go through cdata(): on a COW page the mutable data() overload
  // would detach a shared frame even though nothing is written.
  uint64_t low_fence() const { return DecodeFixed64(p_->cdata() + 32); }
  uint64_t high_fence() const { return DecodeFixed64(p_->cdata() + 40); }
  PageId right_sibling() const { return DecodeFixed64(p_->cdata() + 48); }
  void set_right_sibling(PageId id) { EncodeFixed64(p_->data() + 48, id); }
  void set_high_fence(uint64_t k) { EncodeFixed64(p_->data() + 40, k); }

  /// True if `key` belongs on this page per the fence keys.
  bool CoversKey(uint64_t key) const {
    return key >= low_fence() &&
           (high_fence() == kMaxKey || key < high_fence());
  }

  int slot_count() const { return p_->slot_count(); }

  uint64_t KeyAt(int slot) const {
    return DecodeFixed64(p_->cdata() + SlotOffset(slot));
  }

  /// Value of the leaf record in `slot`.
  Slice LeafValueAt(int slot) const {
    const char* rec = p_->cdata() + SlotOffset(slot);
    uint32_t len = DecodeFixed32(rec + 8);
    return Slice(rec + 12, len);
  }

  /// Child pointer of the interior record in `slot`.
  PageId ChildAt(int slot) const {
    return DecodeFixed64(p_->cdata() + SlotOffset(slot) + 8);
  }

  /// Binary search: index of the first slot with key >= `key`
  /// (== slot_count() if all keys are smaller).
  int LowerBound(uint64_t key) const {
    int lo = 0, hi = slot_count();
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (KeyAt(mid) < key) lo = mid + 1;
      else hi = mid;
    }
    return lo;
  }

  /// Exact-match slot for `key`, or -1.
  int FindSlot(uint64_t key) const {
    int i = LowerBound(key);
    return (i < slot_count() && KeyAt(i) == key) ? i : -1;
  }

  /// Interior page: slot of the child responsible for `key` (the last
  /// slot with slot key <= key). Requires slot_count() > 0 and
  /// key >= KeyAt(0).
  int FindChildSlot(uint64_t key) const {
    int i = LowerBound(key);
    if (i == slot_count() || KeyAt(i) > key) i--;
    return i;
  }

  /// Insert a leaf record. Compacts if fragmented; OutOfSpace if the page
  /// is genuinely full (caller splits). InvalidArgument if key exists.
  Status LeafInsert(uint64_t key, Slice value) {
    if (FindSlot(key) >= 0) {
      return Status::InvalidArgument("duplicate key in leaf");
    }
    uint32_t rec_size = 12 + static_cast<uint32_t>(value.size());
    SOCRATES_RETURN_IF_ERROR(EnsureSpace(rec_size));
    uint16_t off = AppendRecord(key, value);
    InsertSlot(LowerBound(key), off);
    return Status::OK();
  }

  /// Replace the value stored under `key`. NotFound if absent;
  /// OutOfSpace (with the page unmodified) if even a compacted page
  /// cannot host the new value — the caller splits and re-applies.
  Status LeafUpdate(uint64_t key, Slice value) {
    int slot = FindSlot(key);
    if (slot < 0) return Status::NotFound("key not in leaf");
    uint32_t rec_size = 12 + static_cast<uint32_t>(value.size());
    // Feasibility check *before* mutating: after dropping the old record,
    // the new one must fit in a compacted page (slot count unchanged).
    uint32_t live_after = LiveBytes() - RecordSize(slot) + rec_size;
    if (kRecordAreaStart + live_after + 2 * slot_count() > kPageSize) {
      return Status::OutOfSpace("page full");
    }
    RemoveSlot(slot);
    Status s = EnsureSpace(rec_size);
    assert(s.ok());  // guaranteed by the feasibility check
    (void)s;
    uint16_t off = AppendRecord(key, value);
    InsertSlot(LowerBound(key), off);
    return Status::OK();
  }

  /// Remove `key` from a leaf. NotFound if absent.
  Status LeafDelete(uint64_t key) {
    int slot = FindSlot(key);
    if (slot < 0) return Status::NotFound("key not in leaf");
    RemoveSlot(slot);
    return Status::OK();
  }

  /// Insert an interior record (separator key -> child).
  Status InteriorInsert(uint64_t key, PageId child) {
    if (FindSlot(key) >= 0) {
      return Status::InvalidArgument("duplicate separator");
    }
    SOCRATES_RETURN_IF_ERROR(EnsureSpace(16));
    uint16_t off = p_->free_offset();
    char* d = p_->data() + off;
    EncodeFixed64(d, key);
    EncodeFixed64(d + 8, child);
    p_->set_free_offset(off + 16);
    InsertSlot(LowerBound(key), off);
    return Status::OK();
  }

  /// True if a new leaf record with a value of `value_size` bytes would
  /// fit after compaction (i.e. no split needed).
  bool CanHostLeafInsert(uint32_t value_size) const {
    uint32_t rec = 12 + value_size;
    return kRecordAreaStart + LiveBytes() + rec +
               2 * (slot_count() + 1) <=
           kPageSize;
  }

  /// True if replacing `key`'s value with `value_size` bytes would fit.
  /// Requires the key to be present.
  bool CanHostLeafUpdate(uint64_t key, uint32_t value_size) const {
    int slot = FindSlot(key);
    if (slot < 0) return false;
    uint32_t rec = 12 + value_size;
    return kRecordAreaStart + LiveBytes() - RecordSize(slot) + rec +
               2 * slot_count() <=
           kPageSize;
  }

  /// True if one more interior record fits after compaction.
  bool CanHostInteriorInsert() const {
    return kRecordAreaStart + LiveBytes() + 16 +
               2 * (slot_count() + 1) <=
           kPageSize;
  }

  /// Bytes still available for one new record of `rec_size` bytes
  /// (including its slot), before compaction.
  bool FitsWithoutCompaction(uint32_t rec_size) const {
    uint32_t slot_area = 2 * (slot_count() + 1);
    return p_->free_offset() + rec_size + slot_area <= kPageSize;
  }

  /// Sum of live record bytes (what compaction would retain).
  uint32_t LiveBytes() const {
    uint32_t total = 0;
    for (int i = 0; i < slot_count(); i++) total += RecordSize(i);
    return total;
  }

  /// Rewrite the record heap dropping dead space: the live records, in
  /// slot order, are gathered into one page-sized buffer and copied back.
  void Compact() {
    const int n = slot_count();
    auto heap = std::make_unique_for_overwrite<char[]>(kPageSize);
    uint16_t off = kRecordAreaStart;
    for (int i = 0; i < n; i++) {
      const uint32_t size = RecordSize(i);
      memcpy(heap.get() + off, p_->cdata() + SlotOffset(i), size);
      SetSlotOffset(i, off);
      off += static_cast<uint16_t>(size);
    }
    memcpy(p_->data() + kRecordAreaStart, heap.get() + kRecordAreaStart,
           off - kRecordAreaStart);
    p_->set_free_offset(off);
  }

 private:
  uint16_t SlotOffset(int slot) const {
    return DecodeFixed16(p_->cdata() + kPageSize - 2 * (slot + 1));
  }
  void SetSlotOffset(int slot, uint16_t off) {
    EncodeFixed16(p_->data() + kPageSize - 2 * (slot + 1), off);
  }

  uint32_t RecordSize(int slot) const {
    if (!is_leaf()) return 16;
    const char* rec = p_->cdata() + SlotOffset(slot);
    return 12 + DecodeFixed32(rec + 8);
  }

  Status EnsureSpace(uint32_t rec_size) {
    if (FitsWithoutCompaction(rec_size)) return Status::OK();
    uint32_t slot_area = 2 * (slot_count() + 1);
    if (kRecordAreaStart + LiveBytes() + rec_size + slot_area > kPageSize) {
      return Status::OutOfSpace("page full");
    }
    Compact();
    return Status::OK();
  }

  uint16_t AppendRecord(uint64_t key, Slice value) {
    uint16_t off = p_->free_offset();
    char* d = p_->data() + off;
    EncodeFixed64(d, key);
    EncodeFixed32(d + 8, static_cast<uint32_t>(value.size()));
    memcpy(d + 12, value.data(), value.size());
    p_->set_free_offset(off + 12 + static_cast<uint16_t>(value.size()));
    return off;
  }

  void InsertSlot(int pos, uint16_t rec_offset) {
    int n = slot_count();
    // Slot i lives at kPageSize - 2*(i+1); shifting slots [pos, n) down by
    // one position means moving their bytes 2 lower in memory.
    char* base = p_->data();
    for (int i = n; i > pos; i--) {
      uint16_t v = DecodeFixed16(base + kPageSize - 2 * i);
      EncodeFixed16(base + kPageSize - 2 * (i + 1), v);
    }
    SetSlotOffset(pos, rec_offset);
    p_->set_slot_count(static_cast<uint16_t>(n + 1));
  }

  void RemoveSlot(int pos) {
    int n = slot_count();
    char* base = p_->data();
    for (int i = pos; i < n - 1; i++) {
      uint16_t v = DecodeFixed16(base + kPageSize - 2 * (i + 2));
      EncodeFixed16(base + kPageSize - 2 * (i + 1), v);
    }
    p_->set_slot_count(static_cast<uint16_t>(n - 1));
  }

  storage::Page* p_;
};

}  // namespace engine
}  // namespace socrates
