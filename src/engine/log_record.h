// Log record formats (ARIES-style physiological redo).
//
// The engine mutates pages *by constructing a log record and applying it*
// (engine/btree.cc calls ApplyToPage for its own writes), so the do-path
// and the redo-path on Page Servers / Secondaries / recovery are the same
// code by construction. Records target at most one page; multi-page
// operations (splits) decompose into per-page records, with bulk page
// movement expressed as page images.
//
// Records log what changed, not the state that results:
//  * A leaf write carries only the new row version (commit_ts, tombstone
//    flag, payload) and, for an update, the trim timestamp. Redo rebuilds
//    the stored chain with EncodePushed (version.h), the function the
//    Primary's write ran, so every tier's leaf bytes stay equal.
//  * A split logs the page it keeps as the operation: kSplitLeft names
//    the separator, the new right sibling and the page's slot count,
//    and redo rebuilds the records below the separator from the page's
//    own. The new pages (the right half, and both halves plus the
//    new root of a root split) are page images
//    without their free-space hole (storage::Page::HoleFreeImage): the
//    hole between the record heap and the slot directory of a freshly
//    built page is all zeros, and redo rebuilds it from the image's own
//    free_offset and slot_count.
//
// Wire format of a record: the LogSink frames records as
// [u32 total_len][payload]; LSNs are byte offsets of the frame start in
// the logical log stream. The payload starts with a fixed header:
//   [u8 type][u64 txn_id][u64 page_id] followed by type-specific fields:
//   kPageFormat      [u32 page_type][u32 level][u64 low][u64 high]
//                    [u64 right_sibling]
//   kLeafInsert      [u64 key][u64 commit_ts][u8 flags][u32 len][payload]
//   kLeafUpdate      [u64 key][u64 commit_ts][u64 trim_ts][u8 flags]
//                    [u32 len][payload]
//   kLeafDelete      [u64 key]
//   kInteriorInsert  [u64 key][u64 child]
//   kPageImage       [u32 len][hole-free image]
//   kTxnCommit       [u64 commit_ts]
//   kCheckpoint      [u64 commit_ts][u64 next_page_id]
//   kSplitLeft       [u64 separator][u64 right_sibling][u16 slot_count]
// flags bit 0: the new version is a tombstone.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

namespace socrates {
namespace engine {

enum class LogRecordType : uint8_t {
  kPageFormat = 1,   // format a fresh B-tree page (fences, level, sibling)
  kLeafInsert = 2,   // insert key with a one-version chain into a leaf
  kLeafUpdate = 3,   // push a version onto the chain stored under key
  kLeafDelete = 4,   // remove key from a leaf (version GC only)
  kInteriorInsert = 5,  // insert (separator, child) into an interior page
  kPageImage = 6,    // overwrite the whole page (splits; hole-free)
  kTxnCommit = 7,    // commit marker: carries commit_ts (no page)
  kCheckpoint = 8,   // checkpoint marker: carries engine counters (no page)
  kSplitLeft = 9,    // keep a page's records below the separator
};

struct LogRecord {
  LogRecordType type = LogRecordType::kTxnCommit;
  TxnId txn_id = kInvalidTxnId;
  PageId page_id = kInvalidPageId;

  // kLeafInsert / kLeafUpdate / kLeafDelete / kInteriorInsert; kSplitLeft:
  // the separator (first key of the right half).
  uint64_t key = 0;
  // kLeafInsert / kLeafUpdate: the new version's payload. kPageImage:
  // the page's HoleFreeImage.
  std::string value;
  // kLeafInsert / kLeafUpdate: the new version is a tombstone.
  bool tombstone = false;
  // kLeafUpdate: the chain is trimmed at this timestamp after the push.
  Timestamp trim_ts = kInvalidTimestamp;
  // kInteriorInsert.
  PageId child = kInvalidPageId;
  // kPageFormat.
  uint32_t page_type = 0;
  uint32_t level = 0;
  uint64_t low_fence = 0;
  uint64_t high_fence = 0;
  PageId right_sibling = kInvalidPageId;  // kPageFormat / kSplitLeft
  // kSplitLeft: the page's slot count before the split.
  uint16_t split_count = 0;
  // kTxnCommit / kCheckpoint; kLeafInsert / kLeafUpdate: the new
  // version's commit timestamp.
  Timestamp commit_ts = kInvalidTimestamp;
  // kCheckpoint.
  PageId next_page_id = kInvalidPageId;

  /// Serialize the record payload (without the [u32 len] frame).
  std::string Encode() const;

  /// Parse a record payload. Returns Corruption on malformed input.
  /// Decoding into a recycled record reuses `value`'s capacity — the
  /// apply path runs records through a scratch arena, so the steady
  /// state decodes without allocating.
  static Status Decode(Slice payload, LogRecord* out);

  /// Reset to the default-constructed state, keeping `value`'s capacity.
  void Reset() {
    type = LogRecordType::kTxnCommit;
    txn_id = kInvalidTxnId;
    page_id = kInvalidPageId;
    key = 0;
    value.clear();
    tombstone = false;
    trim_ts = kInvalidTimestamp;
    child = kInvalidPageId;
    page_type = 0;
    level = 0;
    low_fence = 0;
    high_fence = 0;
    right_sibling = kInvalidPageId;
    split_count = 0;
    commit_ts = kInvalidTimestamp;
    next_page_id = kInvalidPageId;
  }

  /// True for record types that target a page.
  bool HasPage() const {
    return type != LogRecordType::kTxnCommit &&
           type != LogRecordType::kCheckpoint;
  }
};

/// Apply (redo) a record to its target page. Idempotent: records with
/// lsn <= page_lsn are skipped. The caller passes the record's LSN, which
/// becomes the new pageLSN on application.
Status ApplyToPage(const LogRecord& rec, Lsn lsn, storage::Page* page);

/// Iterate the framed records in a logical log stream segment.
/// `stream_start_lsn` is the LSN of input's first byte. The visitor
/// receives (lsn, payload slice). Stops early if the visitor returns
/// false. Returns Corruption if the framing is malformed (a trailing
/// partial frame is treated as end-of-stream, not corruption).
Status ForEachRecord(
    Slice input, Lsn stream_start_lsn,
    const std::function<bool(Lsn, Slice)>& visitor);

/// Frame a record payload for the logical stream: [u32 len][payload].
inline void FrameRecord(std::string* stream, Slice payload) {
  PutFixed32(stream, static_cast<uint32_t>(payload.size()));
  stream->append(payload.data(), payload.size());
}

/// Bytes the framed record will occupy in the stream.
inline uint64_t FramedSize(size_t payload_size) {
  return 4 + payload_size;
}

/// Longest prefix of `buf` (a concatenation of whole record frames) that
/// is at most `max_bytes` long WITHOUT splitting a frame. Always returns
/// at least one whole frame if one exists, even if it exceeds the cap —
/// log blocks must never cut a record in half, or consumers would parse
/// the next block from mid-record.
inline uint64_t FrameAlignedPrefix(Slice buf, uint64_t max_bytes) {
  uint64_t pos = 0;
  while (pos + 4 <= buf.size()) {
    uint32_t len = DecodeFixed32(buf.data() + pos);
    uint64_t next = pos + 4 + len;
    if (next > buf.size()) break;  // trailing partial frame
    if (next > max_bytes && pos > 0) break;
    pos = next;
    if (pos >= max_bytes) break;
  }
  return pos;
}

}  // namespace engine
}  // namespace socrates
