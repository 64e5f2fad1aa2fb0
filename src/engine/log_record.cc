#include "engine/log_record.h"

#include <functional>

#include "engine/btree_page.h"
#include "engine/version.h"

namespace socrates {
namespace engine {

std::string LogRecord::Encode() const {
  std::string out;
  out.push_back(static_cast<char>(type));
  PutFixed64(&out, txn_id);
  PutFixed64(&out, page_id);
  switch (type) {
    case LogRecordType::kPageFormat:
      PutFixed32(&out, page_type);
      PutFixed32(&out, level);
      PutFixed64(&out, low_fence);
      PutFixed64(&out, high_fence);
      PutFixed64(&out, right_sibling);
      break;
    case LogRecordType::kLeafInsert:
    case LogRecordType::kLeafUpdate:
      PutFixed64(&out, key);
      PutFixed64(&out, commit_ts);
      if (type == LogRecordType::kLeafUpdate) PutFixed64(&out, trim_ts);
      out.push_back(static_cast<char>(tombstone ? 0x1 : 0x0));
      PutLengthPrefixed(&out, Slice(value));
      break;
    case LogRecordType::kLeafDelete:
      PutFixed64(&out, key);
      break;
    case LogRecordType::kInteriorInsert:
      PutFixed64(&out, key);
      PutFixed64(&out, child);
      break;
    case LogRecordType::kPageImage:
      PutLengthPrefixed(&out, Slice(value));
      break;
    case LogRecordType::kTxnCommit:
      PutFixed64(&out, commit_ts);
      break;
    case LogRecordType::kCheckpoint:
      PutFixed64(&out, commit_ts);
      PutFixed64(&out, next_page_id);
      break;
    case LogRecordType::kSplitLeft:
      PutFixed64(&out, key);
      PutFixed64(&out, right_sibling);
      PutFixed16(&out, split_count);
      break;
  }
  return out;
}

Status LogRecord::Decode(Slice payload, LogRecord* out) {
  out->Reset();
  if (payload.empty()) return Status::Corruption("empty log record");
  out->type = static_cast<LogRecordType>(payload[0]);
  payload.remove_prefix(1);
  uint64_t txn, page;
  if (!GetFixed64(&payload, &txn) || !GetFixed64(&payload, &page)) {
    return Status::Corruption("truncated log record header");
  }
  out->txn_id = txn;
  out->page_id = page;
  bool ok = true;
  switch (out->type) {
    case LogRecordType::kPageFormat:
      ok = GetFixed32(&payload, &out->page_type) &&
           GetFixed32(&payload, &out->level) &&
           GetFixed64(&payload, &out->low_fence) &&
           GetFixed64(&payload, &out->high_fence) &&
           GetFixed64(&payload, &out->right_sibling);
      break;
    case LogRecordType::kLeafInsert:
    case LogRecordType::kLeafUpdate: {
      Slice v;
      ok = GetFixed64(&payload, &out->key) &&
           GetFixed64(&payload, &out->commit_ts) &&
           (out->type == LogRecordType::kLeafInsert ||
            GetFixed64(&payload, &out->trim_ts)) &&
           !payload.empty();
      if (!ok) break;
      out->tombstone = (payload[0] & 0x1) != 0;
      payload.remove_prefix(1);
      ok = GetLengthPrefixed(&payload, &v);
      if (ok) out->value.assign(v.data(), v.size());
      break;
    }
    case LogRecordType::kLeafDelete:
      ok = GetFixed64(&payload, &out->key);
      break;
    case LogRecordType::kInteriorInsert:
      ok = GetFixed64(&payload, &out->key) &&
           GetFixed64(&payload, &out->child);
      break;
    case LogRecordType::kPageImage: {
      Slice v;
      ok = GetLengthPrefixed(&payload, &v);
      if (ok) out->value.assign(v.data(), v.size());
      break;
    }
    case LogRecordType::kTxnCommit:
      ok = GetFixed64(&payload, &out->commit_ts);
      break;
    case LogRecordType::kCheckpoint:
      ok = GetFixed64(&payload, &out->commit_ts) &&
           GetFixed64(&payload, &out->next_page_id);
      break;
    case LogRecordType::kSplitLeft:
      ok = GetFixed64(&payload, &out->key) &&
           GetFixed64(&payload, &out->right_sibling) &&
           GetFixed16(&payload, &out->split_count);
      break;
    default:
      return Status::Corruption("unknown log record type");
  }
  if (!ok) return Status::Corruption("truncated log record body");
  return Status::OK();
}

Status ApplyToPage(const LogRecord& rec, Lsn lsn, storage::Page* page) {
  if (!rec.HasPage()) {
    return Status::InvalidArgument("record has no target page");
  }
  // Idempotent redo: skip records already reflected in the page.
  if (page->page_lsn() >= lsn && rec.type != LogRecordType::kPageFormat) {
    return Status::OK();
  }
  switch (rec.type) {
    case LogRecordType::kPageFormat:
      if (page->page_lsn() >= lsn &&
          page->type() != storage::PageType::kFree) {
        return Status::OK();  // already formatted by this or a later record
      }
      BTreePage::Format(page, rec.page_id, rec.level, rec.low_fence,
                        rec.high_fence, rec.right_sibling);
      break;
    case LogRecordType::kLeafInsert:
    case LogRecordType::kLeafUpdate: {
      BTreePage bp(page);
      const bool insert = rec.type == LogRecordType::kLeafInsert;
      const int slot = bp.FindSlot(rec.key);
      if (insert && slot >= 0) {
        return Status::InvalidArgument("duplicate key in leaf");
      }
      if (!insert && slot < 0) return Status::NotFound("key not in leaf");
      // Rebuilt in a reused buffer, so steady-state redo never allocates.
      thread_local std::string chain;
      chain.clear();
      if (!EncodePushed(insert ? Slice() : bp.LeafValueAt(slot),
                        rec.commit_ts, rec.tombstone, Slice(rec.value),
                        rec.trim_ts, &chain)) {
        return Status::Corruption("bad version chain encoding");
      }
      SOCRATES_RETURN_IF_ERROR(insert
                                   ? bp.LeafInsert(rec.key, Slice(chain))
                                   : bp.LeafUpdate(rec.key, Slice(chain)));
      break;
    }
    case LogRecordType::kLeafDelete: {
      BTreePage bp(page);
      SOCRATES_RETURN_IF_ERROR(bp.LeafDelete(rec.key));
      break;
    }
    case LogRecordType::kInteriorInsert: {
      BTreePage bp(page);
      SOCRATES_RETURN_IF_ERROR(bp.InteriorInsert(rec.key, rec.child));
      break;
    }
    case LogRecordType::kPageImage:
      SOCRATES_RETURN_IF_ERROR(page->FromHoleFreeImage(Slice(rec.value)));
      break;
    case LogRecordType::kSplitLeft: {
      // The page must be the one the Primary split: the same slot count,
      // and the separator one of its keys past the first, so both halves
      // keep a record. Keys in a page are unique, so the separator's slot
      // is the split slot.
      BTreePage bp(page);
      const int n = bp.slot_count();
      const int slot = bp.FindSlot(rec.key);
      if (n != rec.split_count || slot < 1) {
        return Status::Corruption("split does not match page");
      }
      storage::Page left;
      BTreePage::CopyRange(bp, &left, rec.page_id, bp.low_fence(), rec.key,
                           rec.right_sibling, 0, slot);
      *page = std::move(left);
      break;
    }
    default:
      return Status::InvalidArgument("not a page record");
  }
  page->set_page_lsn(lsn);
  return Status::OK();
}

Status ForEachRecord(Slice input, Lsn stream_start_lsn,
                     const std::function<bool(Lsn, Slice)>& visitor) {
  Lsn lsn = stream_start_lsn;
  while (!input.empty()) {
    if (input.size() < 4) break;  // trailing partial frame: end of stream
    uint32_t len = DecodeFixed32(input.data());
    if (len == 0) break;  // zero fill past the end of the written stream
    if (len > kMaxLogBlockSize) {
      return Status::Corruption("implausible log record length");
    }
    if (input.size() < 4 + static_cast<size_t>(len)) break;  // partial
    Slice payload(input.data() + 4, len);
    if (!visitor(lsn, payload)) return Status::OK();
    input.remove_prefix(4 + len);
    lsn += 4 + len;
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace socrates
