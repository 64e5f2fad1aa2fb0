#include "storage/extent_store.h"

#include <algorithm>
#include <iterator>

namespace socrates {
namespace storage {

void ExtentStore::Write(uint64_t offset, SegmentRef data) {
  const uint64_t len = data.size();
  if (len == 0) return;
  const uint64_t end = offset + len;
  auto it = extents_.lower_bound(offset);

  // A predecessor running into [offset, end) keeps its head, and its tail
  // too when it sticks out past `end` (a write into its middle).
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    const uint64_t pstart = prev->first;
    const uint64_t pend = pstart + prev->second.len;
    if (pend > offset) {
      if (pend > end) {
        it = extents_.emplace_hint(
            it, end,
            Extent{prev->second.seg, prev->second.seg_off + (end - pstart),
                   pend - end});
      }
      mapped_ -= std::min(pend, end) - offset;
      prev->second.len = offset - pstart;
    }
  }

  // Extents starting inside [offset, end): drop the covered ones (the
  // first one's node is kept for the new extent, so a ring overwrite
  // allocates nothing); the last may stick out, and is re-keyed to `end`
  // with its head trimmed.
  decltype(extents_)::node_type spare;
  while (it != extents_.end() && it->first < end) {
    const uint64_t estart = it->first;
    const uint64_t eend = estart + it->second.len;
    if (eend <= end) {
      mapped_ -= it->second.len;
      if (spare.empty()) {
        spare = extents_.extract(it++);
      } else {
        it = extents_.erase(it);
      }
      continue;
    }
    auto next = std::next(it);
    auto node = extents_.extract(it);
    node.key() = end;
    node.mapped().seg_off += end - estart;
    node.mapped().len = eend - end;
    mapped_ -= end - estart;
    it = extents_.insert(next, std::move(node));
    break;
  }

  if (spare.empty()) {
    extents_.emplace_hint(it, offset,
                          Extent{std::move(data.seg), data.off, len});
  } else {
    spare.key() = offset;
    spare.mapped() = Extent{std::move(data.seg), data.off, len};
    extents_.insert(it, std::move(spare));
  }
  mapped_ += len;
  size_ = std::max(size_, end);
}

void ExtentStore::Read(uint64_t offset, uint64_t len,
                       std::string* out) const {
  const uint64_t end = offset + len;
  out->reserve(out->size() + len);
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.len > offset) it = prev;
  }
  uint64_t pos = offset;
  for (; it != extents_.end() && it->first < end; ++it) {
    if (it->first > pos) {
      out->append(it->first - pos, '\0');
      pos = it->first;
    }
    const uint64_t to = std::min(it->first + it->second.len, end);
    out->append(
        it->second.seg->data() + it->second.seg_off + (pos - it->first),
        to - pos);
    pos = to;
  }
  if (pos < end) out->append(end - pos, '\0');
}

}  // namespace storage
}  // namespace socrates
