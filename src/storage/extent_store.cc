#include "storage/extent_store.h"

#include <algorithm>
#include <iterator>

namespace socrates {
namespace storage {

void SegmentList::Append(SegmentRef ref) {
  if (ref.size() == 0) return;
  size_ += ref.size();
  if (size_ == ref.size()) {  // the first range
    first_ = std::move(ref);
    return;
  }
  if (more_.empty()) more_.push_back(std::move(first_));
  more_.push_back(std::move(ref));
}

SegmentList SegmentList::Sub(uint64_t from, uint64_t n) const {
  if (from == 0 && n == size_) return *this;
  SegmentList out;
  uint64_t pos = 0;
  for (const SegmentRef& ref : refs()) {
    const uint64_t end = pos + ref.size();
    if (end > from && pos < from + n) {
      const uint64_t a = std::max(from, pos) - pos;
      const uint64_t b = std::min(from + n, end) - pos;
      out.Append(ref.Sub(a, b - a));
    }
    pos = end;
  }
  return out;
}

ExtentStore::Map::iterator ExtentStore::Clear(uint64_t offset, uint64_t end,
                                              Map::node_type* spare) {
  auto it = extents_.lower_bound(offset);

  // A predecessor running into [offset, end) keeps its head, and its tail
  // too when it sticks out past `end` (a clear of its middle).
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    const uint64_t pstart = prev->first;
    const uint64_t pend = pstart + prev->second.len;
    if (pend > offset) {
      if (pend > end) {
        it = extents_.emplace_hint(
            it, end,
            Extent{std::shared_ptr<const char>(
                       prev->second.bytes,
                       prev->second.bytes.get() + (end - pstart)),
                   pend - end});
      }
      mapped_ -= std::min(pend, end) - offset;
      prev->second.len = offset - pstart;
    }
  }

  // Extents starting inside [offset, end): drop the covered ones (the
  // first one's node goes to `spare`); the last may stick out, and is
  // re-keyed to `end` with its head trimmed.
  while (it != extents_.end() && it->first < end) {
    const uint64_t estart = it->first;
    const uint64_t eend = estart + it->second.len;
    if (eend <= end) {
      mapped_ -= it->second.len;
      if (spare != nullptr && spare->empty()) {
        *spare = extents_.extract(it++);
      } else {
        it = extents_.erase(it);
      }
      continue;
    }
    auto next = std::next(it);
    auto node = extents_.extract(it);
    node.key() = end;
    Extent& e = node.mapped();
    e.bytes = std::shared_ptr<const char>(std::move(e.bytes),
                                          e.bytes.get() + (end - estart));
    e.len = eend - end;
    mapped_ -= end - estart;
    it = extents_.insert(next, std::move(node));
    break;
  }
  return it;
}

void ExtentStore::WriteOne(uint64_t offset, const SegmentRef& data) {
  const uint64_t len = data.size();
  const uint64_t end = offset + len;
  Map::node_type spare;
  auto it = Clear(offset, end, &spare);
  if (spare.empty()) {
    extents_.emplace_hint(it, offset, Extent{data.bytes, len});
  } else {
    spare.key() = offset;
    spare.mapped() = Extent{data.bytes, len};
    extents_.insert(it, std::move(spare));
  }
  mapped_ += len;
  size_ = std::max(size_, end);
}

void ExtentStore::Write(uint64_t offset, const SegmentList& data) {
  for (const SegmentRef& ref : data.refs()) {
    WriteOne(offset, ref);
    offset += ref.size();
  }
}

void ExtentStore::Discard(uint64_t offset, uint64_t len) {
  if (len != 0) Clear(offset, offset + len, nullptr);
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
    out->append(it->second.bytes.get() + (pos - it->first), to - pos);
    pos = to;
  }
  if (pos < end) out->append(end - pos, '\0');
}

}  // namespace storage
}  // namespace socrates
