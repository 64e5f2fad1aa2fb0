// ExtentStore: the one byte store under every simulated medium. A store is
// a sparse address space mapped, extent by extent, onto ranges of
// immutable refcounted owners: a log payload string, a page frame, any
// buffer that is never written again. A write maps a range onto what it
// is handed; it never copies the bytes. So a landing-zone block sits in
// all three replicas, each destaged block in both XLOG's SSD cache and the
// XStore archive, a checkpointed page frame in its XStore blob while the
// Page Server still caches it, and an XStore snapshot shares every byte of
// the live blob, at the cost of one refcount each.
//
// A write takes a gather list (SegmentList): the ranges are mapped back to
// back, so a batch of blocks lands in one request without being
// concatenated first.
//
// An overwrite trims or drops the extents it covers, and Discard drops a
// range outright (a trim: it reads as zeros after). An owner no extent of
// any store (and no other holder) still maps is freed, so a ring that
// discards what it frees holds only its live window. Owners are never
// mutated: stores diverge only by mapping different owners.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/slice.h"

namespace socrates {
namespace storage {

/// Immutable bytes shared by reference (the type LogBlock payloads use).
using Segment = std::shared_ptr<const std::string>;

/// A byte range of an immutable owner: `bytes` points at the first byte
/// and shares the owner's refcount (an aliasing shared_ptr), so a range of
/// a string, a page frame or any other buffer pins that buffer and nothing
/// else.
struct SegmentRef {
  SegmentRef() = default;
  SegmentRef(std::shared_ptr<const char> first, uint64_t length)
      : bytes(std::move(first)), len(length) {}
  /// The whole segment (empty when `s` is null).
  SegmentRef(const Segment& s)  // NOLINT: implicit, a segment is its range
      : bytes(s, s != nullptr ? s->data() : nullptr),
        len(s != nullptr ? s->size() : 0) {}

  /// The one copy a caller holding only a Slice pays.
  static SegmentRef Copy(Slice data) {
    return data.empty() ? SegmentRef()
                        : SegmentRef(std::make_shared<const std::string>(
                              data.data(), data.size()));
  }
  /// Takes ownership of `data` without copying it.
  static SegmentRef Adopt(std::string data) {
    return data.empty() ? SegmentRef()
                        : SegmentRef(std::make_shared<const std::string>(
                              std::move(data)));
  }

  const char* data() const { return bytes.get(); }
  uint64_t size() const { return len; }
  /// Bytes [from, from + n) of this range, sharing the owner.
  SegmentRef Sub(uint64_t from, uint64_t n) const {
    return SegmentRef(std::shared_ptr<const char>(bytes, bytes.get() + from),
                      n);
  }

  std::shared_ptr<const char> bytes;
  uint64_t len = 0;
};

/// A gather list: the ranges one write maps back to back, charged as one
/// request of their summed length. The first range is held inline, so a
/// single-range write allocates nothing.
class SegmentList {
 public:
  SegmentList() = default;
  SegmentList(SegmentRef ref) {  // NOLINT: implicit, a list of one
    Append(std::move(ref));
  }
  SegmentList(const Segment& s)  // NOLINT: implicit, a list of one
      : SegmentList(SegmentRef(s)) {}

  /// Add `ref` after the ranges already listed (empty ranges are skipped).
  void Append(SegmentRef ref);

  /// Summed length of the ranges.
  uint64_t size() const { return size_; }
  std::span<const SegmentRef> refs() const {
    if (!more_.empty()) return more_;
    return {&first_, size_ != 0 ? 1u : 0u};
  }

  /// Bytes [from, from + n) of the concatenation, sharing every owner
  /// (only the two end ranges are trimmed).
  SegmentList Sub(uint64_t from, uint64_t n) const;

 private:
  SegmentRef first_;               // the only range while more_ is empty
  std::vector<SegmentRef> more_;   // every range, once there are two
  uint64_t size_ = 0;
};

class ExtentStore {
 public:
  /// Map [offset, offset + data.size()) onto `data`'s ranges in order,
  /// trimming or dropping whatever was mapped there before.
  void Write(uint64_t offset, const SegmentList& data);

  /// Unmap [offset, offset + len): the range reads as zeros afterwards and
  /// the owners it mapped lose one holder each. size() does not shrink.
  void Discard(uint64_t offset, uint64_t len);

  /// Append the `len` bytes at `offset` to `*out`. Bytes no write covered
  /// read as zero; only those holes are filled, the rest is copied once.
  void Read(uint64_t offset, uint64_t len, std::string* out) const;

  /// One past the highest byte ever written (0 for an empty store).
  uint64_t size() const { return size_; }

  /// Bytes currently mapped: the sum of extent lengths.
  uint64_t mapped_bytes() const { return mapped_; }

 private:
  struct Extent {
    std::shared_ptr<const char> bytes;  // the extent's first byte
    uint64_t len;
  };
  using Map = std::map<uint64_t, Extent>;

  // Trim or drop every extent overlapping [offset, end). Returns where a
  // new extent at `offset` goes; `*spare` receives a dropped extent's
  // node for reuse (so a ring overwrite allocates nothing).
  Map::iterator Clear(uint64_t offset, uint64_t end, Map::node_type* spare);
  void WriteOne(uint64_t offset, const SegmentRef& data);

  // Key: store offset of the extent's first byte. Extents never overlap.
  Map extents_;
  uint64_t size_ = 0;
  uint64_t mapped_ = 0;
};

}  // namespace storage
}  // namespace socrates
