// ExtentStore: the one byte store under every simulated medium. A store is
// a sparse address space mapped, extent by extent, onto immutable
// refcounted segments. A write maps a range onto (a range of) a segment it
// is handed; it never copies the bytes. So one log block can sit in all
// three landing-zone replicas, a destage batch in both XLOG's SSD cache
// and the XStore archive, and an XStore snapshot can share every byte of
// the live blob, at the cost of one refcount each.
//
// An overwrite trims or drops the extents it covers. A segment no extent
// of any store (and no other owner) still maps is freed, so a ring buffer
// over a store holds about one lap of bytes, not everything ever written.
// Segments are never mutated: stores diverge only by mapping different
// segments.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/slice.h"

namespace socrates {
namespace storage {

/// Immutable bytes shared by reference (the type LogBlock payloads use).
using Segment = std::shared_ptr<const std::string>;

/// A byte range of a segment: what a by-reference write carries.
struct SegmentRef {
  SegmentRef() = default;
  /// The whole segment (empty when `s` is null).
  SegmentRef(Segment s)  // NOLINT: implicit, a segment is its own range
      : seg(std::move(s)), len(seg != nullptr ? seg->size() : 0) {}
  SegmentRef(Segment s, uint64_t offset, uint64_t length)
      : seg(std::move(s)), off(offset), len(length) {}

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

  uint64_t size() const { return len; }
  /// Bytes [from, from + n) of this range, sharing the segment.
  SegmentRef Sub(uint64_t from, uint64_t n) const {
    return SegmentRef(seg, off + from, n);
  }

  Segment seg;
  uint64_t off = 0;
  uint64_t len = 0;
};

class ExtentStore {
 public:
  /// Map [offset, offset + data.size()) onto `data`, trimming or dropping
  /// whatever was mapped there before.
  void Write(uint64_t offset, SegmentRef data);

  /// Append the `len` bytes at `offset` to `*out`. Bytes no write covered
  /// read as zero; only those holes are filled, the rest is copied once.
  void Read(uint64_t offset, uint64_t len, std::string* out) const;

  /// One past the highest byte ever written (0 for an empty store).
  uint64_t size() const { return size_; }

  /// Bytes currently mapped: the sum of extent lengths.
  uint64_t mapped_bytes() const { return mapped_; }

 private:
  struct Extent {
    Segment seg;
    uint64_t seg_off;
    uint64_t len;
  };
  // Key: store offset of the extent's first byte. Extents never overlap.
  std::map<uint64_t, Extent> extents_;
  uint64_t size_ = 0;
  uint64_t mapped_ = 0;
};

}  // namespace storage
}  // namespace socrates
