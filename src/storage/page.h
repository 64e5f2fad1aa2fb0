// Page: the 8 KiB unit of storage shared by every tier. The header carries
// the pageLSN that the GetPage@LSN protocol is built on, and a masked
// CRC32-C so torn or corrupted page images are detected at every hop
// (compute cache, page server, XStore).
//
// Ownership model (substrate v2): a Page is a refcounted copy-on-write
// image. Copying a Page shares the underlying frame (a refcount bump, no
// 8 KiB memcpy); the first mutation through a non-const accessor detaches
// onto a private frame. A Page can also alias into a buffer owned by
// something else (e.g. an RBIO response frame) via Alias(), which is how
// wire decode avoids materialising a fresh image per page. The rules:
//
//  * const accessors (cdata(), AsSlice(), header getters, VerifyChecksum)
//    never copy and are safe on shared frames.
//  * mutators (data(), header setters, Format, FromSlice, UpdateChecksum)
//    detach first when the frame is shared, so a reader holding an older
//    copy keeps its snapshot.
//  * read-only call sites that hold a non-const Page* must use cdata()
//    explicitly — plain data() resolves to the mutable overload and would
//    force a needless detach on a shared frame.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace socrates {
namespace storage {

/// On-page header layout (little-endian, 32 bytes):
///   [0,4)   masked crc32c of bytes [4, kPageSize)
///   [4,8)   page type
///   [8,16)  page id
///   [16,24) page LSN (LSN of the last log record applied to this page)
///   [24,26) slot count      (used by slotted layouts)
///   [26,28) free space offset
///   [28,32) layout-specific (e.g. B-tree level / right-sibling low bits)
inline constexpr uint32_t kPageHeaderSize = 32;
inline constexpr uint32_t kPageUsableSize = kPageSize - kPageHeaderSize;

enum class PageType : uint32_t {
  kFree = 0,
  kBTreeLeaf = 1,
  kBTreeInterior = 2,
  kMeta = 3,
  kVersionStore = 4,
};

class Page {
 public:
  // All default-constructed pages share one immutable zeroed frame; the
  // first write detaches. Constructing a Page is a refcount bump.
  Page() : data_(ZeroFrame()) {}

  /// A page whose frame is allocated but NOT zeroed. For images that are
  /// fully overwritten immediately (FromSlice after a device read, wire
  /// decode) — skips the double fill of the zeroing default constructor.
  static Page Uninitialized() { return Page(NewFrame()); }

  /// Zero-copy view into a frame owned by `owner` (e.g. a decoded RBIO
  /// response held in a shared string). The Page shares ownership of
  /// `owner`; mutation detaches onto a private frame, so the owner's
  /// bytes are never written through this view.
  static Page Alias(std::shared_ptr<const void> owner, const char* image) {
    Page p(std::shared_ptr<char>(std::move(owner), const_cast<char*>(image)));
    p.aliased_ = true;
    return p;
  }

  // Copies share the frame; the next mutation on either side detaches.
  Page(const Page& other) = default;
  Page& operator=(const Page& other) = default;
  Page(Page&&) noexcept = default;
  Page& operator=(Page&&) noexcept = default;

  /// Mutable image bytes: detaches from a shared frame first.
  char* data() {
    Detach();
    return data_.get();
  }
  /// Read-only image bytes: never detaches. Use this from read paths that
  /// hold a non-const Page*.
  const char* cdata() const { return data_.get(); }
  const char* data() const { return data_.get(); }
  Slice AsSlice() const { return Slice(data_.get(), kPageSize); }

  /// True when this Page is the sole owner of its frame (diagnostics).
  bool unique() const { return data_.use_count() == 1; }

  /// The frame as an immutable owner, for a store that keeps the image by
  /// reference (an XStore checkpoint blob). The holder counts as a sharer,
  /// so the next mutation through any Page detaches and the held image
  /// never changes. An Alias() view is first copied onto a frame of its
  /// own: the store then pins these 8 KiB, not the buffer it pointed into.
  std::shared_ptr<const char> ShareFrame() {
    if (aliased_) CopyFrame();
    return data_;
  }

  /// Zero the page and stamp a fresh header.
  void Format(PageId id, PageType type) {
    char* d = DetachForOverwrite();
    memset(d, 0, kPageSize);
    EncodeFixed32(d + 4, static_cast<uint32_t>(type));
    EncodeFixed64(d + 8, id);
    EncodeFixed64(d + 16, kInvalidLsn);
    EncodeFixed16(d + 24, 0);
    EncodeFixed16(d + 26, static_cast<uint16_t>(kPageHeaderSize));
  }

  PageType type() const {
    return static_cast<PageType>(DecodeFixed32(data_.get() + 4));
  }
  void set_type(PageType t) {
    EncodeFixed32(data() + 4, static_cast<uint32_t>(t));
  }

  PageId page_id() const { return DecodeFixed64(data_.get() + 8); }
  void set_page_id(PageId id) { EncodeFixed64(data() + 8, id); }

  Lsn page_lsn() const { return DecodeFixed64(data_.get() + 16); }
  void set_page_lsn(Lsn lsn) { EncodeFixed64(data() + 16, lsn); }

  uint16_t slot_count() const { return DecodeFixed16(data_.get() + 24); }
  void set_slot_count(uint16_t n) { EncodeFixed16(data() + 24, n); }

  uint16_t free_offset() const { return DecodeFixed16(data_.get() + 26); }
  void set_free_offset(uint16_t off) { EncodeFixed16(data() + 26, off); }

  uint32_t aux() const { return DecodeFixed32(data_.get() + 28); }
  void set_aux(uint32_t v) { EncodeFixed32(data() + 28, v); }

  /// Recompute and store the header checksum. Call before the page image
  /// leaves this node (device write, RPC reply).
  void UpdateChecksum() {
    char* d = data();
    uint32_t crc = crc32c::Value(d + 4, kPageSize - 4);
    EncodeFixed32(d, crc32c::Mask(crc));
  }

  /// Verify the stored checksum against the page contents.
  Status VerifyChecksum() const {
    uint32_t stored = crc32c::Unmask(DecodeFixed32(data_.get()));
    uint32_t actual = crc32c::Value(data_.get() + 4, kPageSize - 4);
    if (stored != actual) {
      return Status::Corruption("page checksum mismatch, page " +
                                std::to_string(page_id()));
    }
    return Status::OK();
  }

  /// Load a page image from a full-page slice (e.g. device read).
  Status FromSlice(Slice s) {
    if (s.size() != kPageSize) {
      return Status::InvalidArgument("page image has wrong size");
    }
    memcpy(DetachForOverwrite(), s.data(), kPageSize);
    return Status::OK();
  }

  /// The image of a slotted page without its free-space hole: bytes
  /// [0, free_offset) followed by the slot directory (2 bytes per slot at
  /// the end of the page). Only for a page whose hole is all zeros, i.e.
  /// one built on a freshly formatted page; FromHoleFreeImage restores it
  /// byte for byte.
  std::string HoleFreeImage() const {
    const uint32_t head = free_offset();
    const uint32_t dir = 2u * slot_count();
    assert(head + dir <= kPageSize);
    assert(std::all_of(data_.get() + head, data_.get() + kPageSize - dir,
                       [](char c) { return c == 0; }));
    std::string out;
    out.reserve(head + dir);
    out.append(data_.get(), head);
    out.append(data_.get() + kPageSize - dir, dir);
    return out;
  }

  /// Load a HoleFreeImage: its own header's free_offset and slot_count
  /// say where the zero hole goes. Corruption if the image's length
  /// disagrees with them.
  Status FromHoleFreeImage(Slice image) {
    if (image.size() < kPageHeaderSize) {
      return Status::Corruption("page image shorter than its header");
    }
    const uint64_t head = DecodeFixed16(image.data() + 26);
    const uint64_t dir = 2 * uint64_t{DecodeFixed16(image.data() + 24)};
    if (head < kPageHeaderSize || head + dir > kPageSize ||
        image.size() != head + dir) {
      return Status::Corruption("page image length disagrees with header");
    }
    char* d = DetachForOverwrite();
    memcpy(d, image.data(), head);
    memset(d + head, 0, kPageSize - head - dir);
    memcpy(d + kPageSize - dir, image.data() + head, dir);
    return Status::OK();
  }

 private:
  explicit Page(std::shared_ptr<char> frame) : data_(std::move(frame)) {}

  // Single-allocation 8 KiB frame (array control block shared via the
  // aliasing conversion), left uninitialised.
  static std::shared_ptr<char> NewFrame() {
    std::shared_ptr<char[]> arr =
        std::make_shared_for_overwrite<char[]>(kPageSize);
    return std::shared_ptr<char>(arr, arr.get());
  }

  // The process-wide all-zeros frame backing default-constructed pages.
  // Never written: every mutator detaches first (use_count > 1 always).
  static const std::shared_ptr<char>& ZeroFrame() {
    static const std::shared_ptr<char> zero = [] {
      std::shared_ptr<char> f = NewFrame();
      memset(f.get(), 0, kPageSize);
      return f;
    }();
    return zero;
  }

  // Copy-on-write: give this Page a private frame, preserving contents.
  void Detach() {
    if (data_.use_count() != 1) CopyFrame();
  }

  void CopyFrame() {
    std::shared_ptr<char> fresh = NewFrame();
    memcpy(fresh.get(), data_.get(), kPageSize);
    data_ = std::move(fresh);
    aliased_ = false;
  }

  // Like Detach() but the caller overwrites the whole frame, so a shared
  // frame is replaced without copying the old contents.
  char* DetachForOverwrite() {
    if (data_.use_count() != 1) {
      data_ = NewFrame();
      aliased_ = false;
    }
    return data_.get();
  }

  std::shared_ptr<char> data_;
  bool aliased_ = false;  // data_ points into a buffer Alias() was handed
};

}  // namespace storage
}  // namespace socrates
