#include "xlog/landing_zone.h"

#include <algorithm>
#include <vector>

#include "common/compress.h"

namespace socrates {
namespace xlog {

sim::Task<Status> LandingZone::WritePhysical(uint64_t pos,
                                             storage::SegmentRef data) {
  uint64_t off = pos % capacity_;
  uint64_t first = std::min<uint64_t>(data.size(), capacity_ - off);
  Status s = co_await device_->Write(off, data.Sub(0, first));
  if (s.ok() && first < data.size()) {
    s = co_await device_->Write(0, data.Sub(first, data.size() - first));
  }
  co_return s;
}

void LandingZone::DiscardFree() {
  uint64_t keep = phys_start_;
  if (!read_pins_.empty()) keep = std::min(keep, *read_pins_.begin());
  const uint64_t live = phys_reserved_end_ - keep;
  if (live >= capacity_) return;
  const uint64_t off = phys_reserved_end_ % capacity_;
  const uint64_t len = capacity_ - live;
  const uint64_t first = std::min<uint64_t>(len, capacity_ - off);
  device_->Discard(off, first);
  if (first < len) device_->Discard(0, len - first);
}

sim::Task<Status> LandingZone::WriteReserved(Lsn lsn,
                                             storage::SegmentRef data) {
  auto it = extents_.find(lsn);
  if (it == extents_.end() || data.size() != it->second.stored_len) {
    co_return Status::InvalidArgument("LZ write does not match reservation");
  }
  // Copy the extent before suspending: truncation may rebalance the map
  // while the device write is in flight (never this extent — it is not
  // yet durable — but iterators are not stable).
  const Extent ext = it->second;
  Status s = co_await WritePhysical(ext.phys_pos, std::move(data));
  if (!s.ok()) co_return s;
  logical_bytes_written_ += ext.logical_len;
  stored_bytes_written_ += ext.stored_len;
  if (ext.compressed) compressed_blocks_written_++;
  peak_stored_bytes_ = std::max(peak_stored_bytes_, stored_bytes());
  completed_[lsn] = lsn + ext.logical_len;
  while (true) {
    auto c = completed_.find(durable_end_);
    if (c == completed_.end()) break;
    durable_end_ = c->second;
    completed_.erase(c);
  }
  if (on_durable_advance_) on_durable_advance_(durable_end_);
  co_return Status::OK();
}

sim::Task<Status> LandingZone::Write(Lsn lsn, Slice data) {
  Status r = TryReserve(lsn, data.size());
  if (!r.ok()) co_return r;
  co_return co_await WriteReserved(lsn, data);
}

sim::Task<Result<std::string>> LandingZone::Read(Lsn from, Lsn to) {
  if (from < start_lsn_ || to > durable_end_ || from > to) {
    co_return Result<std::string>(
        Status::InvalidArgument("LZ read outside retained window"));
  }
  if (from == to) co_return std::string();
  // Snapshot the extents covering [from, to) before suspending; they are
  // all durable (to <= durable_end_, which advances by whole extents), and
  // concurrent truncation must not invalidate our iterators.
  struct Piece {
    Lsn start;
    Extent ext;
  };
  std::vector<Piece> pieces;
  auto it = extents_.upper_bound(from);
  --it;  // extent containing `from`; exists because from >= start_lsn_
  for (; it != extents_.end() && it->first < to; ++it) {
    pieces.push_back(Piece{it->first, it->second});
  }
  // One coalesced device read over the covering physical span, split only
  // at the circular-buffer wrap — the same request count as a raw-layout
  // read of [from, to). The span is pinned while the read is in flight: a
  // truncation meanwhile must not discard bytes this read returns.
  uint64_t p0 = pieces.front().ext.phys_pos;
  uint64_t p1 = pieces.back().ext.phys_pos + pieces.back().ext.stored_len;
  uint64_t len = p1 - p0;
  uint64_t off = p0 % capacity_;
  uint64_t first = std::min<uint64_t>(len, capacity_ - off);
  std::string raw;
  raw.reserve(len);
  auto pin = read_pins_.insert(p0);
  Status s = co_await device_->Read(off, first, &raw);
  if (s.ok() && first < len) s = co_await device_->Read(0, len - first, &raw);
  read_pins_.erase(pin);
  DiscardFree();
  if (!s.ok()) co_return Result<std::string>(s);
  std::string out;
  out.reserve(to - from);
  std::string scratch;
  for (const Piece& piece : pieces) {
    const char* stored = raw.data() + (piece.ext.phys_pos - p0);
    uint64_t a = std::max(from, piece.start) - piece.start;
    uint64_t b =
        std::min<Lsn>(to, piece.start + piece.ext.logical_len) - piece.start;
    if (!piece.ext.compressed) {
      out.append(stored + a, b - a);
    } else {
      Status d = compress::Decompress(Slice(stored, piece.ext.stored_len),
                                      piece.ext.logical_len, &scratch);
      if (!d.ok()) co_return Result<std::string>(d);
      out.append(scratch.data() + a, b - a);
    }
  }
  co_return std::move(out);
}

}  // namespace xlog
}  // namespace socrates
