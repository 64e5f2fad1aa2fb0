// LandingZone: the fast, durable, *small* log store the Primary commits
// against (paper §4.3). Implemented as a circular buffer over a replicated
// premium-storage device (XIO keeps three replicas; writes complete at
// quorum). The LZ holds only the recent tail of the log: space is
// reclaimed when the destaging pipeline has moved blocks to the local
// block cache and the long-term archive (LT) in XStore, and reclaimed
// space is discarded on every replica, so the LZ maps its retained window
// and no more (the log's bytes live on in the SSD cache and LT, which map
// XLOG's own copies of the blocks). If destaging
// falls behind and the buffer fills, writes fail with OutOfSpace and the
// Primary stalls — exactly the backpressure the paper describes.
//
// Blocks are variable-size and may be stored compressed, so the LZ keeps
// two coordinate systems: the *logical* log stream (LSNs, what consumers
// read) and the *physical* circular buffer (stored bytes, what space
// accounting is charged against). An extent index maps each reserved
// block from one to the other. When every block is stored raw the two
// streams coincide byte-for-byte with the original fixed layout.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/log_sink.h"
#include "storage/block_device.h"

namespace socrates {
namespace xlog {

class LandingZone {
 public:
  /// `profile` selects the storage service behind the LZ (XIO vs
  /// DirectDrive — the Appendix A study). Three replicas, write quorum 2.
  LandingZone(sim::Simulator& sim, sim::DeviceProfile profile,
              uint64_t capacity_bytes, uint64_t seed = 1)
      : capacity_(capacity_bytes),
        profile_cpu_per_kb_(profile.cpu_per_kb_us),
        device_(std::make_unique<storage::ReplicatedBlockDevice>(
            sim, profile, /*replicas=*/3, /*quorum=*/2, seed)),
        start_lsn_(engine::kLogStreamStart),
        durable_end_(engine::kLogStreamStart),
        reserved_end_(engine::kLogStreamStart),
        phys_start_(engine::kLogStreamStart),
        phys_reserved_end_(engine::kLogStreamStart) {}

  /// Reserve the next logical range for a pipelined write, occupying
  /// `stored_size` physical bytes (the compressed form when `compressed`).
  /// Synchronous: ranges are issued strictly in order (single log
  /// writer), but many reserved writes may be in flight at once — the
  /// real system keeps several outstanding log-block I/Os. Fails
  /// OutOfSpace when the circular buffer cannot hold the stored bytes
  /// until truncation; accounting is exact, so a reserve fails iff the
  /// physical bytes genuinely do not fit.
  Status TryReserve(Lsn lsn, uint64_t logical_size, uint64_t stored_size,
                    bool compressed) {
    if (lsn != reserved_end_ || logical_size == 0 || stored_size == 0) {
      return Status::InvalidArgument("non-contiguous LZ reserve");
    }
    if (phys_reserved_end_ + stored_size - phys_start_ > capacity_) {
      return Status::OutOfSpace("landing zone full (destaging behind)");
    }
    extents_[lsn] =
        Extent{logical_size, stored_size, phys_reserved_end_, compressed};
    reserved_end_ = lsn + logical_size;
    phys_reserved_end_ += stored_size;
    return Status::OK();
  }

  /// Raw-block reservation (stored == logical); the degenerate layout.
  Status TryReserve(Lsn lsn, uint64_t size) {
    return TryReserve(lsn, size, size, /*compressed=*/false);
  }

  /// Durably write a previously reserved range. `data` is the *stored*
  /// form and must match the reservation's stored size; every replica
  /// keeps its segment by reference. The durable end advances only over
  /// the contiguous prefix of completed writes, so hardening order equals
  /// log order even when device completions reorder.
  sim::Task<Status> WriteReserved(Lsn lsn, storage::SegmentRef data);

  /// Write a copy of `data` into a reserved range.
  sim::Task<Status> WriteReserved(Lsn lsn, Slice data) {
    return WriteReserved(lsn, storage::SegmentRef::Copy(data));
  }

  /// Convenience single-in-flight raw write (reserve + write).
  sim::Task<Status> Write(Lsn lsn, Slice data);

  /// Invoked (synchronously) whenever the durable end advances.
  void set_on_durable_advance(std::function<void(Lsn)> fn) {
    on_durable_advance_ = std::move(fn);
  }

  /// Read stream bytes [from, to), decompressing stored blocks as
  /// needed. The range must be inside the retained window
  /// [start_lsn, durable_end). Issues one coalesced device read for the
  /// covering physical span (split only at the buffer wrap), the same
  /// request count as the fixed layout.
  sim::Task<Result<std::string>> Read(Lsn from, Lsn to);

  /// Release space up to `lsn` (called once destaging has archived it).
  /// The logical window may start mid-block; physical bytes are freed
  /// only when a whole stored block falls below the window. Freed bytes
  /// are discarded on every replica (reads below start_lsn() are refused,
  /// so no reader can tell), except what an in-flight Read still covers.
  void Truncate(Lsn lsn) {
    if (lsn > start_lsn_) start_lsn_ = std::min(lsn, durable_end_);
    while (!extents_.empty()) {
      auto it = extents_.begin();
      if (it->first + it->second.logical_len > start_lsn_) break;
      phys_start_ = it->second.phys_pos + it->second.stored_len;
      extents_.erase(it);
    }
    DiscardFree();
  }

  Lsn start_lsn() const { return start_lsn_; }
  Lsn durable_end() const { return durable_end_; }
  uint64_t capacity() const { return capacity_; }
  /// Logical window size (consumer-visible stream bytes retained).
  uint64_t used_bytes() const { return reserved_end_ - start_lsn_; }
  /// Physical occupancy: stored bytes reserved and not yet freed. This
  /// is what OutOfSpace is charged against.
  uint64_t stored_bytes() const { return phys_reserved_end_ - phys_start_; }
  uint64_t peak_stored_bytes() const { return peak_stored_bytes_; }
  /// Cumulative write-side counters (compression effectiveness).
  uint64_t logical_bytes_written() const { return logical_bytes_written_; }
  uint64_t stored_bytes_written() const { return stored_bytes_written_; }
  uint64_t compressed_blocks_written() const {
    return compressed_blocks_written_;
  }

  /// CPU the Primary burns per LZ write of `bytes` (REST vs RDMA path —
  /// the per-request and per-byte costs behind Table 7).
  SimTime WriteCpuCostUs(uint64_t bytes) const {
    return device_->cpu_per_io_us() +
           static_cast<SimTime>(profile_cpu_per_kb_ * bytes / 1024.0);
  }

  SimTime cpu_per_io_us() const { return device_->cpu_per_io_us(); }

  storage::ReplicatedBlockDevice* device() { return device_.get(); }

 private:
  struct Extent {
    uint64_t logical_len = 0;
    uint64_t stored_len = 0;
    uint64_t phys_pos = 0;  // monotonic physical stream position
    bool compressed = false;
  };

  // Write [pos, pos + data.size()) of the monotonic physical stream,
  // splitting at the circular-buffer wrap.
  sim::Task<Status> WritePhysical(uint64_t pos, storage::SegmentRef data);

  // Discard the ring outside [keep, phys_reserved_end_) on every replica,
  // where `keep` is phys_start_ or an in-flight read's start if lower.
  // The whole free arc goes each time, so a laggard replica write that
  // landed after its block was freed is dropped by the next call.
  void DiscardFree();

  uint64_t capacity_;
  double profile_cpu_per_kb_;
  std::unique_ptr<storage::ReplicatedBlockDevice> device_;
  Lsn start_lsn_;
  Lsn durable_end_;
  Lsn reserved_end_;
  // Physical stream: monotonically growing byte positions, mapped onto
  // the device modulo capacity. Occupancy = reserved_end - start. Starts
  // at kLogStreamStart so the all-raw layout is byte-identical to the
  // original lsn-addressed circular buffer.
  uint64_t phys_start_;
  uint64_t phys_reserved_end_;
  uint64_t peak_stored_bytes_ = 0;
  uint64_t logical_bytes_written_ = 0;
  uint64_t stored_bytes_written_ = 0;
  uint64_t compressed_blocks_written_ = 0;
  std::map<Lsn, Extent> extents_;     // start lsn -> stored extent
  std::map<Lsn, Lsn> completed_;      // out-of-order completions
  std::multiset<uint64_t> read_pins_;  // physical starts of in-flight reads
  std::function<void(Lsn)> on_durable_advance_;
};

}  // namespace xlog
}  // namespace socrates
