// LogBlock: the physical unit of log dissemination (paper §4.3).
//
// The logical log stream (framed records, byte-addressed by LSN) is cut
// into blocks by the Primary's log writer. Each block carries an
// out-of-band annotation of the partitions its records touch, which is
// what lets XLOG disseminate only relevant blocks to each Page Server
// (§4.6 "block filtering").
//
// On the wire (Primary -> XLOG lossy channel) a block travels as a
// checksummed **block frame** whose payload may be compressed (a flag
// bit says which).

#pragma once

#include <memory>
#include <set>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace socrates {
namespace xlog {

// The payload and the partition annotation are immutable once the block
// is built, and blocks fan out widely — the sequence map, the destage
// queue, and every Pull() result share the same bytes. Both are therefore
// held by refcounted pointer: copying a LogBlock is two refcount bumps,
// never a payload memcpy or a set-node-by-node clone. Mutation happens
// before Make() (build the string, then seal it).
struct LogBlock {
  Lsn start_lsn = 0;
  bool filtered = false;  // true when the payload was dropped by filtering

  // When `filtered`, the payload is empty but the block still advances the
  // consumer's applied-LSN watermark by its original size.
  uint64_t payload_size = 0;

  Lsn end_lsn() const { return start_lsn + payload_size; }

  const std::string& payload() const {
    return data_ != nullptr ? *data_ : EmptyPayload();
  }
  /// Shared handle to the payload bytes (null for empty/filtered blocks);
  /// lets consumers extend the bytes' lifetime without copying.
  const std::shared_ptr<const std::string>& payload_ptr() const {
    return data_;
  }
  const std::set<PartitionId>& partitions() const {
    return parts_ != nullptr ? *parts_ : EmptyPartitions();
  }

  static LogBlock Make(Lsn start, std::string data,
                       std::set<PartitionId> parts) {
    LogBlock b;
    b.start_lsn = start;
    b.payload_size = data.size();
    if (!data.empty()) {
      b.data_ = std::make_shared<const std::string>(std::move(data));
    }
    if (!parts.empty()) {
      b.parts_ =
          std::make_shared<const std::set<PartitionId>>(std::move(parts));
    }
    return b;
  }

  bool TouchesPartition(PartitionId p) const {
    return partitions().count(p) > 0;
  }

 private:
  static const std::string& EmptyPayload() {
    static const std::string empty;
    return empty;
  }
  static const std::set<PartitionId>& EmptyPartitions() {
    static const std::set<PartitionId> empty;
    return empty;
  }

  std::shared_ptr<const std::string> data_;
  std::shared_ptr<const std::set<PartitionId>> parts_;
};

// ----------------------------------------------------------------- frames

/// LZ-compress `block`'s payload. Null when that does not shrink it: the
/// block is then stored and sent raw, so the frame flag and the landing
/// zone's accounting never lie.
std::shared_ptr<const std::string> CompressBlockPayload(
    const LogBlock& block);

/// Encode `block` as a wire frame. `compressed` is the payload as
/// CompressBlockPayload returned it: non-null ships those bytes with the
/// compressed flag set, null ships the payload raw.
std::string EncodeBlockFrame(const LogBlock& block,
                             const std::string* compressed);

/// Decode a wire frame into `*out`. Corruption for bad magic, an unknown
/// layout, a truncated frame, a checksum mismatch, or a payload that does
/// not decompress to its stated size; otherwise OK with the payload raw
/// again.
Status DecodeBlockFrame(Slice frame, LogBlock* out);

/// Partition mapping: pages are range-partitioned across Page Servers.
struct PartitionMap {
  uint64_t pages_per_partition = 16384;  // 128 MiB at 8 KiB pages

  PartitionId PartitionOf(PageId page) const {
    return static_cast<PartitionId>(page / pages_per_partition);
  }
  PageId FirstPage(PartitionId p) const {
    return static_cast<PageId>(p) * pages_per_partition;
  }
  PageId EndPage(PartitionId p) const {
    return (static_cast<PageId>(p) + 1) * pages_per_partition;
  }
};

}  // namespace xlog
}  // namespace socrates
