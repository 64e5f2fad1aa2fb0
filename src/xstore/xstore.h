// XStore: simulated Azure Standard Storage — the durable "truth" tier
// (paper §4.7). Log-structured: every write maps immutable refcounted
// segments (a gather list of them: log payloads, page frames), and a blob
// is an extent table from byte ranges to segments (storage::ExtentStore). That makes snapshots and restores
// **constant-time metadata operations** (copy an extent table), the
// property Socrates' size-of-data-free backup/restore depends on (§3.5).
// A segment lives while the live blob or any snapshot still maps it.
//
// Cheap and durable but slow: every operation pays the XStore latency
// profile. Outage injection models transient Azure Storage failures, which
// Page Servers must insulate against (§4.6).

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "chaos/chaos.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "storage/extent_store.h"

namespace socrates {
namespace xstore {

using SnapshotId = uint64_t;

class XStore {
 public:
  /// `bandwidth_mb_s` caps transfer throughput (1 MB/s == 1 byte/us);
  /// large reads/writes pay size/bandwidth on top of the base latency.
  explicit XStore(sim::Simulator& sim,
                  sim::DeviceProfile profile = sim::DeviceProfile::XStore(),
                  double bandwidth_mb_s = 200.0, uint64_t seed = 1)
      : sim_(sim),
        profile_(profile),
        bandwidth_mb_s_(bandwidth_mb_s),
        rng_(seed) {}

  /// Latency of constant-time metadata operations (snapshot, restore,
  /// delete): independent of blob size by construction.
  static constexpr SimTime kMetaOpLatencyUs = 20000;

  /// Write `data`'s ranges back to back into `blob` at `offset` (creating
  /// the blob if needed): one request of the summed length. The blob's
  /// extent table maps the segments by reference.
  sim::Task<Status> Write(const std::string& blob, uint64_t offset,
                          storage::SegmentList data);

  /// Write a copy of `data`.
  sim::Task<Status> Write(const std::string& blob, uint64_t offset,
                          Slice data) {
    return Write(blob, offset, storage::SegmentRef::Copy(data));
  }

  /// Read `len` bytes at `offset` into `*out` (replacing its contents).
  /// Unwritten ranges read as zeros.
  sim::Task<Status> Read(const std::string& blob, uint64_t offset,
                         uint64_t len, std::string* out);

  /// Constant-time snapshot of a blob: captures the extent table. No data
  /// bytes are copied, whatever the blob size.
  sim::Task<Result<SnapshotId>> Snapshot(const std::string& blob);

  /// Constant-time restore: materialize `dst` from a snapshot's extent
  /// table (the restored blob shares the snapshot's segments).
  sim::Task<Status> Restore(SnapshotId snap, const std::string& dst);

  sim::Task<Status> Delete(const std::string& blob);

  /// True if the blob exists.
  bool Exists(const std::string& blob) const {
    return blobs_.count(blob) > 0;
  }

  /// Logical size (highest written offset) of a blob; 0 if missing.
  uint64_t BlobSize(const std::string& blob) const;

  /// List blob names with the given prefix (control-plane helper).
  std::vector<std::string> List(const std::string& prefix) const;

  /// Join a fault hub under `site` ("xstore" in a deployment); while
  /// the site is out, every operation fails Unavailable.
  void AttachChaos(chaos::Injector* hub, const std::string& site) {
    chaos_port_ = chaos::SitePort(hub, site);
  }

  /// Total data bytes ever written, overwritten or not (storage-cost
  /// accounting for the Table 1 "storage impact" comparison).
  uint64_t stored_bytes() const { return stored_bytes_; }

  const CounterStats& stats() const { return stats_; }

  /// Synchronous metadata read used by tests: raw blob contents.
  std::string ReadRaw(const std::string& blob, uint64_t offset,
                      uint64_t len) const;

 private:
  sim::Simulator& sim_;
  sim::DeviceProfile profile_;
  double bandwidth_mb_s_;
  Random rng_;
  chaos::SitePort chaos_port_;

  std::unordered_map<std::string, storage::ExtentStore> blobs_;
  std::unordered_map<SnapshotId, storage::ExtentStore> snapshots_;
  SnapshotId next_snapshot_ = 1;
  uint64_t stored_bytes_ = 0;
  CounterStats stats_;
};

}  // namespace xstore
}  // namespace socrates
