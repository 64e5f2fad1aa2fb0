// BlockDevice: the byte-addressable async storage abstraction under every
// tier (the analogue of SQL Server's FCB I/O virtualization layer, §3.6).
// SimBlockDevice models one device with a latency profile and optional
// outage injection. Its bytes live in an ExtentStore, so a write keeps the
// caller's segments by reference (a gather list is one request of the
// summed length); it also keeps whole pages by reference for the RBPEX
// tier (ReadPage/WritePage). ReplicatedBlockDevice adds N-way replication
// with write quorum K — the shape of the XIO landing zone — and hands
// every replica the same segments.

#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
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
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/extent_store.h"
#include "storage/page.h"

namespace socrates {
namespace storage {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Read `len` bytes at `offset`, appending them to `*out`. Unwritten
  /// ranges read as zero bytes. A failed read leaves `*out` alone.
  virtual sim::Task<Status> Read(uint64_t offset, uint64_t len,
                                 std::string* out) = 0;

  /// Write `data`'s ranges back to back at `offset`, keeping their
  /// segments by reference: one request of the summed length.
  virtual sim::Task<Status> Write(uint64_t offset, SegmentList data) = 0;

  /// Write a copy of `data` at `offset`.
  sim::Task<Status> Write(uint64_t offset, Slice data) {
    return Write(offset, SegmentRef::Copy(data));
  }

  /// CPU microseconds the issuing node burns per request on this device
  /// (REST marshalling vs. cheap RDMA path; see DeviceProfile).
  virtual SimTime cpu_per_io_us() const = 0;

  virtual const CounterStats& stats() const = 0;
};

/// In-memory device with modelled latency. Storage is a sparse extent map,
/// so multi-GiB address spaces cost only what is actually written.
class SimBlockDevice : public BlockDevice {
 public:
  using BlockDevice::Write;

  SimBlockDevice(sim::Simulator& sim, sim::DeviceProfile profile,
                 uint64_t seed = 1)
      : sim_(sim), profile_(profile), rng_(seed) {}

  sim::Task<Status> Read(uint64_t offset, uint64_t len,
                         std::string* out) override {
    Status s = co_await Access(/*write=*/false, len);
    if (s.ok()) bytes_.Read(offset, len, out);
    co_return s;
  }

  sim::Task<Status> Write(uint64_t offset, SegmentList data) override {
    Status s = co_await Access(/*write=*/true, data.size());
    if (s.ok()) bytes_.Write(offset, data);
    co_return s;
  }

  /// Unmap [offset, offset + len) (a trim): it reads as zeros afterwards
  /// and the segments and whole pages it mapped lose this holder (a page
  /// is dropped when the range covers all of it). Free and synchronous:
  /// no latency, RNG draw, chaos check or stats, so discarding never
  /// moves the simulation.
  void Discard(uint64_t offset, uint64_t len) {
    bytes_.Discard(offset, len);
    if (len < kPageSize) return;
    std::erase_if(pages_, [&](const auto& entry) {
      const uint64_t start = entry.first * kPageSize;
      return start >= offset && start - offset <= len - kPageSize;
    });
  }

  /// Page-granular I/O: the device keeps the refcounted copy-on-write
  /// image itself, so a page moves in or out by a refcount bump instead
  /// of an 8 KiB copy. Latency, chaos and stats are charged exactly as
  /// for a kPageSize Read/Write. `offset` must be page-aligned. The page
  /// store is separate from the byte store: a device is used either page-
  /// wise (the RBPEX tier) or byte-wise, never both. An offset never
  /// written with WritePage reads as the zero page, which fails
  /// VerifyChecksum.
  sim::Task<Status> ReadPage(uint64_t offset, Page* out) {
    assert(offset % kPageSize == 0);
    Status s = co_await Access(/*write=*/false, kPageSize);
    if (s.ok()) {
      auto it = pages_.find(offset / kPageSize);
      *out = it != pages_.end() ? it->second : Page();
    }
    co_return s;
  }

  sim::Task<Status> WritePage(uint64_t offset, Page page) {
    assert(offset % kPageSize == 0);
    Status s = co_await Access(/*write=*/true, kPageSize);
    if (s.ok()) pages_.insert_or_assign(offset / kPageSize, std::move(page));
    co_return s;
  }

  SimTime cpu_per_io_us() const override { return profile_.cpu_per_io_us; }
  const CounterStats& stats() const override { return stats_; }

  /// Join a fault hub under `site` (e.g. every replica of the landing
  /// zone attaches as "lz", so one injector call opens a whole-service
  /// outage window). While the site is out, requests fail after their
  /// modelled latency with Status::Unavailable.
  void AttachChaos(chaos::Injector* hub, const std::string& site) {
    chaos_port_ = chaos::SitePort(hub, site);
  }

  /// Synchronous backdoor used by tests and by crash-recovery assertions
  /// ("what is really on the media?"). Not part of the service data path.
  std::string ReadRaw(uint64_t offset, uint64_t len) const {
    std::string out;
    bytes_.Read(offset, len, &out);
    return out;
  }

  /// Bytes the device maps (byte extents plus whole pages), whether or
  /// not another store shares them (for size-of-data checks).
  uint64_t allocated_bytes() const {
    return bytes_.mapped_bytes() + pages_.size() * kPageSize;
  }

 private:
  // The one place a request pays its modelled latency, outage check and
  // stats, so the byte and page calls draw the device RNG identically.
  sim::Task<Status> Access(bool write, uint64_t len) {
    SimTime delay = (write ? profile_.write : profile_.read).Sample(rng_);
    delay += profile_.TransferUs(len);
    delay += chaos_port_.GrayDelayUs();
    co_await sim::Delay(sim_, delay);
    if (chaos_port_.Out()) co_return Status::Unavailable("device outage");
    if (write) {
      stats_.writes++;
      stats_.bytes_written += len;
    } else {
      stats_.reads++;
      stats_.bytes_read += len;
    }
    co_return Status::OK();
  }

  sim::Simulator& sim_;
  sim::DeviceProfile profile_;
  Random rng_;
  chaos::SitePort chaos_port_;
  ExtentStore bytes_;
  std::unordered_map<uint64_t, Page> pages_;  // page index -> image
  CounterStats stats_;
};

/// N replicas with write quorum K and read-one semantics. A write completes
/// when K replicas acknowledge; the remaining replica writes continue in
/// the background (they are not cancelled). This is the durability model of
/// the landing zone (XIO keeps three replicas) and of XStore.
class ReplicatedBlockDevice : public BlockDevice {
 public:
  using BlockDevice::Write;

  ReplicatedBlockDevice(sim::Simulator& sim, sim::DeviceProfile profile,
                        int num_replicas, int write_quorum,
                        uint64_t seed = 1)
      : sim_(sim), write_quorum_(write_quorum) {
    for (int i = 0; i < num_replicas; i++) {
      replicas_.push_back(
          std::make_unique<SimBlockDevice>(sim, profile, seed + i * 7919));
    }
    cpu_per_io_us_ = profile.cpu_per_io_us;
  }

  sim::Task<Status> Read(uint64_t offset, uint64_t len,
                         std::string* out) override {
    // Read from the first available replica; fail over on outage.
    for (auto& r : replicas_) {
      Status s = co_await r->Read(offset, len, out);
      if (!s.IsUnavailable()) {
        stats_.reads++;
        stats_.bytes_read += len;
        co_return s;
      }
    }
    co_return Status::Unavailable("all replicas down");
  }

  sim::Task<Status> Write(uint64_t offset, SegmentList data) override {
    // Fan the write out to every replica; complete as soon as `quorum`
    // replicas acknowledge, or fail once success becomes impossible.
    // Every replica maps the same segments. Shared state is heap-allocated
    // because laggard replica writes outlive this frame.
    const uint64_t size = data.size();
    auto state = std::make_shared<WriteState>(sim_);
    state->payload = std::move(data);
    state->quorum = write_quorum_;
    state->max_failures =
        static_cast<int>(replicas_.size()) - write_quorum_;
    for (auto& r : replicas_) {
      sim::Spawn(sim_, ReplicaWrite(r.get(), offset, state));
    }
    co_await state->decided.Wait();
    stats_.writes++;
    stats_.bytes_written += size;
    if (state->successes >= state->quorum) co_return Status::OK();
    co_return Status::Unavailable("write quorum not reached");
  }

  SimTime cpu_per_io_us() const override { return cpu_per_io_us_; }
  const CounterStats& stats() const override { return stats_; }

  /// Discard [offset, offset + len) on every replica (see
  /// SimBlockDevice::Discard). A laggard replica write that lands in the
  /// range afterwards maps its bytes again.
  void Discard(uint64_t offset, uint64_t len) {
    for (auto& r : replicas_) r->Discard(offset, len);
  }

  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  SimBlockDevice* replica(int i) { return replicas_[i].get(); }

  /// Attach every replica to the fault hub under one shared site: a
  /// site outage then takes the whole replica set (no quorum). A partial
  /// failure attaches one replica under a site of its own instead.
  void AttachChaos(chaos::Injector* hub, const std::string& site) {
    for (auto& r : replicas_) r->AttachChaos(hub, site);
  }

 private:
  struct WriteState {
    explicit WriteState(sim::Simulator& s) : decided(s) {}
    SegmentList payload;
    sim::Event decided;
    int quorum = 0;
    int max_failures = 0;
    int successes = 0;
    int failures = 0;
  };

  sim::Task<> ReplicaWrite(SimBlockDevice* dev, uint64_t offset,
                           std::shared_ptr<WriteState> state) {
    Status s = co_await dev->Write(offset, state->payload);
    if (s.ok()) {
      state->successes++;
      if (state->successes == state->quorum) state->decided.Set();
    } else {
      state->failures++;
      if (state->failures > state->max_failures) state->decided.Set();
    }
  }

  sim::Simulator& sim_;
  int write_quorum_;
  SimTime cpu_per_io_us_ = 0;
  std::vector<std::unique_ptr<SimBlockDevice>> replicas_;
  CounterStats stats_;
};

}  // namespace storage
}  // namespace socrates
