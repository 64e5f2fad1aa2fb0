#include "xstore/xstore.h"

#include <algorithm>

namespace socrates {
namespace xstore {

sim::Task<Status> XStore::Write(const std::string& blob, uint64_t offset,
                                storage::SegmentList data) {
  co_await sim::Delay(sim_, profile_.write.Sample(rng_));
  // Transfer time: 1 MB/s == 1 byte/us. Models XStore's throughput limits
  // (the reason HADR's backup egress throttles its log rate, Table 5).
  co_await sim::Delay(
      sim_, static_cast<SimTime>(static_cast<double>(data.size()) /
                                 bandwidth_mb_s_));
  if (chaos_port_.Out()) co_return Status::Unavailable("xstore outage");
  const uint64_t size = data.size();
  stored_bytes_ += size;
  blobs_[blob].Write(offset, data);
  stats_.writes++;
  stats_.bytes_written += size;
  co_return Status::OK();
}

sim::Task<Status> XStore::Read(const std::string& blob, uint64_t offset,
                               uint64_t len, std::string* out) {
  co_await sim::Delay(sim_, profile_.read.Sample(rng_));
  co_await sim::Delay(sim_, static_cast<SimTime>(static_cast<double>(len) /
                                                 bandwidth_mb_s_));
  if (chaos_port_.Out()) co_return Status::Unavailable("xstore outage");
  auto it = blobs_.find(blob);
  if (it == blobs_.end()) co_return Status::NotFound("blob " + blob);
  out->clear();
  it->second.Read(offset, len, out);
  stats_.reads++;
  stats_.bytes_read += len;
  co_return Status::OK();
}

sim::Task<Result<SnapshotId>> XStore::Snapshot(const std::string& blob) {
  // Constant-time: metadata only, no dependence on blob size.
  co_await sim::Delay(sim_, kMetaOpLatencyUs);
  if (chaos_port_.Out()) {
    co_return Result<SnapshotId>(Status::Unavailable("xstore outage"));
  }
  auto it = blobs_.find(blob);
  if (it == blobs_.end()) {
    co_return Result<SnapshotId>(Status::NotFound("blob " + blob));
  }
  SnapshotId id = next_snapshot_++;
  snapshots_[id] = it->second;  // extent table copy; segments are shared
  co_return Result<SnapshotId>(id);
}

sim::Task<Status> XStore::Restore(SnapshotId snap, const std::string& dst) {
  co_await sim::Delay(sim_, kMetaOpLatencyUs);
  if (chaos_port_.Out()) co_return Status::Unavailable("xstore outage");
  auto it = snapshots_.find(snap);
  if (it == snapshots_.end()) {
    co_return Status::NotFound("snapshot " + std::to_string(snap));
  }
  blobs_[dst] = it->second;
  co_return Status::OK();
}

sim::Task<Status> XStore::Delete(const std::string& blob) {
  co_await sim::Delay(sim_, kMetaOpLatencyUs);
  if (chaos_port_.Out()) co_return Status::Unavailable("xstore outage");
  blobs_.erase(blob);
  co_return Status::OK();
}

uint64_t XStore::BlobSize(const std::string& blob) const {
  auto it = blobs_.find(blob);
  return it == blobs_.end() ? 0 : it->second.size();
}

std::vector<std::string> XStore::List(const std::string& prefix) const {
  std::vector<std::string> names;
  for (const auto& [name, b] : blobs_) {
    if (name.rfind(prefix, 0) == 0) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string XStore::ReadRaw(const std::string& blob, uint64_t offset,
                            uint64_t len) const {
  auto it = blobs_.find(blob);
  if (it == blobs_.end()) return std::string(len, '\0');
  std::string out;
  it->second.Read(offset, len, &out);
  return out;
}

}  // namespace xstore
}  // namespace socrates
