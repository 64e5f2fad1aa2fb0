// Version chains: the persistent page version store (paper §3.1).
//
// Every value stored in a B-tree leaf is an encoded *chain* of row
// versions, newest first. Because versions live in the page itself, they
// are shipped to Page Servers and Secondaries through the ordinary log
// stream — which is exactly what makes snapshot reads work on every tier
// ("Compute nodes must share row versions in the shared storage tier").
// It also gives ADR-style recovery for free: pages only ever contain
// committed versions (writes are buffered in the transaction's write set
// and applied at commit), so recovery never needs an undo pass and a
// reader can always find the right committed version for its timestamp.
//
// Encoding (little-endian):
//   [u16 count] then per version, newest first:
//   [u64 commit_ts][u8 flags][u32 len][payload]
// flags bit 0: tombstone (the row was deleted at commit_ts).

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/slice.h"
#include "common/types.h"

namespace socrates {
namespace engine {

/// A row keeps at most this many versions, newest first.
inline constexpr size_t kMaxChainLength = 8;

struct RowVersion {
  Timestamp commit_ts = 0;
  bool tombstone = false;
  std::string payload;
};

class VersionChain {
 public:
  VersionChain() = default;

  /// Parse an encoded chain. Returns false on malformed input.
  static bool Decode(Slice input, VersionChain* out) {
    out->versions_.clear();
    uint16_t count;
    if (!GetFixed16(&input, &count)) return false;
    out->versions_.reserve(count);
    for (uint16_t i = 0; i < count; i++) {
      RowVersion v;
      uint64_t ts;
      if (!GetFixed64(&input, &ts)) return false;
      if (input.empty()) return false;
      uint8_t flags = static_cast<uint8_t>(input[0]);
      input.remove_prefix(1);
      Slice payload;
      if (!GetLengthPrefixed(&input, &payload)) return false;
      v.commit_ts = ts;
      v.tombstone = (flags & 0x1) != 0;
      v.payload = payload.ToString();
      out->versions_.push_back(std::move(v));
    }
    return true;
  }

  std::string Encode() const {
    std::string out;
    PutFixed16(&out, static_cast<uint16_t>(versions_.size()));
    for (const auto& v : versions_) {
      PutFixed64(&out, v.commit_ts);
      out.push_back(static_cast<char>(v.tombstone ? 0x1 : 0x0));
      PutLengthPrefixed(&out, Slice(v.payload));
    }
    return out;
  }

  /// Prepend a new committed version. Versions must be added in
  /// monotonically increasing commit_ts order.
  void Push(Timestamp commit_ts, bool tombstone, Slice payload) {
    RowVersion v;
    v.commit_ts = commit_ts;
    v.tombstone = tombstone;
    v.payload = payload.ToString();
    versions_.insert(versions_.begin(), std::move(v));
  }

  /// The version visible to a snapshot at `read_ts`: the newest version
  /// with commit_ts <= read_ts. nullopt if the row did not exist yet (or
  /// the visible version is a tombstone — callers check `tombstone`).
  const RowVersion* VisibleAt(Timestamp read_ts) const {
    for (const auto& v : versions_) {
      if (v.commit_ts <= read_ts) return &v;
    }
    return nullptr;
  }

  /// Newest version (the committed head), or nullptr if empty.
  const RowVersion* Newest() const {
    return versions_.empty() ? nullptr : &versions_.front();
  }

  /// Drop versions that no snapshot can need: keep the newest version
  /// whose commit_ts <= oldest_active_ts plus everything newer.
  void Trim(Timestamp oldest_active_ts) {
    for (size_t i = 0; i < versions_.size(); i++) {
      if (versions_[i].commit_ts <= oldest_active_ts) {
        versions_.resize(i + 1);
        return;
      }
    }
  }

  /// Hard cap on history length: keep only the newest `max` versions.
  void Cap(size_t max) {
    if (versions_.size() > max) versions_.resize(max);
  }

  /// Append to `*out` the encoding of the chain that committing one
  /// version leaves behind: `old` (an encoded chain; empty for a new row)
  /// after Push(commit_ts, tombstone, payload), Trim(trim_ts) and
  /// Cap(kMaxChainLength). Works on the encoding, copying the kept old
  /// versions as one block. The Primary's write and every redo of its
  /// leaf record run this one function, so all tiers store the same
  /// bytes. Returns false if `old` is malformed.
  static bool EncodePushed(Slice old, Timestamp commit_ts, bool tombstone,
                           Slice payload, Timestamp trim_ts,
                           std::string* out) {
    uint16_t old_count = 0;
    if (!old.empty() && !GetFixed16(&old, &old_count)) return false;
    // Trim keeps everything down to the newest version at or below
    // trim_ts; Cap then keeps at most kMaxChainLength.
    uint16_t keep = 1;  // the pushed version
    size_t kept_bytes = 0;
    bool trimmed = commit_ts <= trim_ts;
    Slice rest = old;
    while (!trimmed && keep < kMaxChainLength && keep <= old_count) {
      uint64_t ts;
      Slice skip;
      if (!GetFixed64(&rest, &ts) || rest.empty()) return false;
      rest.remove_prefix(1);  // flags
      if (!GetLengthPrefixed(&rest, &skip)) return false;
      keep++;
      kept_bytes = old.size() - rest.size();
      trimmed = ts <= trim_ts;
    }
    PutFixed16(out, keep);
    PutFixed64(out, commit_ts);
    out->push_back(static_cast<char>(tombstone ? 0x1 : 0x0));
    PutLengthPrefixed(out, payload);
    out->append(old.data(), kept_bytes);
    return true;
  }

  size_t size() const { return versions_.size(); }
  bool empty() const { return versions_.empty(); }
  const std::vector<RowVersion>& versions() const { return versions_; }

 private:
  std::vector<RowVersion> versions_;
};

}  // namespace engine
}  // namespace socrates
