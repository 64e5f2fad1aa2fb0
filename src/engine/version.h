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
//
// This header has the one reader and the one writer of that encoding.
// ChainReader walks a chain in place, without copying; VisibleAt and
// Newest are its lookups. Every tier reads through it: the Primary's and
// Secondaries' Get, Scan and commit validation, and the Page Servers'
// pushdown evaluator, so a pushed scan and a local scan agree on every
// byte, malformed ones included. EncodePushed is the writer: the
// Primary's leaf write and every redo of its log record run it.

#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "common/coding.h"
#include "common/slice.h"
#include "common/types.h"

namespace socrates {
namespace engine {

/// A row keeps at most this many versions, newest first.
inline constexpr size_t kMaxChainLength = 8;

/// One version as it sits in an encoded chain. `payload` points into the
/// chain's bytes and is valid as long as they are.
struct VersionView {
  Timestamp commit_ts = 0;
  bool tombstone = false;
  Slice payload;
};

/// Walks an encoded chain newest-first without copying.
class ChainReader {
 public:
  explicit ChainReader(Slice chain) : rest_(chain) {
    malformed_ = !GetFixed16(&rest_, &left_);
    body_ = rest_;
  }

  /// Reads the next version into `*v`. False at the end of the chain or
  /// on malformed input; malformed() tells the two apart.
  bool Next(VersionView* v) {
    if (left_ == 0 || malformed_) return false;
    uint64_t ts;
    if (!GetFixed64(&rest_, &ts) || rest_.empty()) return Fail();
    const auto flags = static_cast<uint8_t>(rest_[0]);
    rest_.remove_prefix(1);
    if (!GetLengthPrefixed(&rest_, &v->payload)) return Fail();
    v->commit_ts = ts;
    v->tombstone = (flags & 0x1) != 0;
    left_--;
    return true;
  }

  bool malformed() const { return malformed_; }

  /// Encoded bytes of the versions read so far (without the count).
  size_t bytes_read() const { return body_.size() - rest_.size(); }

 private:
  bool Fail() {
    malformed_ = true;
    return false;
  }

  Slice rest_;
  Slice body_;
  uint16_t left_ = 0;
  bool malformed_ = false;
};

/// What a lookup in an encoded chain found.
enum class ChainLookup : uint8_t {
  kFound,      // the version is in `*out`; callers check `tombstone`
  kNone,       // no version qualifies: the row did not exist yet
  kMalformed,  // the bytes are not a chain
};

/// The version a snapshot at `read_ts` sees: the newest version with
/// commit_ts <= read_ts. Reads no further than that version.
inline ChainLookup VisibleAt(Slice chain, Timestamp read_ts,
                             VersionView* out) {
  ChainReader reader(chain);
  while (reader.Next(out)) {
    if (out->commit_ts <= read_ts) return ChainLookup::kFound;
  }
  return reader.malformed() ? ChainLookup::kMalformed : ChainLookup::kNone;
}

/// The newest version (the committed head).
inline ChainLookup Newest(Slice chain, VersionView* out) {
  return VisibleAt(chain, kMaxTimestamp, out);
}

/// The trim and cap rule of a push. Old versions are kept newest-first:
/// with `kept` of them kept so far, the last one kept (or the pushed
/// version, when none is) at `last_ts`, the next older one stays too
/// unless `last_ts` is at or below `trim_ts` (no snapshot can need older
/// versions) or the chain is at kMaxChainLength.
inline bool KeepsNext(size_t kept, Timestamp last_ts, Timestamp trim_ts) {
  return last_ts > trim_ts && kept + 1 < kMaxChainLength;
}

/// Append to `*out` the encoding of the chain that committing one version
/// leaves behind: `old` (an encoded chain; empty for a new row) with
/// (commit_ts, tombstone, payload) pushed on top and trimmed and capped
/// by KeepsNext. The kept old versions are copied as one block. Returns
/// false if `old` is malformed.
inline bool EncodePushed(Slice old, Timestamp commit_ts, bool tombstone,
                         Slice payload, Timestamp trim_ts,
                         std::string* out) {
  // A new row is the chain of no versions.
  ChainReader reader(old.empty() ? Slice("\0\0", 2) : old);
  size_t keep = 0;
  Timestamp last_ts = commit_ts;
  VersionView v;
  while (KeepsNext(keep, last_ts, trim_ts) && reader.Next(&v)) {
    keep++;
    last_ts = v.commit_ts;
  }
  if (reader.malformed()) return false;
  PutFixed16(out, static_cast<uint16_t>(keep + 1));
  PutFixed64(out, commit_ts);
  out->push_back(static_cast<char>(tombstone ? 0x1 : 0x0));
  PutLengthPrefixed(out, payload);
  // The kept versions start right after the old count.
  if (keep > 0) out->append(old.data() + 2, reader.bytes_read());
  return true;
}

/// Sizes a push onto a chain read earlier, once the leaf is unpinned and
/// `trim_ts` is known: keeps the commit_ts of each of the chain's first
/// kMaxChainLength - 1 versions and the encoded bytes through it.
class PushPlan {
 public:
  /// Reads `old`, an encoded chain. Returns false if a version a push
  /// could keep is malformed.
  bool Read(Slice old) {
    ChainReader reader(old);
    VersionView v;
    count_ = 0;
    while (count_ < ts_.size() && reader.Next(&v)) {
      ts_[count_] = v.commit_ts;
      end_[count_++] = reader.bytes_read();
    }
    return !reader.malformed();
  }

  /// Size of the chain EncodePushed leaves for a `payload_len`-byte
  /// payload (a new row's plan reads no chain).
  size_t PushedSize(Timestamp commit_ts, size_t payload_len,
                    Timestamp trim_ts) const {
    size_t keep = 0;
    Timestamp last_ts = commit_ts;
    while (keep < count_ && KeepsNext(keep, last_ts, trim_ts)) {
      last_ts = ts_[keep++];
    }
    // [u16 count], then the new version's [u64 ts][u8 flags][u32 len].
    return 2 + 13 + payload_len + (keep == 0 ? 0 : end_[keep - 1]);
  }

 private:
  std::array<Timestamp, kMaxChainLength - 1> ts_{};
  std::array<size_t, kMaxChainLength - 1> end_{};
  size_t count_ = 0;
};

}  // namespace engine
}  // namespace socrates
