// Scan expressions: the predicate / projection / partial-aggregate
// vocabulary shared by the compute-tier scan planner and the Page
// Server's pushdown evaluator (RBIO kScanRange).
//
// This lives in common/ on purpose: rbio must not depend on engine (the
// wire codec ships these specs inside kScanRange frames) and engine must
// not depend on rbio (the planner builds them before deciding whether to
// push down at all). Both tiers evaluate the SAME functions over the
// same (key, payload) view of a row, which is what makes the pushdown
// path and the local page-fetch fallback produce identical results.
//
// The vocabulary is what the callers send, and no more: PushdownDB's
// "one filter + one projection + one partial aggregate" shape, as a
// handful of fixed-width wire fields:
//   * one predicate over the row key: every row, or a modular residue
//     (the HTAP mix's "every Nth row" analytic filter);
//   * a projection as a list of [offset, len) payload extents;
//   * one partial aggregate, COUNT or SUM over a little-endian u64 read
//     at a fixed payload offset.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace socrates {
namespace common {

enum class PredOp : uint8_t {
  kAll = 0,       // every row matches
  kKeyModEq = 1,  // (key % a) == b — selectivity exactly 1/a
};

struct ScanPredicate {
  PredOp op = PredOp::kAll;
  uint64_t a = 0;
  uint64_t b = 0;

  static ScanPredicate KeyModEq(uint64_t modulus, uint64_t residue) {
    return ScanPredicate{PredOp::kKeyModEq, modulus, residue};
  }
};

/// True iff the row satisfies `pred`. No predicate reads the payload;
/// the parameter stays only because perfbench/perfbench.cc passes it.
bool EvalPredicate(const ScanPredicate& pred, uint64_t key, Slice payload);

/// Planner-side selectivity of `pred` over keys in [start_key, end_key)
/// (end_key == 0 → unbounded above). kKeyModEq counts its actual hits
/// in the window: a range narrower than the modulus holds at most one
/// hit, so a tiny scan is *dense*, not 1/a-sparse. An unbounded range
/// falls back to the full-range 1/a.
double EstimatedSelectivity(const ScanPredicate& pred, uint64_t start_key,
                            uint64_t end_key);

/// Projection: concatenated payload extents, clamped to the payload
/// length. An empty extent list means "whole payload".
struct ScanProjection {
  struct Extent {
    uint16_t offset = 0;
    uint16_t len = 0;
  };
  std::vector<Extent> extents;

  bool IsAll() const { return extents.empty(); }

  /// Append the projected bytes of `payload` to `*out`.
  void Apply(Slice payload, std::string* out) const;

  /// Projected size of a `payload_len`-byte payload (for wire
  /// accounting without materializing).
  size_t ProjectedSize(size_t payload_len) const;
};

enum class AggFn : uint8_t {
  kNone = 0,
  kCount = 1,
  kSum = 2,
};

/// Partial-aggregate spec: fn over a u64 field read little-endian at
/// `field_offset` (zero-padded past the payload end, so short payloads
/// aggregate deterministically rather than erroring).
struct ScanAggregate {
  AggFn fn = AggFn::kNone;
  uint16_t field_offset = 0;

  bool enabled() const { return fn != AggFn::kNone; }
  static ScanAggregate Count() { return ScanAggregate{AggFn::kCount, 0}; }
  static ScanAggregate Sum(uint16_t off) {
    return ScanAggregate{AggFn::kSum, off};
  }
};

/// The u64 aggregate input for one row (LE, zero-padded; always 0 for
/// COUNT, so one fold serves both functions).
uint64_t AggFieldValue(const ScanAggregate& agg, Slice payload);

/// Running partial-aggregate state; mergeable across Page Servers /
/// resumed scan segments. `rows` is the COUNT, `value` the SUM.
struct AggState {
  uint64_t rows = 0;
  uint64_t value = 0;

  void Accumulate(uint64_t v) {
    rows++;
    value += v;
  }
  void Merge(const AggState& other) {
    rows += other.rows;
    value += other.value;
  }
};

// ----- Wire codec (shared by the rbio kScanRange frames). Decoders
// reject unknown ops and fns (NotSupported) and truncated or over-long
// lists (Corruption): the bytes come from the wire.

/// [u8 op][u64 a][u64 b].
void EncodePredicate(std::string* out, const ScanPredicate& pred);
Status DecodePredicate(Slice* in, ScanPredicate* out);

/// [u16 n]([u16 offset][u16 len])*.
void EncodeProjection(std::string* out, const ScanProjection& proj);
Status DecodeProjection(Slice* in, ScanProjection* out);

/// [u8 fn][u16 field_offset].
void EncodeAggregate(std::string* out, const ScanAggregate& agg);
Status DecodeAggregate(Slice* in, ScanAggregate* out);

}  // namespace common
}  // namespace socrates
