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
// The vocabulary is deliberately small — enough to express the
// PushdownDB-style "filter + project + partial aggregate" shapes that
// dominate scan traffic, while keeping the wire codec a handful of
// fixed-width fields:
//   * predicates over the row key (modular residue — the HTAP mix's
//     "every Nth row" analytic filter) and over single payload bytes;
//   * projections as a list of [offset, len) payload extents;
//   * key-range predicates (a <= key < b) and conjunctions (the primary
//     term ANDed with a bounded list of extra byte/key tests);
//   * partial aggregates COUNT / SUM / MIN / MAX over a little-endian
//     u64 read at a fixed payload offset, several fields in one pass.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace socrates {
namespace common {

enum class PredOp : uint8_t {
  kAll = 0,          // every row matches
  kKeyModEq = 1,     // (key % a) == b — selectivity exactly 1/a
  kPayloadByteEq = 2,  // payload[a] == (b & 0xff); short payloads miss
  kPayloadByteLt = 3,  // payload[a] <  (b & 0xff); short payloads miss
  kKeyRange = 4,     // a <= key < b (b == 0 means unbounded above)
};

struct ScanPredicate {
  PredOp op = PredOp::kAll;
  uint64_t a = 0;
  uint64_t b = 0;

  /// Extra terms ANDed with the primary (op, a, b) term — the
  /// "conjunction of byte tests" form. Empty for a single-term predicate.
  struct Term {
    PredOp op = PredOp::kAll;
    uint64_t a = 0;
    uint64_t b = 0;
  };
  std::vector<Term> conjuncts;

  static ScanPredicate All() { return ScanPredicate{}; }
  static ScanPredicate KeyModEq(uint64_t modulus, uint64_t residue) {
    return ScanPredicate{PredOp::kKeyModEq, modulus, residue, {}};
  }
  static ScanPredicate PayloadByteEq(uint64_t offset, uint8_t value) {
    return ScanPredicate{PredOp::kPayloadByteEq, offset, value, {}};
  }
  static ScanPredicate PayloadByteLt(uint64_t offset, uint8_t bound) {
    return ScanPredicate{PredOp::kPayloadByteLt, offset, bound, {}};
  }
  /// lo <= key < hi (hi == 0 → unbounded above).
  static ScanPredicate KeyRange(uint64_t lo, uint64_t hi) {
    return ScanPredicate{PredOp::kKeyRange, lo, hi, {}};
  }

  /// AND another single-term predicate onto this one (conjunction).
  /// The argument's own conjuncts are appended too, so chains compose.
  ScanPredicate& And(const ScanPredicate& other) {
    conjuncts.push_back(Term{other.op, other.a, other.b});
    for (const Term& t : other.conjuncts) conjuncts.push_back(t);
    return *this;
  }

  bool IsAll() const {
    return op == PredOp::kAll && conjuncts.empty();
  }
};

/// True iff the row (key, payload) satisfies `pred` (primary term AND
/// every conjunct). Payload-byte predicates never match rows whose
/// payload is too short — on both tiers, so pushdown and local
/// evaluation agree on every row.
bool EvalPredicate(const ScanPredicate& pred, uint64_t key, Slice payload);

/// Planner-side selectivity estimate in [0, 1]. kKeyModEq is exact
/// (1/a); the payload-byte ops use fixed priors — the planner only needs
/// a coarse "is this scan sparse enough to ship tuples" signal.
/// Conjunct terms multiply under an independence assumption.
double EstimatedSelectivity(const ScanPredicate& pred);

/// Range-aware overload: the selectivity of `pred` over keys in
/// [start_key, end_key) (end_key == 0 → unbounded above). Key-dependent
/// terms are computed exactly against the range: kKeyModEq counts its
/// actual hits in the window (a range narrower than the modulus holds at
/// most one hit, so a tiny scan is *dense*, not 1/a-sparse), and
/// kKeyRange is the overlap fraction. Falls back to the priors above
/// for payload terms and for an unbounded range.
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
  kMin = 3,
  kMax = 4,
};

/// Partial-aggregate spec: fn over a u64 field read little-endian at
/// `field_offset` (zero-padded past the payload end, so short payloads
/// aggregate deterministically rather than erroring).
struct ScanAggregate {
  AggFn fn = AggFn::kNone;
  uint16_t field_offset = 0;

  bool enabled() const { return fn != AggFn::kNone; }
  static ScanAggregate None() { return ScanAggregate{}; }
  static ScanAggregate Count() { return ScanAggregate{AggFn::kCount, 0}; }
  static ScanAggregate Sum(uint16_t off) {
    return ScanAggregate{AggFn::kSum, off};
  }
  static ScanAggregate Min(uint16_t off) {
    return ScanAggregate{AggFn::kMin, off};
  }
  static ScanAggregate Max(uint16_t off) {
    return ScanAggregate{AggFn::kMax, off};
  }
};

/// Multi-field aggregates: a bounded list of per-field specs computed
/// in one pass over the scanned rows (e.g. COUNT + SUM(price) +
/// MAX(ts)).
using ScanAggregateList = std::vector<ScanAggregate>;
inline constexpr size_t kMaxScanAggregates = 8;

/// The u64 aggregate input for one row (LE, zero-padded).
uint64_t AggFieldValue(const ScanAggregate& agg, Slice payload);

/// Running partial-aggregate state; mergeable across Page Servers /
/// resumed scan segments. `rows == 0` means "no input yet" (MIN/MAX have
/// no identity element, so emptiness is tracked explicitly).
struct AggState {
  uint64_t rows = 0;
  uint64_t value = 0;

  void Accumulate(AggFn fn, uint64_t v);
  void Merge(AggFn fn, const AggState& other);
};

// ----- Wire codec (shared by the rbio kScanRange frames). Decoders
// reject unknown ops and over-long lists: the bytes come from the wire.

/// [u8 op][u64 a][u64 b], then [u8 n_conjuncts]([u8 op][u64 a][u64 b])*.
void EncodePredicate(std::string* out, const ScanPredicate& pred);
Status DecodePredicate(Slice* in, ScanPredicate* out);

void EncodeProjection(std::string* out, const ScanProjection& proj);
Status DecodeProjection(Slice* in, ScanProjection* out);

/// [u8 fn][u16 field_offset].
void EncodeAggregate(std::string* out, const ScanAggregate& agg);
Status DecodeAggregate(Slice* in, ScanAggregate* out);

/// [u8 n] aggregates, n <= kMaxScanAggregates.
void EncodeAggregateList(std::string* out, const ScanAggregateList& aggs);
Status DecodeAggregateList(Slice* in, ScanAggregateList* out);

}  // namespace common
}  // namespace socrates
