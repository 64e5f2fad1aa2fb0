#include "common/scan_expr.h"

#include <algorithm>

#include "common/coding.h"

namespace socrates {
namespace common {

namespace {

bool EvalTerm(PredOp op, uint64_t a, uint64_t b, uint64_t key,
              Slice payload) {
  switch (op) {
    case PredOp::kAll:
      return true;
    case PredOp::kKeyModEq:
      // A zero modulus would be undefined; treat it as "match all" so a
      // malformed spec degrades to a full scan instead of dividing by 0.
      return a == 0 || (key % a) == b;
    case PredOp::kPayloadByteEq:
      return a < payload.size() &&
             static_cast<uint8_t>(payload[a]) ==
                 static_cast<uint8_t>(b & 0xff);
    case PredOp::kPayloadByteLt:
      return a < payload.size() &&
             static_cast<uint8_t>(payload[a]) <
                 static_cast<uint8_t>(b & 0xff);
    case PredOp::kKeyRange:
      return key >= a && (b == 0 || key < b);
  }
  return true;
}

/// Full-range prior for one term (no range context).
double TermSelectivity(PredOp op, uint64_t a, uint64_t b) {
  switch (op) {
    case PredOp::kAll:
      return 1.0;
    case PredOp::kKeyModEq:
      return a == 0 ? 1.0 : 1.0 / static_cast<double>(a);
    case PredOp::kPayloadByteEq:
      // Uniform-byte prior; the workloads here store A..Z payloads, so
      // 1/26 would be exact — 1/32 keeps the planner conservative.
      return 1.0 / 32.0;
    case PredOp::kPayloadByteLt:
      return std::min(1.0, static_cast<double>(b & 0xff) / 256.0);
    case PredOp::kKeyRange:
      // Without knowing the scanned range a key-range term is
      // uninformative; stay conservative (the range-aware overload
      // computes the real overlap fraction).
      return 1.0;
  }
  return 1.0;
}

/// Exact selectivity of one key-dependent term over [start, end);
/// payload terms fall back to the prior. end == 0 means unbounded.
double TermSelectivityInRange(PredOp op, uint64_t a, uint64_t b,
                              uint64_t start, uint64_t end) {
  if (end == 0 || end <= start) return TermSelectivity(op, a, b);
  double width = static_cast<double>(end - start);
  switch (op) {
    case PredOp::kKeyModEq: {
      if (a == 0) return 1.0;
      // Count keys in [start, end) with key % a == b. A window narrower
      // than the modulus holds 0 or 1 hits — a tiny scan is *dense*
      // relative to its own width, never 1/a-sparse.
      if (b >= a) return 0.0;
      uint64_t first = start + ((b + a - start % a) % a);
      if (first >= end) return 0.0;
      uint64_t hits = (end - 1 - first) / a + 1;
      return std::min(1.0, static_cast<double>(hits) / width);
    }
    case PredOp::kKeyRange: {
      uint64_t lo = std::max(a, start);
      uint64_t hi = b == 0 ? end : std::min(b, end);
      if (hi <= lo) return 0.0;
      return std::min(1.0, static_cast<double>(hi - lo) / width);
    }
    default:
      return TermSelectivity(op, a, b);
  }
}

}  // namespace

bool EvalPredicate(const ScanPredicate& pred, uint64_t key, Slice payload) {
  if (!EvalTerm(pred.op, pred.a, pred.b, key, payload)) return false;
  for (const ScanPredicate::Term& t : pred.conjuncts) {
    if (!EvalTerm(t.op, t.a, t.b, key, payload)) return false;
  }
  return true;
}

double EstimatedSelectivity(const ScanPredicate& pred) {
  double sel = TermSelectivity(pred.op, pred.a, pred.b);
  for (const ScanPredicate::Term& t : pred.conjuncts) {
    sel *= TermSelectivity(t.op, t.a, t.b);
  }
  return sel;
}

double EstimatedSelectivity(const ScanPredicate& pred, uint64_t start_key,
                            uint64_t end_key) {
  double sel =
      TermSelectivityInRange(pred.op, pred.a, pred.b, start_key, end_key);
  for (const ScanPredicate::Term& t : pred.conjuncts) {
    sel *= TermSelectivityInRange(t.op, t.a, t.b, start_key, end_key);
  }
  return sel;
}

void ScanProjection::Apply(Slice payload, std::string* out) const {
  if (IsAll()) {
    out->append(payload.data(), payload.size());
    return;
  }
  for (const Extent& e : extents) {
    if (e.offset >= payload.size()) continue;
    size_t len = std::min<size_t>(e.len, payload.size() - e.offset);
    out->append(payload.data() + e.offset, len);
  }
}

size_t ScanProjection::ProjectedSize(size_t payload_len) const {
  if (IsAll()) return payload_len;
  size_t total = 0;
  for (const Extent& e : extents) {
    if (e.offset >= payload_len) continue;
    total += std::min<size_t>(e.len, payload_len - e.offset);
  }
  return total;
}

uint64_t AggFieldValue(const ScanAggregate& agg, Slice payload) {
  if (agg.fn == AggFn::kCount) return 0;  // input unused
  char buf[8] = {0};
  if (agg.field_offset < payload.size()) {
    size_t n = std::min<size_t>(8, payload.size() - agg.field_offset);
    for (size_t i = 0; i < n; i++) buf[i] = payload[agg.field_offset + i];
  }
  return DecodeFixed64(buf);
}

void AggState::Accumulate(AggFn fn, uint64_t v) {
  switch (fn) {
    case AggFn::kNone:
      return;
    case AggFn::kCount:
      break;
    case AggFn::kSum:
      value += v;
      break;
    case AggFn::kMin:
      value = rows == 0 ? v : std::min(value, v);
      break;
    case AggFn::kMax:
      value = rows == 0 ? v : std::max(value, v);
      break;
  }
  rows++;
}

void AggState::Merge(AggFn fn, const AggState& other) {
  if (other.rows == 0) return;
  switch (fn) {
    case AggFn::kNone:
      return;
    case AggFn::kCount:
      break;
    case AggFn::kSum:
      value += other.value;
      break;
    case AggFn::kMin:
      value = rows == 0 ? other.value : std::min(value, other.value);
      break;
    case AggFn::kMax:
      value = rows == 0 ? other.value : std::max(value, other.value);
      break;
  }
  rows += other.rows;
}

void EncodePredicate(std::string* out, const ScanPredicate& pred) {
  out->push_back(static_cast<char>(pred.op));
  PutFixed64(out, pred.a);
  PutFixed64(out, pred.b);
  out->push_back(static_cast<char>(pred.conjuncts.size() & 0xff));
  for (const ScanPredicate::Term& t : pred.conjuncts) {
    out->push_back(static_cast<char>(t.op));
    PutFixed64(out, t.a);
    PutFixed64(out, t.b);
  }
}

Status DecodePredicate(Slice* in, ScanPredicate* out) {
  if (in->empty()) return Status::Corruption("scan: truncated predicate");
  uint8_t op = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  if (op > static_cast<uint8_t>(PredOp::kKeyRange)) {
    return Status::NotSupported("scan: unknown predicate op");
  }
  out->op = static_cast<PredOp>(op);
  if (!GetFixed64(in, &out->a) || !GetFixed64(in, &out->b)) {
    return Status::Corruption("scan: truncated predicate operands");
  }
  if (in->empty()) return Status::Corruption("scan: truncated conjuncts");
  uint8_t n = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  out->conjuncts.clear();
  out->conjuncts.reserve(n);
  for (uint8_t i = 0; i < n; i++) {
    if (in->empty()) return Status::Corruption("scan: truncated conjunct");
    uint8_t top = static_cast<uint8_t>((*in)[0]);
    in->remove_prefix(1);
    if (top > static_cast<uint8_t>(PredOp::kKeyRange)) {
      return Status::NotSupported("scan: unknown conjunct op");
    }
    ScanPredicate::Term t;
    t.op = static_cast<PredOp>(top);
    if (!GetFixed64(in, &t.a) || !GetFixed64(in, &t.b)) {
      return Status::Corruption("scan: truncated conjunct operands");
    }
    out->conjuncts.push_back(t);
  }
  return Status::OK();
}

void EncodeProjection(std::string* out, const ScanProjection& proj) {
  PutFixed16(out, static_cast<uint16_t>(proj.extents.size()));
  for (const ScanProjection::Extent& e : proj.extents) {
    PutFixed16(out, e.offset);
    PutFixed16(out, e.len);
  }
}

Status DecodeProjection(Slice* in, ScanProjection* out) {
  uint16_t n;
  if (!GetFixed16(in, &n)) {
    return Status::Corruption("scan: truncated projection");
  }
  out->extents.clear();
  out->extents.reserve(n);
  for (uint16_t i = 0; i < n; i++) {
    ScanProjection::Extent e;
    if (!GetFixed16(in, &e.offset) || !GetFixed16(in, &e.len)) {
      return Status::Corruption("scan: truncated projection extent");
    }
    out->extents.push_back(e);
  }
  return Status::OK();
}

void EncodeAggregate(std::string* out, const ScanAggregate& agg) {
  out->push_back(static_cast<char>(agg.fn));
  PutFixed16(out, agg.field_offset);
}

Status DecodeAggregate(Slice* in, ScanAggregate* out) {
  if (in->empty()) return Status::Corruption("scan: truncated aggregate");
  uint8_t fn = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  if (fn > static_cast<uint8_t>(AggFn::kMax)) {
    return Status::NotSupported("scan: unknown aggregate fn");
  }
  out->fn = static_cast<AggFn>(fn);
  if (!GetFixed16(in, &out->field_offset)) {
    return Status::Corruption("scan: truncated aggregate offset");
  }
  return Status::OK();
}

void EncodeAggregateList(std::string* out, const ScanAggregateList& aggs) {
  out->push_back(static_cast<char>(aggs.size() & 0xff));
  for (const ScanAggregate& agg : aggs) {
    out->push_back(static_cast<char>(agg.fn));
    PutFixed16(out, agg.field_offset);
  }
}

Status DecodeAggregateList(Slice* in, ScanAggregateList* out) {
  if (in->empty()) return Status::Corruption("scan: truncated agg list");
  uint8_t n = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  if (n > kMaxScanAggregates) {
    return Status::NotSupported("scan: aggregate list too long");
  }
  out->clear();
  out->reserve(n);
  for (uint8_t i = 0; i < n; i++) {
    ScanAggregate agg;
    SOCRATES_RETURN_IF_ERROR(DecodeAggregate(in, &agg));
    out->push_back(agg);
  }
  return Status::OK();
}

}  // namespace common
}  // namespace socrates
