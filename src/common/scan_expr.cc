#include "common/scan_expr.h"

#include <algorithm>

#include "common/coding.h"

namespace socrates {
namespace common {

bool EvalPredicate(const ScanPredicate& pred, uint64_t key,
                   Slice /*payload*/) {
  // A zero modulus would be undefined; treat it as "match all" so a
  // malformed spec degrades to a full scan instead of dividing by 0.
  return pred.op == PredOp::kAll || pred.a == 0 || (key % pred.a) == pred.b;
}

double EstimatedSelectivity(const ScanPredicate& pred, uint64_t start,
                            uint64_t end) {
  const uint64_t a = pred.a;
  const uint64_t b = pred.b;
  if (pred.op == PredOp::kAll || a == 0) return 1.0;
  if (end == 0 || end <= start) return 1.0 / static_cast<double>(a);
  // Count keys in [start, end) with key % a == b. A window narrower than
  // the modulus holds 0 or 1 hits — a tiny scan is *dense* relative to
  // its own width, never 1/a-sparse.
  if (b >= a) return 0.0;
  const uint64_t first = start + ((b + a - start % a) % a);
  if (first >= end) return 0.0;
  const uint64_t hits = (end - 1 - first) / a + 1;
  return std::min(1.0, static_cast<double>(hits) /
                           static_cast<double>(end - start));
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

void EncodePredicate(std::string* out, const ScanPredicate& pred) {
  out->push_back(static_cast<char>(pred.op));
  PutFixed64(out, pred.a);
  PutFixed64(out, pred.b);
}

Status DecodePredicate(Slice* in, ScanPredicate* out) {
  if (in->empty()) return Status::Corruption("scan: truncated predicate");
  uint8_t op = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  if (op > static_cast<uint8_t>(PredOp::kKeyModEq)) {
    return Status::NotSupported("scan: unknown predicate op");
  }
  out->op = static_cast<PredOp>(op);
  if (!GetFixed64(in, &out->a) || !GetFixed64(in, &out->b)) {
    return Status::Corruption("scan: truncated predicate operands");
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
  // Each extent is [u16 offset][u16 len].
  constexpr size_t kExtentBytes = 4;
  uint16_t n;
  if (!GetFixed16(in, &n)) {
    return Status::Corruption("scan: truncated projection");
  }
  // Bound the count by the bytes present before reserving for it.
  if (n > in->size() / kExtentBytes) {
    return Status::Corruption("scan: projection count exceeds frame");
  }
  out->extents.clear();
  out->extents.reserve(n);
  for (uint16_t i = 0; i < n; i++) {
    ScanProjection::Extent e;
    GetFixed16(in, &e.offset);
    GetFixed16(in, &e.len);
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
  if (fn > static_cast<uint8_t>(AggFn::kSum)) {
    return Status::NotSupported("scan: unknown aggregate fn");
  }
  out->fn = static_cast<AggFn>(fn);
  if (!GetFixed16(in, &out->field_offset)) {
    return Status::Corruption("scan: truncated aggregate offset");
  }
  return Status::OK();
}

}  // namespace common
}  // namespace socrates
