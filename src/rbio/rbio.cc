#include "rbio/rbio.h"

#include <algorithm>

namespace socrates {
namespace rbio {

namespace {

// Every frame, request or response, starts with the u16 protocol
// version. All peers share one wire format, so any other value means
// the bytes are not an RBIO frame of this build.
Status GetVersion(Slice* in) {
  uint16_t version;
  if (!GetFixed16(in, &version)) {
    return Status::Corruption("rbio: truncated header");
  }
  if (version != kProtocolVersion) {
    return Status::Corruption("rbio: foreign protocol version");
  }
  return Status::OK();
}

// Request header: [u16 version][u8 type].
void PutHeader(std::string* out, MessageType type) {
  PutFixed16(out, kProtocolVersion);
  out->push_back(static_cast<char>(type));
}

Status GetHeader(Slice* in, MessageType want, const char* wrong_type) {
  SOCRATES_RETURN_IF_ERROR(GetVersion(in));
  if (in->empty()) return Status::Corruption("rbio: missing type");
  auto type = static_cast<MessageType>((*in)[0]);
  in->remove_prefix(1);
  if (type != want) return Status::InvalidArgument(wrong_type);
  return Status::OK();
}

// Status wire codec shared by every response format: [u8 code][msg].
void PutStatus(std::string* out, const Status& status) {
  out->push_back(static_cast<char>(status.code()));
  PutLengthPrefixed(out, Slice(status.message()));
}

// The [u16 version][status] prefix every response format starts with.
void PutResponsePrefix(std::string* out, const Status& status) {
  PutFixed16(out, kProtocolVersion);
  PutStatus(out, status);
}

// Codes a client does not act on arrive as IOError. With `owner`, the
// frame `in` points into, the message is borrowed from the frame rather
// than copied: a not-found entry then costs no allocation, like a found
// one (the frame stays alive while the status does).
Status GetStatus(Slice* in, Status* out,
                 const std::shared_ptr<const std::string>* owner) {
  if (in->empty()) return Status::Corruption("rbio: missing status");
  auto code = static_cast<Status::Code>((*in)[0]);
  in->remove_prefix(1);
  Slice msg;
  if (!GetLengthPrefixed(in, &msg)) {
    return Status::Corruption("rbio: truncated status message");
  }
  switch (code) {
    case Status::Code::kOk:
      *out = Status::OK();
      return Status::OK();
    case Status::Code::kNotFound:
    case Status::Code::kCorruption:
    case Status::Code::kInvalidArgument:
    case Status::Code::kUnavailable:
    case Status::Code::kNotSupported:
    case Status::Code::kOverloaded:
      break;
    default:
      code = Status::Code::kIOError;
      break;
  }
  *out = owner != nullptr ? Status::FromCode(code, msg.ToView(), *owner)
                          : Status::FromCode(code, msg.ToView());
  return Status::OK();
}

// The retry loop peeks this shared prefix to classify transient
// failures without knowing which response format the frame carries.
Status PeekResponseStatus(Slice wire, Status* out) {
  SOCRATES_RETURN_IF_ERROR(GetVersion(&wire));
  return GetStatus(&wire, out, nullptr);
}

// Code-only variant for the retry loop's transient check: reads the code
// byte without materializing the message string (error messages exceed
// SSO, so the full peek allocates on every error response).
Status PeekResponseStatusCode(Slice wire, Status::Code* out) {
  SOCRATES_RETURN_IF_ERROR(GetVersion(&wire));
  if (wire.empty()) return Status::Corruption("rbio: missing status");
  *out = static_cast<Status::Code>(wire[0]);
  return Status::OK();
}

void PutPageImage(std::string* out, const storage::Page& page) {
  out->append(page.data(), kPageSize);
}

// The decoded page aliases into `owner`'s buffer (zero-copy).
Status GetPageImage(Slice* in,
                    const std::shared_ptr<const std::string>& owner,
                    storage::Page* out) {
  if (in->size() < kPageSize) {
    return Status::Corruption("rbio: truncated page image");
  }
  *out = storage::Page::Alias(owner, in->data());
  in->remove_prefix(kPageSize);
  return Status::OK();
}

// Reads a u32 element count and rejects it unless `min_bytes` per
// element could still follow: a corrupt count must not size an
// allocation.
Status GetCount(Slice* in, size_t min_bytes, uint32_t* n) {
  if (!GetFixed32(in, n)) return Status::Corruption("rbio: truncated count");
  if (*n > in->size() / min_bytes) {
    return Status::Corruption("rbio: count exceeds frame");
  }
  return Status::OK();
}

// Minimum encoded size of a batch response entry: [u8 code][u32 message
// length][u8 has_page].
constexpr size_t kMinBatchResponseEntryBytes = 6;
// Minimum encoded size of a scan tuple: [u64 key][u32 value length].
constexpr size_t kMinScanTupleBytes = 12;

}  // namespace

Status DecodeResponseStatusPrefix(Slice wire, Status* out) {
  return PeekResponseStatus(wire, out);
}

void GetPageBatchRequest::EncodeHeader(std::string* out, uint32_t n) {
  out->clear();
  out->reserve(2 + 1 + 4 + n * kEntryBytes);
  PutHeader(out, MessageType::kGetPageBatch);
  PutFixed32(out, n);
}

void GetPageBatchRequest::AppendEntry(std::string* out, const Entry& e) {
  PutFixed64(out, e.page_id);
  PutFixed64(out, e.min_lsn);
}

std::string GetPageBatchRequest::Encode(const std::vector<Entry>& entries) {
  std::string out;
  EncodeHeader(&out, static_cast<uint32_t>(entries.size()));
  for (const Entry& e : entries) AppendEntry(&out, e);
  return out;
}

Status GetPageBatchRequest::Decode(Slice wire, GetPageBatchRequest* out) {
  SOCRATES_RETURN_IF_ERROR(GetHeader(&wire, MessageType::kGetPageBatch,
                                     "rbio: not a GetPageBatch request"));
  uint32_t n = 0;
  SOCRATES_RETURN_IF_ERROR(GetCount(&wire, kEntryBytes, &n));
  *out = GetPageBatchRequest(wire.data(), n);
  return Status::OK();
}

std::string GetPageBatchResponse::Encode() const {
  std::string out;
  // One exact-size allocation instead of append-growth reallocs.
  size_t size = 2 + 1 + 4 + status.message().size() + 4;
  for (const Entry& e : entries) {
    size += kMinBatchResponseEntryBytes + e.status.message().size() +
            (e.status.ok() ? kPageSize : 0);
  }
  out.reserve(size);
  PutResponsePrefix(&out, status);
  PutFixed32(&out, static_cast<uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    PutStatus(&out, e.status);
    out.push_back(e.status.ok() ? 1 : 0);
    if (e.status.ok()) PutPageImage(&out, e.page);
  }
  return out;
}

Status GetPageBatchResponse::Decode(std::shared_ptr<const std::string> frame,
                                    GetPageBatchResponse* out) {
  Slice wire(*frame);
  out->entries.clear();
  SOCRATES_RETURN_IF_ERROR(GetVersion(&wire));
  SOCRATES_RETURN_IF_ERROR(GetStatus(&wire, &out->status, &frame));
  uint32_t n = 0;
  SOCRATES_RETURN_IF_ERROR(GetCount(&wire, kMinBatchResponseEntryBytes, &n));
  out->entries.resize(n);
  for (Entry& e : out->entries) {
    SOCRATES_RETURN_IF_ERROR(GetStatus(&wire, &e.status, &frame));
    if (wire.empty()) {
      return Status::Corruption("rbio: truncated batch entry");
    }
    bool has_page = wire[0] != 0;
    wire.remove_prefix(1);
    if (has_page) {
      SOCRATES_RETURN_IF_ERROR(GetPageImage(&wire, frame, &e.page));
    }
  }
  return Status::OK();
}

std::string ScanRangeRequest::Encode() const {
  std::string out;
  EncodeTo(&out);
  return out;
}

void ScanRangeRequest::EncodeTo(std::string* out) const {
  out->clear();
  PutHeader(out, MessageType::kScanRange);
  PutFixed32(out, static_cast<uint32_t>(leaves.size()));
  for (PageId id : leaves) PutFixed64(out, id);
  PutFixed64(out, start_key);
  PutFixed64(out, end_key);
  PutFixed32(out, limit);
  PutFixed32(out, max_pages);
  PutFixed64(out, min_lsn);
  PutFixed64(out, read_ts);
  common::EncodePredicate(out, predicate);
  common::EncodeProjection(out, projection);
  common::EncodeAggregate(out, aggregate);
}

Status ScanRangeRequest::Decode(Slice wire, ScanRangeRequest* out) {
  SOCRATES_RETURN_IF_ERROR(GetHeader(&wire, MessageType::kScanRange,
                                     "rbio: not a ScanRange request"));
  uint32_t n = 0;
  SOCRATES_RETURN_IF_ERROR(GetCount(&wire, sizeof(PageId), &n));
  out->leaves.resize(n);
  for (PageId& id : out->leaves) GetFixed64(&wire, &id);  // fits: GetCount
  if (!GetFixed64(&wire, &out->start_key) ||
      !GetFixed64(&wire, &out->end_key) || !GetFixed32(&wire, &out->limit) ||
      !GetFixed32(&wire, &out->max_pages) ||
      !GetFixed64(&wire, &out->min_lsn) ||
      !GetFixed64(&wire, &out->read_ts)) {
    return Status::Corruption("rbio: truncated ScanRange request");
  }
  SOCRATES_RETURN_IF_ERROR(common::DecodePredicate(&wire, &out->predicate));
  SOCRATES_RETURN_IF_ERROR(
      common::DecodeProjection(&wire, &out->projection));
  return common::DecodeAggregate(&wire, &out->aggregate);
}

std::string ScanRangeResponse::Encode() const {
  std::string out;
  size_t tuple_bytes = 0;
  for (const Tuple& t : tuples) tuple_bytes += 12 + t.value.size();
  out.reserve(2 + 1 + 5 + status.message().size() + 9 +
              (aggregated ? 16 : 4 + tuple_bytes));
  PutResponsePrefix(&out, status);
  uint8_t flags = (complete ? 1u : 0u) | (fence_miss ? 2u : 0u) |
                  (aggregated ? 4u : 0u);
  out.push_back(static_cast<char>(flags));
  PutFixed64(&out, resume_key);
  if (aggregated) {
    PutFixed64(&out, agg.rows);
    PutFixed64(&out, agg.value);
  } else {
    PutFixed32(&out, static_cast<uint32_t>(tuples.size()));
    for (const Tuple& t : tuples) {
      PutFixed64(&out, t.key);
      PutLengthPrefixed(&out, t.value);
    }
  }
  return out;
}

Status ScanRangeResponse::Decode(std::shared_ptr<const std::string> frame,
                                 ScanRangeResponse* out) {
  Slice wire(*frame);
  SOCRATES_RETURN_IF_ERROR(GetVersion(&wire));
  SOCRATES_RETURN_IF_ERROR(GetStatus(&wire, &out->status, &frame));
  // Error responses carry no body.
  if (!out->status.ok()) return Status::OK();
  if (wire.empty()) return Status::Corruption("rbio: truncated scan flags");
  uint8_t flags = static_cast<uint8_t>(wire[0]);
  wire.remove_prefix(1);
  out->complete = (flags & 1) != 0;
  out->fence_miss = (flags & 2) != 0;
  out->aggregated = (flags & 4) != 0;
  if (!GetFixed64(&wire, &out->resume_key)) {
    return Status::Corruption("rbio: truncated scan response");
  }
  out->tuples.clear();
  if (out->aggregated) {
    if (!GetFixed64(&wire, &out->agg.rows) ||
        !GetFixed64(&wire, &out->agg.value)) {
      return Status::Corruption("rbio: truncated scan aggregate");
    }
    return Status::OK();
  }
  uint32_t n = 0;
  SOCRATES_RETURN_IF_ERROR(GetCount(&wire, kMinScanTupleBytes, &n));
  out->tuples.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    Tuple t;
    if (!GetFixed64(&wire, &t.key) || !GetLengthPrefixed(&wire, &t.value)) {
      return Status::Corruption("rbio: truncated scan tuple");
    }
    out->tuples.push_back(t);
  }
  out->owner = std::move(frame);  // tuple values alias the frame
  return Status::OK();
}

// Client CPU per request frame, and the amortized CPU for each batched
// sub-request beyond the first (the frame pays kCpuPerRequestUs once).
constexpr SimTime kCpuPerRequestUs = 8;
constexpr SimTime kCpuPerBatchedPageUs = 1;
// Client CPU per KiB of pushdown result decoded: tuple frames are
// variable-size, unlike the fixed 8 KiB page frames whose decode
// kCpuPerRequestUs already amortizes.
constexpr double kCpuPerResultKbUs = 2.0;
// Retry backoff, scaled by the attempt number.
constexpr SimTime kRetryBackoffUs = 2000;
// A frame the chaos hub drops surfaces as TimedOut after this long.
constexpr SimTime kDropTimeoutUs = 5000;
// EWMA smoothing for per-endpoint latency (QoS replica selection).
constexpr double kEwmaAlpha = 0.2;

RbioClient::RbioClient(sim::Simulator& sim, sim::CpuResource* cpu,
                       const RbioClientOptions& options, uint64_t seed)
    : sim_(sim), cpu_(cpu), opts_(options), rng_(seed) {}

RbioClient::~RbioClient() {
  for (PendingGet* e : pending_pool_) delete e;
  // Queued-but-unflushed entries can only exist if the simulator was
  // abandoned mid-request; their rider coroutines can never resume, so
  // reclaiming the nodes here is safe.
  for (auto& [key, q] : batch_queues_) {
    for (PendingGet* e : q.pending) delete e;
  }
}

RbioClient::PendingGet* RbioClient::AcquirePending(PageId page_id,
                                                   Lsn min_lsn) {
  // Interned: copying a Status is a refcount bump, so re-arming a
  // recycled node allocates nothing.
  static const Status kPending = Status::Unavailable("pending");
  PendingGet* e;
  if (!pending_pool_.empty()) {
    e = pending_pool_.back();
    pending_pool_.pop_back();
    e->done.Reset();
    e->result = Result<storage::Page>(kPending);
  } else {
    e = new PendingGet(sim_);
  }
  e->page_id = page_id;
  e->min_lsn = min_lsn;
  e->refs = 1;  // the queue/flush side's reference
  return e;
}

void RbioClient::ReleasePending(PendingGet* entry) {
  if (--entry->refs == 0) pending_pool_.push_back(entry);
}

std::string RbioClient::AcquireFrame() {
  if (frame_pool_.empty()) return std::string();
  std::string f = std::move(frame_pool_.back());
  frame_pool_.pop_back();
  return f;
}

void RbioClient::ReleaseFrame(std::string&& frame) {
  if (frame_pool_.size() < 16) {
    frame.clear();  // keep capacity
    frame_pool_.push_back(std::move(frame));
  }
}

std::shared_ptr<std::string> RbioClient::AcquireRespFrame() {
  // An entry is recyclable once only the pool holds it — every page that
  // aliased into it has died. Long-cached pages pin their frames; the
  // pool is bounded so pinned entries cost at most
  // 32 * sizeof(response) and overflow falls back to a fresh allocation.
  for (const std::shared_ptr<std::string>& sp : resp_frame_pool_) {
    if (sp.use_count() == 1) return sp;
  }
  if (resp_frame_pool_.size() < 32) {
    resp_frame_pool_.push_back(std::make_shared<std::string>());
    return resp_frame_pool_.back();
  }
  return std::make_shared<std::string>();
}

size_t RbioClient::PickReplica(const std::vector<Endpoint>& replicas,
                               size_t attempt) const {
  if (replicas.size() == 1) return 0;
  // Retries rotate deterministically past the first choice.
  size_t best = 0;
  double best_lat = -1;
  for (size_t i = 0; i < replicas.size(); i++) {
    auto it = stats_.find(replicas[i].name);
    double lat = (it == stats_.end() || !it->second.seen)
                     ? 0.0  // unexplored endpoints get a chance
                     : it->second.ewma_us;
    if (best_lat < 0 || lat < best_lat) {
      best_lat = lat;
      best = i;
    }
  }
  return (best + attempt) % replicas.size();
}

sim::Task<Result<std::string>> RbioClient::RoundtripRaw(
    const std::vector<Endpoint>& replicas, std::string frame,
    SimTime cpu_us) {
  static const Status kNoEndpoints = Status::Unavailable("no endpoints");
  Status last = kNoEndpoints;
  for (int attempt = 0; attempt < kMaxAttempts; attempt++) {
    if (replicas.empty()) break;
    if (attempt > 0) {
      retries_++;
      co_await sim::Delay(sim_, kRetryBackoffUs * attempt);
    }
    const Endpoint& ep = replicas[PickReplica(replicas, attempt)];
    requests_++;
    wire_bytes_sent_ += frame.size();  // retried frames really were sent
    if (cpu_ != nullptr) co_await cpu_->Consume(cpu_us);
    SimTime begin = sim_.now();
    if (opts_.chaos.DropTo(ep.name)) {
      // Request or response lost on the wire (partition / lossy link):
      // the call times out and the retry loop takes over.
      co_await sim::Delay(sim_,
                          opts_.network.Sample(rng_) + kDropTimeoutUs);
      last = Status::TimedOut("rbio: frame lost");
      continue;
    }
    const SimTime link_delay = opts_.chaos.LinkDelayUs(ep.name);
    // A configured wire bandwidth adds a size-proportional transfer term
    // per leg; the default (0) keeps base-latency-only timing.
    SimTime xfer_out =
        opts_.wire_mb_per_s > 0
            ? static_cast<SimTime>(static_cast<double>(frame.size()) /
                                   opts_.wire_mb_per_s)
            : 0;
    co_await sim::Delay(sim_, opts_.network.Sample(rng_) + link_delay +
                                  xfer_out);
    Result<std::string> raw = co_await ep.server->HandleRbio(frame);
    SimTime xfer_in = 0;
    if (raw.ok()) {
      wire_bytes_received_ += raw->size();
      if (opts_.wire_mb_per_s > 0) {
        xfer_in = static_cast<SimTime>(static_cast<double>(raw->size()) /
                                       opts_.wire_mb_per_s);
      }
    }
    co_await sim::Delay(sim_, opts_.network.Sample(rng_) + link_delay +
                                  xfer_in);
    double elapsed = static_cast<double>(sim_.now() - begin);
    EndpointStats& st = stats_[ep.name];
    st.ewma_us = st.seen
                     ? st.ewma_us * (1 - kEwmaAlpha) + elapsed * kEwmaAlpha
                     : elapsed;
    st.seen = true;
    if (!raw.ok()) {
      last = raw.status();
      if (last.IsUnavailable() || last.IsTimedOut() || last.IsBusy()) {
        continue;  // transient: retry (possibly on another replica)
      }
      ReleaseFrame(std::move(frame));
      co_return Result<std::string>(last);
    }
    Status::Code resp_code;
    Status ps = PeekResponseStatusCode(Slice(*raw), &resp_code);
    if (!ps.ok()) {
      ReleaseFrame(std::move(frame));
      co_return Result<std::string>(ps);
    }
    if (resp_code == Status::Code::kUnavailable) {
      // Transient: materialize the full status only on this rare path,
      // then retry (possibly on another replica).
      Status resp_status;
      (void)PeekResponseStatus(Slice(*raw), &resp_status);
      last = resp_status;
      continue;
    }
    ReleaseFrame(std::move(frame));
    co_return std::move(*raw);
  }
  ReleaseFrame(std::move(frame));
  co_return Result<std::string>(last);
}

sim::Task<Result<storage::Page>> RbioClient::GetPage(
    const std::vector<Endpoint>& replicas, PageId page_id, Lsn min_lsn) {
  static const Status kNoEndpoints = Status::Unavailable("no endpoints");
  if (replicas.empty()) co_return Result<storage::Page>(kNoEndpoints);
  std::string key;
  for (const Endpoint& ep : replicas) {
    key += ep.name;
    key += '|';
  }
  BatchQueue& q = batch_queues_[key];
  PendingGet* entry = AcquirePending(page_id, min_lsn);
  // Refresh to the callers' latest view — swapping the shared set only
  // when it actually changed, so the steady state stays allocation-free.
  bool same = q.replicas != nullptr && q.replicas->size() == replicas.size();
  if (same) {
    for (size_t i = 0; i < replicas.size(); i++) {
      if ((*q.replicas)[i].server != replicas[i].server ||
          (*q.replicas)[i].name != replicas[i].name) {
        same = false;
        break;
      }
    }
  }
  if (!same) {
    q.replicas = std::make_shared<const std::vector<Endpoint>>(replicas);
  }
  q.pending.push_back(entry);
  if (!q.flusher_active) {
    q.flusher_active = true;
    sim::Spawn(sim_, BatchFlusher(key));
  }
  entry->refs++;  // this rider
  co_await entry->done.Wait();
  Result<storage::Page> result = entry->result;
  ReleasePending(entry);
  co_return std::move(result);
}

sim::Task<> RbioClient::BatchFlusher(std::string key) {
  // Adaptive window: give misses issued at the same virtual instant one
  // simulator tick to pile up, then flush. The tick is zero virtual
  // time, so a lone miss pays no extra latency for the window.
  co_await sim::Yield(sim_);
  BatchQueue& q = batch_queues_[key];
  while (!q.pending.empty()) {
    // max_batch 0 means 1: a frame carries at least one page.
    size_t n = std::min<size_t>(q.pending.size(),
                                std::max<uint32_t>(opts_.max_batch, 1));
    std::vector<PendingGet*> batch;
    if (!batch_pool_.empty()) {
      batch = std::move(batch_pool_.back());
      batch_pool_.pop_back();
    }
    batch.assign(q.pending.begin(), q.pending.begin() + n);
    q.pending.erase(q.pending.begin(), q.pending.begin() + n);
    // Detached: bursts above max_batch go out as several concurrent
    // frames rather than serializing round trips.
    sim::Spawn(sim_, FlushBatch(q.replicas, std::move(batch)));
  }
  q.flusher_active = false;
}

sim::Task<> RbioClient::FlushBatch(ReplicaSet replicas,
                                   std::vector<PendingGet*> batch) {
  batches_sent_++;
  batched_pages_ += batch.size();
  batch_occupancy_.Add(static_cast<double>(batch.size()));
  // One round trip pays the fixed per-request CPU once; each extra
  // entry costs only the amortized marshalling share.
  SimTime cpu_us =
      kCpuPerRequestUs + (batch.size() - 1) * kCpuPerBatchedPageUs;
  std::string reqframe = AcquireFrame();
  GetPageBatchRequest::EncodeHeader(&reqframe,
                                    static_cast<uint32_t>(batch.size()));
  for (const PendingGet* e : batch) {
    GetPageBatchRequest::AppendEntry(&reqframe, {e->page_id, e->min_lsn});
  }
  Result<std::string> raw =
      co_await RoundtripRaw(*replicas, std::move(reqframe), cpu_us);
  // From here to the end nothing suspends, so decoded_ is this flush's
  // alone.
  GetPageBatchResponse& resp = decoded_;
  Status ds = raw.status();
  if (raw.ok()) {
    std::shared_ptr<std::string> fp = AcquireRespFrame();
    *fp = std::move(*raw);
    ds = GetPageBatchResponse::Decode(fp, &resp);
  }
  if (ds.ok() && resp.status.ok() &&
      resp.entries.size() != batch.size()) {
    ds = Status::Corruption("rbio: batch response entry count mismatch");
  }
  for (size_t i = 0; i < batch.size(); i++) {
    if (!ds.ok()) {
      batch[i]->result = Result<storage::Page>(ds);
    } else if (!resp.status.ok()) {
      batch[i]->result = Result<storage::Page>(resp.status);
    } else {
      GetPageBatchResponse::Entry& re = resp.entries[i];
      if (!re.status.ok()) {
        batch[i]->result = Result<storage::Page>(re.status);
      } else if (Status cs = re.page.VerifyChecksum(); !cs.ok()) {
        batch[i]->result = Result<storage::Page>(cs);
      } else if (re.page.page_id() != batch[i]->page_id) {
        batch[i]->result = Result<storage::Page>(
            Status::Corruption("rbio: wrong page in batch response"));
      } else {
        batch[i]->result = Result<storage::Page>(std::move(re.page));
      }
    }
    batch[i]->done.Set();
    ReleasePending(batch[i]);
  }
  // Drop the pages that were not handed out, so the pooled response
  // frame they alias can be recycled.
  resp.entries.clear();
  batch.clear();
  batch_pool_.push_back(std::move(batch));
}

sim::Task<Result<ScanRangeResponse>> RbioClient::ScanRange(
    const std::vector<Endpoint>& replicas, const ScanRangeRequest& req) {
  static const Status kNoEndpoints = Status::Unavailable("no endpoints");
  static const Status kBackedOff =
      Status::Overloaded("rbio: endpoint in overload backoff");
  scan_requests_++;
  if (replicas.empty()) co_return Result<ScanRangeResponse>(kNoEndpoints);
  std::string key;
  for (const Endpoint& ep : replicas) {
    key += ep.name;
    key += '|';
  }
  auto backoff = scan_backoff_until_.find(key);
  if (backoff != scan_backoff_until_.end() && backoff->second > sim_.now()) {
    // The set shed a scan recently (kOverloaded): stay off it until the
    // backoff expires.
    scans_overloaded_++;
    co_return Result<ScanRangeResponse>(kBackedOff);
  }
  scans_sent_++;
  std::string frame = AcquireFrame();
  req.EncodeTo(&frame);
  Result<std::string> raw = co_await RoundtripRaw(
      replicas, std::move(frame), kCpuPerRequestUs);
  if (!raw.ok()) co_return Result<ScanRangeResponse>(raw.status());
  ScanRangeResponse resp;
  std::shared_ptr<std::string> fp = AcquireRespFrame();
  *fp = std::move(*raw);
  Status ds = ScanRangeResponse::Decode(fp, &resp);
  if (!ds.ok()) co_return Result<ScanRangeResponse>(ds);
  if (resp.status.IsOverloaded()) {
    // Scan admission shed the work: back off this endpoint set for a
    // while and fall back locally for this scan. Point reads (GetPage)
    // are unaffected — that is the entire point of admission. Looked up
    // again: a config-epoch change may have cleared the map while the
    // frame was in flight.
    scan_backoff_until_[key] = sim_.now() + opts_.overload_backoff_us;
    scans_overloaded_++;
    co_return Result<ScanRangeResponse>(resp.status);
  }
  if (!resp.status.ok()) co_return Result<ScanRangeResponse>(resp.status);
  scan_tuples_received_ += resp.tuples.size();
  // Tuple frames are variable-size, so decode CPU scales with the bytes
  // actually shipped (fixed-size page frames amortize this into
  // kCpuPerRequestUs instead).
  if (cpu_ != nullptr && !resp.tuples.empty()) {
    size_t bytes = 0;
    for (const ScanRangeResponse::Tuple& t : resp.tuples) {
      bytes += 8 + t.value.size();
    }
    auto us = static_cast<SimTime>(kCpuPerResultKbUs *
                                   static_cast<double>(bytes) / 1024.0);
    if (us > 0) co_await cpu_->Consume(us);
  }
  co_return std::move(resp);
}

double RbioClient::EwmaLatencyUs(const std::string& endpoint_name) const {
  auto it = stats_.find(endpoint_name);
  return it == stats_.end() ? 0.0 : it->second.ewma_us;
}

}  // namespace rbio
}  // namespace socrates
