// RBIO — Remote Block I/O (paper §3.4): the typed request/response
// protocol between Compute nodes and Page Servers, layered on the
// Unified Communication Stack (here: the simulated intra-DC network).
//
// Properties reproduced from the paper's description:
//  * stateless        — every request is self-contained;
//  * strongly typed   — explicit message structs with a wire codec, not
//                       raw byte passing;
//  * versioned        — every frame header carries the protocol version.
//                       Every peer here is built from one tree, so there
//                       is exactly one wire format: a frame stamped with
//                       any other version is rejected as Corruption;
//  * resilient to transient failures — bounded retries with backoff;
//  * QoS support for best replica selection — the client tracks an EWMA
//    of observed latency per endpoint and routes to the fastest healthy
//    replica, failing over on Unavailable.
//
// Messages: GetPageBatch (the §4.4 GetPage@LSN call for N >= 1 pages in
// one frame; a lone miss is a one-entry frame) and ScanRange
// (computation pushdown).
//
// Batched multiplexing: GetPage@LSN is the hottest cross-tier path, and
// every frame pays one full network round trip plus fixed per-request
// CPU. The client therefore runs a per-endpoint-set batcher: concurrent
// misses destined for the same Page Server are queued and packed into
// one kGetPageBatch frame (flushed when max_batch entries are queued, or
// at the next simulator tick when no further miss arrives — so a lone
// miss pays zero extra latency).

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/coding.h"
#include "common/histogram.h"
#include "common/scan_expr.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/cpu.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/page.h"

namespace socrates {
namespace rbio {

inline constexpr uint16_t kProtocolVersion = 5;

enum class MessageType : uint8_t {
  /// Retired single-page and multi-page reads. The values stay reserved
  /// so they are never reused; servers answer them NotSupported like any
  /// other unknown type.
  kGetPage = 1,
  kGetPageRange = 2,
  /// GetPage@LSN for N >= 1 pages: the one page-read message.
  kGetPageBatch = 3,
  kScanRange = 4,
};

/// Peek a frame's type byte without decoding (0 if truncated). Servers
/// dispatch on this instead of try-decoding each format in turn — a
/// failed probe builds an error Status, which is not free.
inline MessageType PeekMessageType(const std::string& frame) {
  return frame.size() >= 3 ? static_cast<MessageType>(frame[2])
                           : static_cast<MessageType>(0);
}

/// GetPage@LSN (§4.4) for N >= 1 pages in one frame — one network round
/// trip however many pages ride in it: [header][u32 n] followed by n
/// entries of [u64 page_id][u64 min_lsn]. Writers build the frame in
/// place (EncodeHeader, then one AppendEntry per page); a decoded request
/// is a view that reads each entry straight from the borrowed bytes.
class GetPageBatchRequest {
 public:
  struct Entry {
    PageId page_id = kInvalidPageId;
    Lsn min_lsn = kInvalidLsn;
  };
  static constexpr size_t kEntryBytes = 16;

  /// View `n` entries laid out as on the wire at `entries`, which must
  /// outlive the view.
  explicit GetPageBatchRequest(const char* entries = nullptr,
                               uint32_t n = 0)
      : entries_(entries), n_(n) {}

  /// Start a frame of `n` entries in `*out` (cleared first, capacity
  /// kept); the caller then appends exactly `n` entries.
  static void EncodeHeader(std::string* out, uint32_t n);
  static void AppendEntry(std::string* out, const Entry& e);
  static std::string Encode(const std::vector<Entry>& entries);
  /// View the entries of `wire`, whose bytes must outlive `*out`.
  static Status Decode(Slice wire, GetPageBatchRequest* out);

  uint32_t size() const { return n_; }
  Entry operator[](size_t i) const {
    const char* p = entries_ + i * kEntryBytes;
    return {DecodeFixed64(p), DecodeFixed64(p + 8)};
  }

 private:
  const char* entries_;
  uint32_t n_;
};

/// Response to a kGetPageBatch frame: per-entry status + page, in
/// request order, after the [u16 version][status] prefix every response
/// format shares. A frame the server could not serve at all (undecodable,
/// unknown type, shed) gets a non-OK status and zero entries.
struct GetPageBatchResponse {
  struct Entry {
    Status status;
    storage::Page page;  // valid iff status.ok()
  };
  Status status;  // overall (transport/protocol-level) status
  std::vector<Entry> entries;

  std::string Encode() const;
  /// Zero-copy decode: the pages alias into `*frame` (sharing ownership)
  /// instead of copying each 8 KiB image. Mutating a decoded page COW-
  /// detaches it, so the frame's bytes are never written through a page.
  /// `out->entries` keeps its capacity, so a reused response decodes
  /// without allocating.
  static Status Decode(std::shared_ptr<const std::string> frame,
                       GetPageBatchResponse* out);
};

/// Computation pushdown: evaluate a predicate + projection (or a partial
/// aggregate) over the key range [start_key, end_key) directly on the
/// Page Server's covering RBPEX, walking leaves from `leaves[0]` at
/// freshness `min_lsn` and snapshot `read_ts`. The server returns
/// qualifying projected tuples (or one partial-aggregate state) instead
/// of raw pages.
struct ScanRangeRequest {
  /// The leaf the range starts on, then the leaves the client expects
  /// the walk to reach after it, in key order (the client reads them off
  /// its cached interior pages; the B+-tree spans partitions, so the
  /// server cannot traverse from the root). The server reads the first
  /// `max_pages` at once before it walks; past `leaves[0]` the list is
  /// only a hint, and sibling links decide the walk.
  std::vector<PageId> leaves;
  uint64_t start_key = 0;
  /// Exclusive; UINT64_MAX scans to the end of the key space.
  uint64_t end_key = UINT64_MAX;
  /// Max qualifying tuples to return (0 = bounded only by max_pages).
  uint32_t limit = 0;
  /// Leaf-page budget per frame; the server stops after this many leaves
  /// and reports a resume point (bounds frame size and service time).
  uint32_t max_pages = 64;
  Lsn min_lsn = kInvalidLsn;
  Timestamp read_ts = 0;
  common::ScanPredicate predicate;
  common::ScanProjection projection;
  common::ScanAggregate aggregate;

  std::string Encode() const;
  void EncodeTo(std::string* out) const;
  static Status Decode(Slice wire, ScanRangeRequest* out);
};

/// kScanRange response, after the format-shared [u16 version][status]
/// prefix.
struct ScanRangeResponse {
  Status status;
  /// True when the whole requested range was evaluated; false means the
  /// client resumes from `resume_key` (budget/limit hit, or a partition
  /// boundary).
  bool complete = false;
  /// The server observed a leaf inconsistent with the requested key
  /// (a §4.5-style split racing log apply): nothing past `resume_key`
  /// was evaluated; the client re-locates the leaf and retries or falls
  /// back to page-based scanning.
  bool fence_miss = false;
  bool aggregated = false;
  uint64_t resume_key = 0;
  common::AggState agg;  // valid iff aggregated
  /// Qualifying projected tuples, in key order. Values alias the decoded
  /// response frame (zero-copy; `owner` keeps it alive).
  struct Tuple {
    uint64_t key = 0;
    Slice value;
  };
  std::vector<Tuple> tuples;
  std::shared_ptr<const std::string> owner;

  std::string Encode() const;
  static Status Decode(std::shared_ptr<const std::string> frame,
                       ScanRangeResponse* out);
};

/// Decode only the format-shared [u16 version][status] prefix every
/// response format starts with, without knowing which request it
/// answers (e.g. a typed error for a frame the server rejected). The
/// fleet gateway does not call it: it classifies the request with
/// PeekMessageType and forwards the response bytes unread.
Status DecodeResponseStatusPrefix(Slice wire, Status* out);

/// Server side of the protocol. Page Servers implement this.
class RbioServer {
 public:
  virtual ~RbioServer() = default;
  /// Handle one encoded request frame; returns the encoded response.
  /// The frame is borrowed: the caller co_awaits the handler to
  /// completion and keeps the bytes alive for the whole call (so the
  /// hot path pays no per-request frame copy).
  virtual sim::Task<Result<std::string>> HandleRbio(
      const std::string& frame) = 0;
};

/// One addressable replica of a partition's server.
struct Endpoint {
  RbioServer* server = nullptr;
  std::string name;
};

struct RbioClientOptions {
  sim::LatencyModel network = sim::DeviceProfile::IntraDcNetwork().read;
  /// Pack up to this many concurrent GetPage misses per endpoint set
  /// into one kGetPageBatch frame. 1 disables multiplexing: every miss
  /// goes out as its own one-entry frame.
  uint32_t max_batch = 16;
  /// How long ScanRange avoids an endpoint set after it replied
  /// kOverloaded (scan admission shed the work). During the window scans
  /// short-circuit to Overloaded without wire traffic and the planner
  /// runs its local plan.
  SimTime overload_backoff_us = 50 * 1000;
  /// Compute <-> Page Server wire bandwidth in MB/s: each leg pays an
  /// extra frame_bytes / bandwidth transfer term on top of the sampled
  /// base latency (1 MB/s == 1 byte/us). 0 charges base latency only,
  /// so frame size never enters simulated time.
  double wire_mb_per_s = 0;
  /// Chaos injection: every frame asks this node's port for a
  /// partition / lossy-link verdict on the link to the target endpoint's
  /// name, and pays any configured link delay. A dropped frame surfaces
  /// as TimedOut after a drop timeout — the normal retry/backoff/QoS
  /// machinery does the rest.
  chaos::SitePort chaos;
};

/// Client side: typed calls, retries, QoS replica selection, batched
/// GetPage multiplexing.
class RbioClient {
 public:
  /// Tries per call (first send plus retries) before the last transient
  /// error is returned.
  static constexpr int kMaxAttempts = 4;

  RbioClient(sim::Simulator& sim, sim::CpuResource* cpu,
             const RbioClientOptions& options, uint64_t seed = 0xb10);

  /// GetPage@LSN against the best replica in `replicas`, sent as an
  /// entry of a kGetPageBatch frame that concurrent calls for the same
  /// endpoint set may share (see RbioClientOptions::max_batch).
  sim::Task<Result<storage::Page>> GetPage(
      const std::vector<Endpoint>& replicas, PageId page_id, Lsn min_lsn);

  /// Computation pushdown: evaluate `req` on the best replica. While the
  /// endpoint set is in its kOverloaded backoff window the call returns
  /// Overloaded without wire traffic, so the planner's local fallback
  /// costs nothing extra.
  sim::Task<Result<ScanRangeResponse>> ScanRange(
      const std::vector<Endpoint>& replicas, const ScanRangeRequest& req);

  uint64_t requests_sent() const { return requests_; }
  uint64_t retries() const { return retries_; }

  // ----- Wire-volume counters (both directions, all message types).
  /// Request-frame bytes put on the wire (each retry attempt counts —
  /// the bytes really were sent).
  uint64_t wire_bytes_sent() const { return wire_bytes_sent_; }
  /// Response-frame bytes received.
  uint64_t wire_bytes_received() const { return wire_bytes_received_; }

  // ----- Pushdown counters.
  /// ScanRange calls made by the planner.
  uint64_t scan_requests() const { return scan_requests_; }
  /// kScanRange frames actually sent (excludes backoff short-circuits).
  uint64_t scans_sent() const { return scans_sent_; }
  /// ScanRange calls resolved Overloaded (server shed the scan, or the
  /// endpoint set is inside its overload-backoff window).
  uint64_t scans_overloaded() const { return scans_overloaded_; }
  /// Qualifying tuples received in ScanRange responses.
  uint64_t scan_tuples_received() const { return scan_tuples_received_; }

  /// Drop every endpoint set's overload backoff. Call on config-epoch
  /// change: after a failover or reseed the endpoint name may now be
  /// served by a different server, whose load the old backoff says
  /// nothing about.
  void ClearScanBackoff() { scan_backoff_until_.clear(); }

  /// Remaining overload-backoff window for an endpoint set, 0 when none.
  /// The key is the concatenated replica names, each followed by '|' —
  /// the same key ScanRange builds internally. All per-endpoint state in
  /// this client (EWMA, batch queues, this backoff) is keyed by endpoint
  /// *name*; in a multi-tenant fleet each tenant's client sees
  /// tenant-prefixed names, so backoff earned by one tenant tripping a
  /// server's admission control is scoped (tenant, endpoint) and never
  /// bleeds into a neighbor's scans against the same physical server.
  SimTime ScanBackoffRemainingUs(const std::string& endpoint_key) const {
    auto it = scan_backoff_until_.find(endpoint_key);
    if (it == scan_backoff_until_.end()) return 0;
    SimTime now = sim_.now();
    return it->second > now ? it->second - now : 0;
  }

  // ----- Batching counters.
  /// kGetPageBatch frames sent (each is one round trip).
  uint64_t batches_sent() const { return batches_sent_; }
  /// GetPage entries carried inside those frames.
  uint64_t batched_pages() const { return batched_pages_; }
  /// Network round trips avoided by multiplexing: each batch of k pages
  /// costs 1 frame instead of k.
  uint64_t round_trips_saved() const {
    return batched_pages_ - batches_sent_;
  }
  /// Sub-requests per batch frame.
  const Histogram& batch_occupancy() const { return batch_occupancy_; }

  /// Zero all request/batching counters and the occupancy histogram so a
  /// bench can measure per-phase deltas on a live client. Does not touch
  /// connection state, EWMA latencies, or queued requests.
  void ResetStats() {
    requests_ = 0;
    retries_ = 0;
    batches_sent_ = 0;
    batched_pages_ = 0;
    scan_requests_ = 0;
    scans_sent_ = 0;
    scans_overloaded_ = 0;
    scan_tuples_received_ = 0;
    wire_bytes_sent_ = 0;
    wire_bytes_received_ = 0;
    batch_occupancy_.Clear();
  }

  /// Observed EWMA latency for an endpoint (0 if never used).
  double EwmaLatencyUs(const std::string& endpoint_name) const;

  ~RbioClient();

 private:
  // One queued GetPage awaiting a batch flush.
  // Nodes are recycled through a free list (AcquirePending /
  // ReleasePending) with a manual refcount — one ref for the queue/flush
  // side plus one for the awaiting rider — so the steady-state hot path
  // performs no allocation.
  struct PendingGet {
    explicit PendingGet(sim::Simulator& sim) : done(sim) {}
    PageId page_id = kInvalidPageId;
    Lsn min_lsn = 0;
    int refs = 0;
    Result<storage::Page> result{Status::Unavailable("pending")};
    sim::Event done;
  };

  // Endpoint sets are shared immutably between the queue and in-flight
  // flush coroutines: refreshing the queue's view swaps the pointer
  // (only when the set actually changed) instead of copying the vector
  // into every detached flush.
  using ReplicaSet = std::shared_ptr<const std::vector<Endpoint>>;

  // Per endpoint-set batch state. Endpoint sets are few (one per
  // partition), so entries live for the client's lifetime.
  struct BatchQueue {
    ReplicaSet replicas;
    std::vector<PendingGet*> pending;
    bool flusher_active = false;
  };

  PendingGet* AcquirePending(PageId page_id, Lsn min_lsn);
  void ReleasePending(PendingGet* entry);

  // Request-frame capacity recycling: RoundtripRaw returns each frame's
  // buffer here when the round trip finishes, so the steady-state encode
  // path never allocates.
  std::string AcquireFrame();
  void ReleaseFrame(std::string&& frame);

  // Response-frame recycling: decoded pages alias into the shared frame,
  // so a frame is reusable once every page decoded from it has died
  // (use_count back to 1). Recycling reuses both the string capacity and
  // the shared_ptr control block.
  std::shared_ptr<std::string> AcquireRespFrame();

  // Pick the healthy endpoint with the lowest EWMA latency; unknown
  // endpoints count as fastest (explore once).
  size_t PickReplica(const std::vector<Endpoint>& replicas,
                     size_t attempt) const;

  // One frame out / one frame back, with retries, backoff and QoS
  // replica selection. Retries on transport errors and on responses
  // whose (format-shared) status prefix is Unavailable/Busy.
  sim::Task<Result<std::string>> RoundtripRaw(
      const std::vector<Endpoint>& replicas, std::string frame,
      SimTime cpu_us);

  // Drains a queue: flushes everything queued this tick, one frame per
  // max_batch entries, each as a detached round trip.
  sim::Task<> BatchFlusher(std::string key);
  // One frame's round trip; hands `batch` back to batch_pool_ when done.
  sim::Task<> FlushBatch(ReplicaSet replicas,
                         std::vector<PendingGet*> batch);

  struct EndpointStats {
    double ewma_us = 0;
    bool seen = false;
  };

  sim::Simulator& sim_;
  sim::CpuResource* cpu_;
  RbioClientOptions opts_;
  mutable Random rng_;

  std::map<std::string, EndpointStats> stats_;
  std::map<std::string, BatchQueue> batch_queues_;
  // Per-endpoint-set end of the kOverloaded scan backoff.
  std::map<std::string, SimTime> scan_backoff_until_;
  std::vector<PendingGet*> pending_pool_;
  // Emptied flush vectors, capacity kept.
  std::vector<std::vector<PendingGet*>> batch_pool_;
  // Decode target of every batch response. Decoding and handing the
  // entries to their riders is one synchronous step, so flushes in
  // flight can share it.
  GetPageBatchResponse decoded_;
  std::vector<std::string> frame_pool_;
  std::vector<std::shared_ptr<std::string>> resp_frame_pool_;
  uint64_t requests_ = 0;
  uint64_t retries_ = 0;
  uint64_t batches_sent_ = 0;
  uint64_t batched_pages_ = 0;
  uint64_t scan_requests_ = 0;
  uint64_t scans_sent_ = 0;
  uint64_t scans_overloaded_ = 0;
  uint64_t scan_tuples_received_ = 0;
  uint64_t wire_bytes_sent_ = 0;
  uint64_t wire_bytes_received_ = 0;
  Histogram batch_occupancy_;
};

}  // namespace rbio
}  // namespace socrates
