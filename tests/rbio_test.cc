// RBIO protocol tests (§3.4): codec round trips, the single wire format,
// transient-failure retries, QoS replica selection, batching, and the
// end-to-end path through a real Page Server.

#include <gtest/gtest.h>

#include "rbio/rbio.h"
#include "service/deployment.h"

namespace socrates {
namespace rbio {
namespace {

using sim::Simulator;
using sim::Spawn;
using sim::Task;

Task<> Wrap(Task<> inner, bool* done) {
  co_await std::move(inner);
  *done = true;
}

template <typename Fn>
void RunSim(Simulator& s, Fn&& fn) {
  bool done = false;
  Spawn(s, Wrap(fn(), &done));
  while (!done && s.Step()) {
  }
  ASSERT_TRUE(done);
}

// ------------------------------------------------------------------ codec

TEST(RbioCodecTest, GetPageRoundTrip) {
  // A lone miss is a one-entry GetPageBatch frame; building it entry by
  // entry gives the same bytes as encoding the whole list.
  const std::string wire = GetPageBatchRequest::Encode({{42, 123456}});
  std::string built;
  GetPageBatchRequest::EncodeHeader(&built, 1);
  GetPageBatchRequest::AppendEntry(&built, {42, 123456});
  EXPECT_EQ(built, wire);
  EXPECT_EQ(PeekMessageType(wire), MessageType::kGetPageBatch);
  GetPageBatchRequest out;
  ASSERT_TRUE(GetPageBatchRequest::Decode(Slice(wire), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].page_id, 42u);
  EXPECT_EQ(out[0].min_lsn, 123456u);
}

TEST(RbioCodecTest, TypeConfusionRejected) {
  ScanRangeRequest scan;
  scan.leaves = {1};
  GetPageBatchRequest get;
  EXPECT_TRUE(GetPageBatchRequest::Decode(Slice(scan.Encode()), &get)
                  .IsInvalidArgument());
  EXPECT_TRUE(ScanRangeRequest::Decode(
                  Slice(GetPageBatchRequest::Encode({{1, 1}})), &scan)
                  .IsInvalidArgument());
}

TEST(RbioCodecTest, ForeignVersionRejected) {
  // One wire format: a frame stamped with any other protocol version is
  // not a frame of this build, in either direction.
  const std::string wire = GetPageBatchRequest::Encode({{1, 0}});
  GetPageBatchRequest out;
  for (uint16_t v : {uint16_t{0}, uint16_t{kProtocolVersion - 1},
                     uint16_t{kProtocolVersion + 1}}) {
    std::string foreign = wire;
    foreign[0] = static_cast<char>(v & 0xff);
    foreign[1] = static_cast<char>(v >> 8);
    EXPECT_TRUE(
        GetPageBatchRequest::Decode(Slice(foreign), &out).IsCorruption())
        << v;
  }
  std::string resp = GetPageBatchResponse{Status::OK(), {}}.Encode();
  resp[0] ^= 0x01;
  Status prefix;
  EXPECT_TRUE(DecodeResponseStatusPrefix(Slice(resp), &prefix).IsCorruption());
}

TEST(RbioCodecTest, ResponseRoundTripWithPages) {
  GetPageBatchResponse resp{Status::OK(), {}};
  resp.entries.push_back({Status::OK(), storage::Page()});
  resp.entries[0].page.Format(9, storage::PageType::kBTreeLeaf);
  resp.entries[0].page.UpdateChecksum();
  auto frame = std::make_shared<const std::string>(resp.Encode());
  GetPageBatchResponse out;
  ASSERT_TRUE(GetPageBatchResponse::Decode(frame, &out).ok());
  EXPECT_TRUE(out.status.ok());
  ASSERT_EQ(out.entries.size(), 1u);
  EXPECT_TRUE(out.entries[0].status.ok());
  EXPECT_EQ(out.entries[0].page.page_id(), 9u);
  EXPECT_TRUE(out.entries[0].page.VerifyChecksum().ok());
  // Zero-copy: the page aliases the frame.
  EXPECT_EQ(out.entries[0].page.cdata(),
            frame->data() + frame->size() - kPageSize);
}

TEST(RbioCodecTest, ErrorStatusSurvivesWire) {
  auto frame = std::make_shared<const std::string>(
      GetPageBatchResponse{Status::NotFound("no such page"), {}}.Encode());
  GetPageBatchResponse out;
  ASSERT_TRUE(GetPageBatchResponse::Decode(frame, &out).ok());
  EXPECT_TRUE(out.status.IsNotFound());
  EXPECT_EQ(out.status.message(), "no such page");
  EXPECT_TRUE(out.entries.empty());
  // A server's Corruption arrives as Corruption, not a generic IOError.
  auto bad = std::make_shared<const std::string>(
      GetPageBatchResponse{Status::Corruption("bad chain"), {}}.Encode());
  ASSERT_TRUE(GetPageBatchResponse::Decode(bad, &out).ok());
  EXPECT_TRUE(out.status.IsCorruption()) << out.status.ToString();
}

TEST(RbioCodecTest, ZeroEntryErrorResponseKeepsItsLayout) {
  // A frame the server cannot serve, or the fleet gateway sheds, is
  // answered [u16 version][u8 code][u32 len][message][u32 0]: the shared
  // response prefix plus an entry count of zero.
  const Status shed = Status::Overloaded("gateway: host serving interactive");
  std::string expect;
  PutFixed16(&expect, kProtocolVersion);
  expect.push_back(static_cast<char>(Status::Code::kOverloaded));
  PutFixed32(&expect, static_cast<uint32_t>(shed.message().size()));
  expect += shed.message();
  PutFixed32(&expect, 0);
  EXPECT_EQ((GetPageBatchResponse{shed, {}}.Encode()), expect);
}

TEST(RbioCodecTest, TruncatedFramesRejected) {
  const std::string wire = GetPageBatchRequest::Encode({{7, 3}});
  GetPageBatchRequest out;
  for (size_t cut = 0; cut < wire.size(); cut++) {
    EXPECT_FALSE(
        GetPageBatchRequest::Decode(Slice(wire.data(), cut), &out).ok())
        << cut;
  }
  GetPageBatchResponse resp{Status::OK(), {}};
  resp.entries.push_back({Status::OK(), storage::Page()});
  resp.entries[0].page.Format(7, storage::PageType::kBTreeLeaf);
  const std::string rwire = resp.Encode();
  GetPageBatchResponse rout;
  for (size_t cut = 0; cut < rwire.size(); cut++) {
    auto frame = std::make_shared<const std::string>(rwire.substr(0, cut));
    EXPECT_FALSE(GetPageBatchResponse::Decode(frame, &rout).ok()) << cut;
  }
}

TEST(RbioCodecTest, CountsBeyondTheFrameAreCorruption) {
  // A count the remaining bytes cannot hold is rejected before it sizes
  // anything: a 7-byte frame claiming 2^32 - 1 entries is Corruption,
  // not a 64 GiB allocation.
  std::string req;
  PutFixed16(&req, kProtocolVersion);
  req.push_back(static_cast<char>(MessageType::kGetPageBatch));
  PutFixed32(&req, UINT32_MAX);
  ASSERT_EQ(req.size(), 7u);
  GetPageBatchRequest get;
  EXPECT_TRUE(GetPageBatchRequest::Decode(Slice(req), &get).IsCorruption());

  std::string resp;
  PutFixed16(&resp, kProtocolVersion);
  resp.push_back(static_cast<char>(Status::Code::kOk));
  PutFixed32(&resp, 0);
  PutFixed32(&resp, UINT32_MAX);
  GetPageBatchResponse pages;
  EXPECT_TRUE(GetPageBatchResponse::Decode(
                  std::make_shared<const std::string>(resp), &pages)
                  .IsCorruption());

  ScanRangeRequest range;
  range.leaves = {5};
  std::string leaves = range.Encode();
  EncodeFixed32(&leaves[3], UINT32_MAX);  // the count after the header
  Status ls = ScanRangeRequest::Decode(Slice(leaves), &range);
  EXPECT_TRUE(ls.IsCorruption()) << ls.ToString();
  EXPECT_EQ(ls.message(), "rbio: count exceeds frame");

  ScanRangeResponse scan;
  scan.status = Status::OK();
  std::string tuples = scan.Encode();  // ends in a u32 tuple count of 0
  EncodeFixed32(&tuples[tuples.size() - 4], UINT32_MAX);
  ScanRangeResponse scan_out;
  EXPECT_TRUE(ScanRangeResponse::Decode(
                  std::make_shared<const std::string>(tuples), &scan_out)
                  .IsCorruption());
}

TEST(RbioCodecTest, BatchRequestRoundTrip) {
  std::string wire =
      GetPageBatchRequest::Encode({{11, 100}, {22, 0}, {33, 999999}});
  GetPageBatchRequest out;
  ASSERT_TRUE(GetPageBatchRequest::Decode(Slice(wire), &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].page_id, 11u);
  EXPECT_EQ(out[0].min_lsn, 100u);
  EXPECT_EQ(out[2].min_lsn, 999999u);
  // Truncations anywhere are rejected, never mis-read.
  for (size_t cut = 0; cut < wire.size(); cut++) {
    EXPECT_FALSE(
        GetPageBatchRequest::Decode(Slice(wire.data(), cut), &out).ok());
  }
}

TEST(RbioCodecTest, BatchResponseRoundTripMixedStatuses) {
  GetPageBatchResponse resp;
  resp.status = Status::OK();
  GetPageBatchResponse::Entry ok_entry;
  ok_entry.status = Status::OK();
  ok_entry.page.Format(77, storage::PageType::kBTreeLeaf);
  ok_entry.page.UpdateChecksum();
  resp.entries.push_back(std::move(ok_entry));
  GetPageBatchResponse::Entry missing;
  missing.status = Status::NotFound("no such page");
  resp.entries.push_back(std::move(missing));
  GetPageBatchResponse out;
  ASSERT_TRUE(GetPageBatchResponse::Decode(
                  std::make_shared<const std::string>(resp.Encode()), &out)
                  .ok());
  EXPECT_TRUE(out.status.ok());
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_TRUE(out.entries[0].status.ok());
  EXPECT_EQ(out.entries[0].page.page_id(), 77u);
  EXPECT_TRUE(out.entries[0].page.VerifyChecksum().ok());
  EXPECT_TRUE(out.entries[1].status.IsNotFound());
  EXPECT_EQ(out.entries[1].status.message(), "no such page");
}

TEST(RbioCodecTest, DecodedStatusMessageBorrowsTheFrame) {
  GetPageBatchResponse resp;
  for (int i = 0; i < 2; i++) {
    GetPageBatchResponse::Entry missing;
    missing.status = Status::NotFound("page never checkpointed");
    resp.entries.push_back(std::move(missing));
  }
  auto frame = std::make_shared<const std::string>(resp.Encode());
  GetPageBatchResponse out;
  ASSERT_TRUE(GetPageBatchResponse::Decode(frame, &out).ok());
  ASSERT_EQ(out.entries.size(), 2u);
  // Each not-found entry's message points into the frame (no copy) and
  // keeps the frame alive: the codec's reference, the test's and one per
  // entry.
  for (const auto& e : out.entries) {
    EXPECT_TRUE(e.status.IsNotFound());
    EXPECT_EQ(e.status.message(), "page never checkpointed");
    EXPECT_GE(e.status.message().data(), frame->data());
    EXPECT_LE(e.status.message().data() + e.status.message().size(),
              frame->data() + frame->size());
  }
  EXPECT_EQ(frame.use_count(), 3);
  Status kept = out.entries[0].status;
  out.entries.clear();
  frame.reset();
  EXPECT_EQ(kept.ToString(), "NotFound: page never checkpointed");
}

TEST(RbioCodecTest, ScanRangeRequestRoundTrip) {
  ScanRangeRequest req;
  req.leaves = {17, 18, 40, 18};
  req.start_key = 1000;
  req.end_key = 5000;
  req.limit = 64;
  req.max_pages = 8;
  req.min_lsn = 4242;
  req.read_ts = 99;
  req.predicate = common::ScanPredicate::KeyModEq(16, 3);
  req.projection.extents.push_back({4, 12});
  req.aggregate = common::ScanAggregate::Sum(8);
  std::string wire = req.Encode();
  ScanRangeRequest out;
  ASSERT_TRUE(ScanRangeRequest::Decode(Slice(wire), &out).ok());
  EXPECT_EQ(out.leaves, (std::vector<PageId>{17, 18, 40, 18}));
  EXPECT_EQ(out.start_key, 1000u);
  EXPECT_EQ(out.end_key, 5000u);
  EXPECT_EQ(out.limit, 64u);
  EXPECT_EQ(out.max_pages, 8u);
  EXPECT_EQ(out.min_lsn, 4242u);
  EXPECT_EQ(out.read_ts, 99u);
  EXPECT_EQ(out.predicate.op, common::PredOp::kKeyModEq);
  EXPECT_EQ(out.predicate.a, 16u);
  EXPECT_EQ(out.predicate.b, 3u);
  ASSERT_EQ(out.projection.extents.size(), 1u);
  EXPECT_EQ(out.projection.extents[0].offset, 4u);
  EXPECT_EQ(out.projection.extents[0].len, 12u);
  EXPECT_EQ(out.aggregate.fn, common::AggFn::kSum);
  EXPECT_EQ(out.aggregate.field_offset, 8u);
  // Truncations anywhere are rejected, never mis-read.
  for (size_t cut = 0; cut < wire.size(); cut++) {
    EXPECT_FALSE(
        ScanRangeRequest::Decode(Slice(wire.data(), cut), &out).ok());
  }
  // An empty list round-trips (the server answers it with a fence miss).
  req.leaves.clear();
  ASSERT_TRUE(ScanRangeRequest::Decode(Slice(req.Encode()), &out).ok());
  EXPECT_TRUE(out.leaves.empty());
}

TEST(RbioCodecTest, ScanRangeResponseTupleRoundTrip) {
  ScanRangeResponse resp;
  resp.status = Status::OK();
  resp.complete = false;
  resp.resume_key = 777;
  std::string v1 = "hello", v2 = "";
  resp.tuples.push_back({10, Slice(v1)});
  resp.tuples.push_back({20, Slice(v2)});
  auto frame = std::make_shared<const std::string>(resp.Encode());
  ScanRangeResponse out;
  ASSERT_TRUE(ScanRangeResponse::Decode(frame, &out).ok());
  EXPECT_TRUE(out.status.ok());
  EXPECT_FALSE(out.complete);
  EXPECT_FALSE(out.aggregated);
  EXPECT_EQ(out.resume_key, 777u);
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(out.tuples[0].key, 10u);
  EXPECT_EQ(out.tuples[0].value.ToString(), "hello");
  EXPECT_EQ(out.tuples[1].value.size(), 0u);
  // Tuple slices alias the frame; the decode must have retained it.
  EXPECT_NE(out.owner, nullptr);
}

TEST(RbioCodecTest, ScanRangeResponseAggRoundTrip) {
  ScanRangeResponse resp;
  resp.status = Status::OK();
  resp.complete = true;
  resp.aggregated = true;
  resp.agg.rows = 42;
  resp.agg.value = 123456789;
  auto frame = std::make_shared<const std::string>(resp.Encode());
  ScanRangeResponse out;
  ASSERT_TRUE(ScanRangeResponse::Decode(frame, &out).ok());
  EXPECT_TRUE(out.complete);
  EXPECT_TRUE(out.aggregated);
  EXPECT_EQ(out.agg.rows, 42u);
  EXPECT_EQ(out.agg.value, 123456789u);
  EXPECT_TRUE(out.tuples.empty());
}

TEST(RbioCodecTest, OverloadedStatusSurvivesWire) {
  // kOverloaded is the scan-admission shed signal; it must round-trip so
  // the client planner can distinguish it from Unavailable (retried by
  // transport).
  ScanRangeResponse resp;
  resp.status = Status::Overloaded("ps: scan admission shed");
  auto frame = std::make_shared<const std::string>(resp.Encode());
  ScanRangeResponse out;
  ASSERT_TRUE(ScanRangeResponse::Decode(frame, &out).ok());
  EXPECT_TRUE(out.status.IsOverloaded());
  EXPECT_FALSE(out.status.IsUnavailable());
}

// ------------------------------------------------------------ mock server

class MockServer : public RbioServer {
 public:
  MockServer(Simulator& sim, SimTime service_us)
      : sim_(sim), service_us_(service_us) {}

  static storage::Page MakePage(PageId id, Lsn lsn) {
    storage::Page p;
    p.Format(id, storage::PageType::kBTreeLeaf);
    p.set_page_lsn(lsn);
    p.UpdateChecksum();
    return p;
  }

  Task<Result<std::string>> HandleRbio(const std::string& frame) override {
    handled_++;
    last_frame_ = frame;
    co_await sim::Delay(sim_, service_us_);
    if (fail_next_ > 0) {
      fail_next_--;
      co_return Result<std::string>(Status::Unavailable("mock outage"));
    }
    GetPageBatchRequest batch;
    if (!GetPageBatchRequest::Decode(Slice(frame), &batch).ok()) {
      co_return GetPageBatchResponse{
          Status::NotSupported("mock: unknown request"), {}}
          .Encode();
    }
    batch_frames_++;
    GetPageBatchResponse bresp{Status::OK(), {}};
    for (uint32_t i = 0; i < batch.size(); i++) {
      bresp.entries.push_back(
          {Status::OK(), MakePage(batch[i].page_id, batch[i].min_lsn + 1)});
    }
    co_return bresp.Encode();
  }

  int handled_ = 0;
  int fail_next_ = 0;
  int batch_frames_ = 0;
  std::string last_frame_;

 private:
  Simulator& sim_;
  SimTime service_us_;
};

// Issue `n` concurrent GetPage calls for distinct pages and wait for all.
Task<> ConcurrentGets(Simulator& s, RbioClient& client,
                      std::vector<Endpoint> eps, PageId first, int n,
                      int* ok_count) {
  sim::WaitGroup wg(s);
  for (int i = 0; i < n; i++) {
    wg.Add();
    Spawn(s, [](RbioClient* c, std::vector<Endpoint> e, PageId id,
                sim::WaitGroup* w, int* ok) -> Task<> {
      auto r = co_await c->GetPage(e, id, 10);
      if (r.ok() && r->page_id() == id) (*ok)++;
      w->Done();
    }(&client, eps, first + i, &wg, ok_count));
  }
  co_await wg.Wait();
}

TEST(RbioClientTest, RetriesTransientFailures) {
  Simulator s;
  MockServer server(s, 100);
  server.fail_next_ = 2;
  RbioClientOptions opts;
  RbioClient client(s, nullptr, opts);
  std::vector<Endpoint> eps{{&server, "m"}};
  RunSim(s, [&]() -> Task<> {
    auto r = co_await client.GetPage(eps, 7, 50);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) {
      EXPECT_EQ(r->page_id(), 7u);
    }
  });
  EXPECT_EQ(server.handled_, 3);  // 2 failures + 1 success
  EXPECT_EQ(client.retries(), 2u);
}

TEST(RbioClientTest, GivesUpAfterMaxAttempts) {
  Simulator s;
  MockServer server(s, 100);
  server.fail_next_ = 100;
  RbioClient client(s, nullptr, {});
  std::vector<Endpoint> eps{{&server, "m"}};
  RunSim(s, [&]() -> Task<> {
    auto r = co_await client.GetPage(eps, 7, 50);
    EXPECT_TRUE(r.status().IsUnavailable());
  });
  EXPECT_EQ(server.handled_, RbioClient::kMaxAttempts);
}

TEST(RbioClientTest, QosPrefersFasterReplica) {
  Simulator s;
  MockServer fast(s, 50);
  MockServer slow(s, 4000);
  RbioClient client(s, nullptr, {});
  std::vector<Endpoint> eps{{&slow, "slow"}, {&fast, "fast"}};
  RunSim(s, [&]() -> Task<> {
    for (int i = 0; i < 40; i++) {
      auto r = co_await client.GetPage(eps, i, 0);
      EXPECT_TRUE(r.ok());
    }
  });
  // After exploring both, the client should route nearly everything to
  // the fast replica.
  EXPECT_GT(fast.handled_, 30);
  EXPECT_LT(slow.handled_, 10);
  EXPECT_LT(client.EwmaLatencyUs("fast"), client.EwmaLatencyUs("slow"));
}

TEST(RbioClientTest, FailsOverToOtherReplicaOnOutage) {
  Simulator s;
  MockServer a(s, 50);
  MockServer b(s, 60);
  a.fail_next_ = 1000;  // replica A is down
  RbioClient client(s, nullptr, {});
  RunSim(s, [&]() -> Task<> {
    std::vector<Endpoint> eps{{&a, "a"}, {&b, "b"}};
    for (int i = 0; i < 20; i++) {
      auto r = co_await client.GetPage(eps, i, 0);
      EXPECT_TRUE(r.ok());
    }
  });
  EXPECT_GE(b.handled_, 20);
}

// --------------------------------------------------------------- batching

TEST(RbioBatchTest, ConcurrentMissesPackIntoOneFrame) {
  Simulator s;
  MockServer server(s, 100);
  RbioClientOptions opts;
  opts.max_batch = 16;
  RbioClient client(s, nullptr, opts);
  std::vector<Endpoint> eps{{&server, "m"}};
  int ok = 0;
  RunSim(s, [&]() -> Task<> {
    co_await ConcurrentGets(s, client, eps, 100, 8, &ok);
  });
  EXPECT_EQ(ok, 8);
  // All eight misses were issued in the same tick: one frame, one round
  // trip, seven saved.
  EXPECT_EQ(server.handled_, 1);
  EXPECT_EQ(server.batch_frames_, 1);
  EXPECT_EQ(client.batches_sent(), 1u);
  EXPECT_EQ(client.batched_pages(), 8u);
  EXPECT_EQ(client.round_trips_saved(), 7u);
  EXPECT_EQ(client.batch_occupancy().max(), 8.0);
}

TEST(RbioBatchTest, BurstsAboveMaxBatchSplitIntoConcurrentFrames) {
  Simulator s;
  MockServer server(s, 100);
  RbioClientOptions opts;
  opts.max_batch = 16;
  RbioClient client(s, nullptr, opts);
  std::vector<Endpoint> eps{{&server, "m"}};
  int ok = 0;
  RunSim(s, [&]() -> Task<> {
    co_await ConcurrentGets(s, client, eps, 100, 40, &ok);
  });
  EXPECT_EQ(ok, 40);
  // 40 misses -> ceil(40/16) = 3 frames, all in flight concurrently.
  EXPECT_EQ(server.handled_, 3);
  EXPECT_EQ(client.batches_sent(), 3u);
  EXPECT_EQ(client.batched_pages(), 40u);
  EXPECT_EQ(client.round_trips_saved(), 37u);
}

TEST(RbioBatchTest, LoneMissPaysNoBatchingLatency) {
  // A lone miss goes out as a one-entry frame whatever max_batch is: the
  // same bytes on the wire and the same completion time at 16 as at 1.
  auto run_one = [](uint32_t max_batch, SimTime* finished,
                    std::string* frame) {
    Simulator s;
    MockServer server(s, 100);
    RbioClientOptions opts;
    opts.max_batch = max_batch;
    opts.network = sim::LatencyModel::Fixed(30);
    RbioClient client(s, nullptr, opts);
    std::vector<Endpoint> eps{{&server, "m"}};
    bool done = false;
    Spawn(s, Wrap([](RbioClient* c, std::vector<Endpoint> e) -> Task<> {
            auto r = co_await c->GetPage(e, 9, 10);
            EXPECT_TRUE(r.ok());
          }(&client, eps),
          &done));
    while (!done && s.Step()) {
    }
    *finished = s.now();
    *frame = server.last_frame_;
    EXPECT_EQ(client.batches_sent(), 1u);
    EXPECT_EQ(client.batched_pages(), 1u);
  };
  SimTime batched_t, unbatched_t;
  std::string batched_frame, unbatched_frame;
  run_one(16, &batched_t, &batched_frame);
  run_one(1, &unbatched_t, &unbatched_frame);
  // Two 30 us network legs around 100 us of service: no batching window.
  EXPECT_EQ(batched_t, 160);
  EXPECT_EQ(batched_t, unbatched_t);
  EXPECT_EQ(batched_frame, unbatched_frame);
  EXPECT_EQ(unbatched_frame, GetPageBatchRequest::Encode({{9, 10}}));
}

// --------------------------------------------- end-to-end via Page Server

service::DeploymentOptions SmallDeployment() {
  service::DeploymentOptions o;
  o.partition_map.pages_per_partition = 4096;
  o.num_page_servers = 1;
  o.compute.mem_pages = 64;
  o.compute.ssd_pages = 128;
  return o;
}

Task<> Load(engine::Engine* e, uint64_t n) {
  for (uint64_t i = 0; i < n; i += 32) {
    auto txn = e->Begin();
    for (uint64_t k = i; k < i + 32; k++) {
      (void)e->Put(txn.get(), engine::MakeKey(1, k),
                   "val-" + std::to_string(k));
    }
    EXPECT_TRUE((co_await e->Commit(txn.get())).ok());
  }
}

TEST(RbioEndToEndTest, PageServerServesTypedRequests) {
  Simulator s;
  service::Deployment d(s, SmallDeployment());
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 500);
    co_await d.page_server(0)->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    RbioClient client(s, nullptr, RbioClientOptions{});
    std::vector<Endpoint> eps{{d.page_server(0), "ps0"}};
    // Typed GetPage.
    auto page = co_await client.GetPage(eps, engine::kRootPageId, 0);
    EXPECT_TRUE(page.ok());
    // The retired kGetPage and kGetPageRange types are answered with a
    // typed rejection, not served.
    for (MessageType retired :
         {MessageType::kGetPage, MessageType::kGetPageRange}) {
      std::string frame;
      PutFixed16(&frame, kProtocolVersion);
      frame.push_back(static_cast<char>(retired));
      PutFixed64(&frame, engine::kRootPageId);
      PutFixed64(&frame, 0);
      auto raw = co_await d.page_server(0)->HandleRbio(frame);
      EXPECT_TRUE(raw.ok());
      if (raw.ok()) {
        Status prefix;
        EXPECT_TRUE(DecodeResponseStatusPrefix(Slice(*raw), &prefix).ok());
        EXPECT_TRUE(prefix.IsNotSupported()) << prefix.ToString();
      }
    }
    // A count the frame cannot hold gets a typed error response too.
    std::string huge;
    PutFixed16(&huge, kProtocolVersion);
    huge.push_back(static_cast<char>(MessageType::kGetPageBatch));
    PutFixed32(&huge, UINT32_MAX);
    auto raw = co_await d.page_server(0)->HandleRbio(huge);
    EXPECT_TRUE(raw.ok());
    if (raw.ok()) {
      GetPageBatchResponse resp;
      EXPECT_TRUE(GetPageBatchResponse::Decode(
                      std::make_shared<const std::string>(*raw), &resp)
                      .ok());
      EXPECT_FALSE(resp.status.ok());
      EXPECT_EQ(resp.status.message(), "rbio: count exceeds frame");
      EXPECT_TRUE(resp.entries.empty());
    }
  });
  d.Stop();
}

TEST(RbioEndToEndTest, BatchedGetsAgainstRealPageServer) {
  Simulator s;
  service::Deployment d(s, SmallDeployment());
  RbioClient client(s, nullptr, RbioClientOptions{});
  int ok = 0;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 2000);
    co_await d.page_server(0)->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    std::vector<Endpoint> eps{{d.page_server(0), "ps0"}};
    co_await ConcurrentGets(s, client, eps, engine::kRootPageId, 8, &ok);
  });
  EXPECT_EQ(ok, 8);
  EXPECT_GE(client.batches_sent(), 1u);
  EXPECT_EQ(d.page_server(0)->batch_requests(), client.batches_sent());
  EXPECT_EQ(d.page_server(0)->batch_subrequests(), client.batched_pages());
  d.Stop();
}

TEST(RbioEndToEndTest, ComputeSurvivesTransientPageServerFailures) {
  Simulator s;
  service::DeploymentOptions o = SmallDeployment();
  o.compute.mem_pages = 8;
  o.compute.ssd_pages = 16;  // tiny cache: refetches guaranteed
  service::Deployment d(s, o);
  // Enough rows that their leaves overflow both cache tiers.
  constexpr uint64_t kRows = 4000;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), kRows);
    // Short transient failure bursts (below the retry budget) keep
    // hitting the server; reads must still succeed via RBIO retries.
    engine::Engine* e = d.primary_engine();
    auto txn = e->Begin(true);
    int bursts = 0;
    for (uint64_t k = 0; k < kRows; k += 7) {
      if (k % 210 == 0) {
        d.chaos().InjectFailures("ps-0", 2);
        bursts++;
      }
      auto v = co_await e->Get(txn.get(), engine::MakeKey(1, k));
      EXPECT_TRUE(v.ok()) << "key " << k << ": " << v.status().ToString();
    }
    EXPECT_GT(bursts, 5);
    (void)co_await e->Commit(txn.get());
  });
  EXPECT_GT(d.primary()->rbio_client().retries(), 0u);
  d.Stop();
}

}  // namespace
}  // namespace rbio
}  // namespace socrates
