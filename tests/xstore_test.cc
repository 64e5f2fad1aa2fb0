// Tests for the simulated XStore blob store: extent-map correctness under
// overlapping writes (property-tested against a byte-array model), O(1)
// snapshot/restore semantics, outage behaviour, and the constant-time
// claim itself (snapshot latency independent of blob size).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/random.h"
#include "xstore/xstore.h"

namespace socrates {
namespace xstore {
namespace {

using sim::Simulator;
using sim::Spawn;
using sim::Task;

// Drive a coroutine to completion on a fresh simulator.
template <typename Fn>
void RunSim(Simulator& s, Fn&& fn) {
  Spawn(s, fn());
  s.Run();
}

TEST(XStoreTest, WriteReadRoundTrip) {
  Simulator s;
  XStore xs(s);
  Status ws, rs;
  std::string got;
  RunSim(s, [&]() -> Task<> {
    ws = co_await xs.Write("blob1", 100, Slice("hello xstore"));
    rs = co_await xs.Read("blob1", 100, 12, &got);
  });
  EXPECT_TRUE(ws.ok());
  EXPECT_TRUE(rs.ok());
  EXPECT_EQ(got, "hello xstore");
  EXPECT_EQ(xs.BlobSize("blob1"), 112u);
}

TEST(XStoreTest, ReadMissingBlobIsNotFound) {
  Simulator s;
  XStore xs(s);
  Status rs;
  std::string got;
  RunSim(s, [&]() -> Task<> {
    rs = co_await xs.Read("nope", 0, 4, &got);
  });
  EXPECT_TRUE(rs.IsNotFound());
}

TEST(XStoreTest, UnwrittenGapsReadAsZero) {
  Simulator s;
  XStore xs(s);
  std::string got;
  RunSim(s, [&]() -> Task<> {
    (void)co_await xs.Write("b", 0, Slice("AA"));
    (void)co_await xs.Write("b", 10, Slice("BB"));
    (void)co_await xs.Read("b", 0, 12, &got);
  });
  std::string expect = "AA";
  expect += std::string(8, '\0');
  expect += "BB";
  EXPECT_EQ(got, expect);
}

TEST(XStoreTest, OverwriteMiddle) {
  Simulator s;
  XStore xs(s);
  std::string got;
  RunSim(s, [&]() -> Task<> {
    (void)co_await xs.Write("b", 0, Slice("abcdefghij"));
    (void)co_await xs.Write("b", 3, Slice("XYZ"));
    (void)co_await xs.Read("b", 0, 10, &got);
  });
  EXPECT_EQ(got, "abcXYZghij");
}

TEST(XStoreTest, OverwriteSpanningMultipleExtents) {
  Simulator s;
  XStore xs(s);
  std::string got;
  RunSim(s, [&]() -> Task<> {
    (void)co_await xs.Write("b", 0, Slice("aaaa"));
    (void)co_await xs.Write("b", 4, Slice("bbbb"));
    (void)co_await xs.Write("b", 8, Slice("cccc"));
    (void)co_await xs.Write("b", 2, Slice("ZZZZZZZZ"));  // covers parts of all
    (void)co_await xs.Read("b", 0, 12, &got);
  });
  EXPECT_EQ(got, "aaZZZZZZZZcc");
}

// Property test: random overlapping writes against a plain byte-array
// model. This is the load-bearing test for the extent map.
TEST(XStorePropertyTest, RandomWritesMatchModel) {
  Simulator s;
  XStore xs(s);
  Random rng(2024);
  const uint64_t kSpace = 4096;
  std::string model(kSpace, '\0');
  RunSim(s, [&]() -> Task<> {
    for (int i = 0; i < 500; i++) {
      uint64_t off = rng.Uniform(kSpace - 1);
      uint64_t len = 1 + rng.Uniform(std::min<uint64_t>(kSpace - off, 200));
      std::string data(len, '\0');
      for (auto& c : data) {
        c = static_cast<char>('a' + rng.Uniform(26));
      }
      (void)co_await xs.Write("prop", off, Slice(data));
      memcpy(model.data() + off, data.data(), len);
      if (i % 50 == 0) {
        std::string got;
        (void)co_await xs.Read("prop", 0, kSpace, &got);
        EXPECT_EQ(got, model) << "divergence after write " << i;
      }
    }
    std::string got;
    (void)co_await xs.Read("prop", 0, kSpace, &got);
    EXPECT_EQ(got, model);
  });
}

TEST(XStoreTest, SnapshotIsolatesFromLaterWrites) {
  Simulator s;
  XStore xs(s);
  SnapshotId snap = 0;
  std::string before, after, restored;
  RunSim(s, [&]() -> Task<> {
    (void)co_await xs.Write("db", 0, Slice("version-1"));
    auto r = co_await xs.Snapshot("db");
    snap = *r;
    (void)co_await xs.Write("db", 0, Slice("version-2"));
    (void)co_await xs.Read("db", 0, 9, &after);
    (void)co_await xs.Restore(snap, "db-restored");
    (void)co_await xs.Read("db-restored", 0, 9, &restored);
  });
  EXPECT_EQ(after, "version-2");
  EXPECT_EQ(restored, "version-1");
}

TEST(XStoreTest, SnapshotKeepsOverwrittenBytesReadable) {
  Simulator s;
  XStore xs(s);
  std::weak_ptr<const std::string> v1;
  std::string live, restored;
  RunSim(s, [&]() -> Task<> {
    storage::Segment seg = std::make_shared<const std::string>("version-1");
    v1 = seg;
    (void)co_await xs.Write("db", 0, std::move(seg));
    auto r = co_await xs.Snapshot("db");
    (void)co_await xs.Write("db", 0, Slice("version-2"));
    // The live blob no longer maps v1; the snapshot's extent table does.
    EXPECT_FALSE(v1.expired());
    (void)co_await xs.Read("db", 0, 9, &live);
    (void)co_await xs.Restore(*r, "db-restored");
    (void)co_await xs.Read("db-restored", 0, 9, &restored);
  });
  EXPECT_EQ(live, "version-2");
  EXPECT_EQ(restored, "version-1");
  EXPECT_EQ(xs.stored_bytes(), 18u);  // both versions are accounted
}

TEST(XStoreTest, OverwrittenSegmentWithoutSnapshotIsReleased) {
  Simulator s;
  XStore xs(s);
  std::weak_ptr<const std::string> v1;
  RunSim(s, [&]() -> Task<> {
    storage::Segment seg = std::make_shared<const std::string>("version-1");
    v1 = seg;
    (void)co_await xs.Write("db", 0, std::move(seg));
    (void)co_await xs.Write("db", 0, Slice("version-2"));
  });
  EXPECT_TRUE(v1.expired());
  EXPECT_EQ(xs.ReadRaw("db", 0, 9), "version-2");
}

TEST(XStoreTest, GatherWriteChargesOneRequestOfTheSummedLength) {
  // The same bytes as one concatenated string and as a gather list of two
  // segments: same latency draw, same transfer time, one request each.
  Simulator s1, s2;
  XStore flat(s1), gather(s2);
  storage::Segment a = std::make_shared<const std::string>(3000, 'a');
  storage::Segment b = std::make_shared<const std::string>(5000, 'b');
  RunSim(s1, [&]() -> Task<> {
    (void)co_await flat.Write("blob", 64, Slice(*a + *b));
  });
  RunSim(s2, [&]() -> Task<> {
    storage::SegmentList list(a);
    list.Append(b);
    (void)co_await gather.Write("blob", 64, std::move(list));
  });
  EXPECT_EQ(s1.now(), s2.now());
  EXPECT_EQ(gather.stats().writes, 1u);
  EXPECT_EQ(gather.stats().bytes_written, 8000u);
  EXPECT_EQ(gather.stored_bytes(), flat.stored_bytes());
  EXPECT_EQ(gather.ReadRaw("blob", 0, 8064), flat.ReadRaw("blob", 0, 8064));
  EXPECT_EQ(a.use_count(), 2);  // mapped by the blob, not copied
  EXPECT_EQ(b.use_count(), 2);
}

TEST(XStoreTest, RestoredBlobIsIndependent) {
  Simulator s;
  XStore xs(s);
  std::string orig, rest;
  RunSim(s, [&]() -> Task<> {
    (void)co_await xs.Write("a", 0, Slice("base"));
    auto r = co_await xs.Snapshot("a");
    (void)co_await xs.Restore(*r, "b");
    (void)co_await xs.Write("b", 0, Slice("fork"));
    (void)co_await xs.Read("a", 0, 4, &orig);
    (void)co_await xs.Read("b", 0, 4, &rest);
  });
  EXPECT_EQ(orig, "base");
  EXPECT_EQ(rest, "fork");
}

TEST(XStoreTest, SnapshotOfMissingBlobFails) {
  Simulator s;
  XStore xs(s);
  Status st;
  RunSim(s, [&]() -> Task<> {
    auto r = co_await xs.Snapshot("ghost");
    st = r.status();
  });
  EXPECT_TRUE(st.IsNotFound());
}

// The headline property: snapshot time must not depend on blob size.
TEST(XStoreTest, SnapshotLatencyIndependentOfSize) {
  Simulator s;
  XStore xs(s);
  SimTime small_t = 0, big_t = 0;
  RunSim(s, [&]() -> Task<> {
    (void)co_await xs.Write("small", 0, Slice("x"));
    std::string big(2 * MiB, 'y');
    for (int i = 0; i < 8; i++) {
      (void)co_await xs.Write("big", i * big.size(), Slice(big));
    }
    SimTime t0 = s.now();
    (void)co_await xs.Snapshot("small");
    small_t = s.now() - t0;
    t0 = s.now();
    (void)co_await xs.Snapshot("big");
    big_t = s.now() - t0;
  });
  EXPECT_EQ(small_t, big_t);  // both exactly kMetaOpLatencyUs
  EXPECT_EQ(big_t, XStore::kMetaOpLatencyUs);
}

TEST(XStoreTest, TransferTimeScalesWithSize) {
  Simulator s;
  XStore xs(s, sim::DeviceProfile::XStore(), /*bandwidth_mb_s=*/100.0);
  SimTime small_t = 0, big_t = 0;
  RunSim(s, [&]() -> Task<> {
    std::string big(8 * MiB, 'b');
    SimTime t0 = s.now();
    (void)co_await xs.Write("b", 0, Slice("tiny"));
    small_t = s.now() - t0;
    t0 = s.now();
    (void)co_await xs.Write("b", 0, Slice(big));
    big_t = s.now() - t0;
  });
  // 8 MiB at 100 MB/s ~ 84 ms of transfer alone; far above base latency.
  EXPECT_GT(big_t, 5 * small_t);
  EXPECT_GT(big_t, 70000);
}

TEST(XStoreTest, OutageFailsEverything) {
  Simulator s;
  XStore xs(s);
  chaos::Injector inj;
  xs.AttachChaos(&inj, "xstore");
  Status w0, w1, r1, snap_st;
  std::string got;
  RunSim(s, [&]() -> Task<> {
    w0 = co_await xs.Write("b", 0, Slice("pre"));
    inj.SetOutage("xstore", true);
    w1 = co_await xs.Write("b", 0, Slice("during"));
    r1 = co_await xs.Read("b", 0, 3, &got);
    auto r = co_await xs.Snapshot("b");
    snap_st = r.status();
    inj.SetOutage("xstore", false);
    r1 = co_await xs.Read("b", 0, 3, &got);
  });
  EXPECT_TRUE(w0.ok());
  EXPECT_TRUE(w1.IsUnavailable());
  EXPECT_TRUE(snap_st.IsUnavailable());
  EXPECT_TRUE(r1.ok());
  EXPECT_EQ(got, "pre");  // failed write left no trace
}

TEST(XStoreTest, DeleteAndList) {
  Simulator s;
  XStore xs(s);
  RunSim(s, [&]() -> Task<> {
    (void)co_await xs.Write("db/p0", 0, Slice("x"));
    (void)co_await xs.Write("db/p1", 0, Slice("y"));
    (void)co_await xs.Write("log/lt", 0, Slice("z"));
    (void)co_await xs.Delete("db/p0");
  });
  EXPECT_FALSE(xs.Exists("db/p0"));
  EXPECT_TRUE(xs.Exists("db/p1"));
  auto names = xs.List("db/");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "db/p1");
  EXPECT_EQ(xs.List("").size(), 2u);
}

TEST(XStoreTest, StoredBytesAccountsAppends) {
  Simulator s;
  XStore xs(s);
  RunSim(s, [&]() -> Task<> {
    (void)co_await xs.Write("b", 0, Slice("aaaa"));
    (void)co_await xs.Write("b", 0, Slice("bbbb"));  // overwrite still counts
  });
  EXPECT_EQ(xs.stored_bytes(), 8u);  // every written byte is charged
}

}  // namespace
}  // namespace xstore
}  // namespace socrates
