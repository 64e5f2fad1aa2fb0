// Tests for pages, the extent store and simulated block devices: header
// round-trips, checksums, frame sharing, extent mapping and discard
// against a flat byte model, gather lists, segment release, sparse device
// storage, latency ordering, replication quorum, outage behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/random.h"
#include "storage/block_device.h"
#include "storage/extent_store.h"
#include "storage/page.h"

namespace socrates {
namespace storage {
namespace {

using sim::DeviceProfile;
using sim::Simulator;
using sim::Spawn;
using sim::Task;

// -------------------------------------------------------------------- Page

TEST(PageTest, FormatSetsHeader) {
  Page p;
  p.Format(42, PageType::kBTreeLeaf);
  EXPECT_EQ(p.page_id(), 42u);
  EXPECT_EQ(p.type(), PageType::kBTreeLeaf);
  EXPECT_EQ(p.page_lsn(), kInvalidLsn);
  EXPECT_EQ(p.slot_count(), 0);
  EXPECT_EQ(p.free_offset(), kPageHeaderSize);
}

TEST(PageTest, HeaderFieldRoundTrips) {
  Page p;
  p.Format(7, PageType::kMeta);
  p.set_page_lsn(123456789ull);
  p.set_slot_count(99);
  p.set_free_offset(512);
  p.set_aux(0xCAFE);
  EXPECT_EQ(p.page_lsn(), 123456789ull);
  EXPECT_EQ(p.slot_count(), 99);
  EXPECT_EQ(p.free_offset(), 512);
  EXPECT_EQ(p.aux(), 0xCAFEu);
}

TEST(PageTest, ChecksumDetectsCorruption) {
  Page p;
  p.Format(1, PageType::kBTreeLeaf);
  memcpy(p.data() + 100, "hello", 5);
  p.UpdateChecksum();
  EXPECT_TRUE(p.VerifyChecksum().ok());
  p.data()[200] ^= 0x01;
  EXPECT_TRUE(p.VerifyChecksum().IsCorruption());
}

TEST(PageTest, CopyIsDeep) {
  Page a;
  a.Format(5, PageType::kBTreeLeaf);
  memcpy(a.data() + 64, "payload", 7);
  Page b = a;
  b.data()[64] = 'X';
  EXPECT_EQ(a.data()[64], 'p');
  EXPECT_EQ(b.page_id(), 5u);
}

TEST(PageTest, CopyIsZeroCopyUntilFirstWrite) {
  Page a;
  a.Format(5, PageType::kBTreeLeaf);
  memcpy(a.data() + 64, "payload", 7);
  Page b = a;
  // COW: the copy aliases the same frame until someone writes.
  EXPECT_EQ(a.cdata(), b.cdata());
  b.data()[64] = 'X';
  EXPECT_NE(a.cdata(), b.cdata());
  EXPECT_EQ(a.cdata()[64], 'p');
  EXPECT_EQ(b.cdata()[64], 'X');
}

TEST(PageTest, DefaultPagesShareTheZeroFrame) {
  Page a;
  Page b;
  EXPECT_EQ(a.cdata(), b.cdata());
  EXPECT_EQ(a.cdata()[0], '\0');
  EXPECT_EQ(a.cdata()[kPageSize - 1], '\0');
  // Writing one detaches it without disturbing the shared zero frame.
  a.data()[0] = 'x';
  EXPECT_NE(a.cdata(), b.cdata());
  EXPECT_EQ(b.cdata()[0], '\0');
}

TEST(PageTest, AliasReadsForeignBufferWithoutCopy) {
  Page src;
  src.Format(9, PageType::kBTreeLeaf);
  src.set_page_lsn(55);
  src.UpdateChecksum();
  // The idiom of the zero-copy RBIO decode path: alias a page image
  // inside a (shared) wire frame instead of memcpy'ing it out.
  auto frame = std::make_shared<std::string>(src.cdata(), kPageSize);
  Page aliased = Page::Alias(frame, frame->data());
  EXPECT_EQ(aliased.cdata(), frame->data());
  EXPECT_EQ(aliased.page_id(), 9u);
  EXPECT_EQ(aliased.page_lsn(), 55u);
  EXPECT_TRUE(aliased.VerifyChecksum().ok());
  // A write detaches the alias; the wire frame is never scribbled on.
  aliased.data()[100] = 'Z';
  EXPECT_NE(aliased.cdata(), frame->data());
  EXPECT_EQ((*frame)[100], src.cdata()[100]);
}

TEST(PageTest, ShareFrameHoldsTheImageAcrossMutation) {
  Page p;
  p.Format(3, PageType::kBTreeLeaf);
  p.data()[64] = 'a';
  const char* frame = p.cdata();
  std::shared_ptr<const char> held = p.ShareFrame();
  EXPECT_EQ(held.get(), frame);  // an owned frame is shared, not copied
  EXPECT_FALSE(p.unique());
  p.data()[64] = 'b';  // the holder makes this write detach
  EXPECT_NE(p.cdata(), frame);
  EXPECT_EQ(held.get()[64], 'a');
  EXPECT_EQ(p.cdata()[64], 'b');
}

TEST(PageTest, ShareFrameCopiesAnAliasOutOfItsBuffer) {
  // A page aliasing into a larger buffer (an RBIO response holding many
  // images) must not hand a store a hold on the whole buffer.
  Page src;
  src.Format(4, PageType::kBTreeLeaf);
  src.UpdateChecksum();
  auto buffer = std::make_shared<std::string>(4 * kPageSize, '\0');
  memcpy(buffer->data() + kPageSize, src.cdata(), kPageSize);
  std::weak_ptr<std::string> watch = buffer;
  Page aliased = Page::Alias(buffer, buffer->data() + kPageSize);
  std::shared_ptr<const char> held = aliased.ShareFrame();
  EXPECT_NE(held.get(), buffer->data() + kPageSize);
  EXPECT_EQ(memcmp(held.get(), src.cdata(), kPageSize), 0);
  EXPECT_EQ(held.get(), aliased.cdata());  // the page moved to the copy
  // A second call shares the now-owned frame.
  EXPECT_EQ(aliased.ShareFrame().get(), held.get());
  buffer.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_TRUE(aliased.VerifyChecksum().ok());
}

TEST(PageTest, SliceRoundTrip) {
  Page a;
  a.Format(9, PageType::kVersionStore);
  a.set_page_lsn(55);
  a.UpdateChecksum();
  Page b;
  ASSERT_TRUE(b.FromSlice(a.AsSlice()).ok());
  EXPECT_TRUE(b.VerifyChecksum().ok());
  EXPECT_EQ(b.page_id(), 9u);
  EXPECT_EQ(b.page_lsn(), 55u);
  EXPECT_TRUE(b.FromSlice(Slice("short")).IsInvalidArgument());
}

// ------------------------------------------------------------ ExtentStore

// A segment of `n` bytes all equal to `c`.
Segment Filled(uint64_t n, char c) {
  return std::make_shared<const std::string>(n, c);
}

std::string ReadAll(const ExtentStore& st, uint64_t offset, uint64_t len) {
  std::string out;
  st.Read(offset, len, &out);
  return out;
}

TEST(ExtentStoreTest, HeadMiddleTailSplits) {
  ExtentStore st;
  st.Write(0, Filled(10, 'a'));
  st.Write(3, Filled(4, 'b'));   // middle: 'a' keeps head and tail
  EXPECT_EQ(ReadAll(st, 0, 10), "aaabbbbaaa");
  st.Write(0, Filled(2, 'c'));   // head of the first 'a' extent
  st.Write(9, Filled(3, 'd'));   // tail of the last one, and past it
  EXPECT_EQ(ReadAll(st, 0, 12), "ccabbbbaaddd");
  st.Write(1, Filled(10, 'e'));  // spans several extents at once
  EXPECT_EQ(ReadAll(st, 0, 12), "ceeeeeeeeeed");
  EXPECT_EQ(st.size(), 12u);
  EXPECT_EQ(st.mapped_bytes(), 12u);
}

TEST(ExtentStoreTest, HolesReadAsZeroAndReadAppends) {
  ExtentStore st;
  st.Write(4, Filled(2, 'x'));
  st.Write(10, SegmentRef(Filled(8, 'y')).Sub(2, 3));  // a sub-range
  std::string out = "keep";
  st.Read(2, 12, &out);
  EXPECT_EQ(out, std::string("keep") + std::string(2, '\0') + "xx" +
                     std::string(4, '\0') + "yyy" + std::string(1, '\0'));
  EXPECT_EQ(st.mapped_bytes(), 5u);
  EXPECT_EQ(st.size(), 13u);
  EXPECT_EQ(ReadAll(ExtentStore(), 7, 3), std::string(3, '\0'));
}

// Property test: random overlapping writes of random segment sub-ranges,
// ring-wrap overwrites included, against a flat byte array (with a
// coverage map for the holes).
TEST(ExtentStorePropertyTest, MatchesFlatModel) {
  const uint64_t kSpace = 4096;
  Random rng(17);
  ExtentStore st;
  std::string model(kSpace, '\0');
  std::vector<bool> covered(kSpace, false);
  auto write = [&](uint64_t off, const SegmentRef& data) {
    st.Write(off, data);
    for (uint64_t i = 0; i < data.size(); i++) {
      model[off + i] = data.data()[i];
      covered[off + i] = true;
    }
  };
  for (int i = 0; i < 2000; i++) {
    const uint64_t seg_len = 1 + rng.Uniform(300);
    std::string bytes(seg_len, '\0');
    for (auto& c : bytes) c = static_cast<char>('a' + rng.Uniform(26));
    SegmentRef seg = SegmentRef::Adopt(std::move(bytes));
    const uint64_t sub_off = rng.Uniform(seg_len);
    const uint64_t sub_len = 1 + rng.Uniform(seg_len - sub_off);
    SegmentRef data = seg.Sub(sub_off, sub_len);
    const uint64_t off = rng.Uniform(kSpace);
    if (i % 3 == 0) {
      // Ring write: split at the end of the space, the tail wrapping to 0.
      const uint64_t first = std::min(data.size(), kSpace - off);
      write(off, data.Sub(0, first));
      if (first < data.size()) write(0, data.Sub(first, data.size() - first));
    } else if (off + data.size() <= kSpace) {
      write(off, data);
    }
    if (i % 100 == 0 || i == 1999) {
      ASSERT_EQ(ReadAll(st, 0, kSpace), model) << "after write " << i;
      uint64_t mapped = 0;
      for (bool c : covered) mapped += c;
      ASSERT_EQ(st.mapped_bytes(), mapped) << "after write " << i;
      const uint64_t a = rng.Uniform(kSpace);
      const uint64_t n = rng.Uniform(kSpace - a + 1);
      ASSERT_EQ(ReadAll(st, a, n), model.substr(a, n)) << "after write " << i;
    }
  }
}

TEST(ExtentStoreTest, FullyOverwrittenSegmentIsReleased) {
  ExtentStore st;
  std::weak_ptr<const std::string> old_seg, kept_seg;
  {
    Segment a = Filled(100, 'a');
    Segment b = Filled(100, 'b');
    old_seg = a;
    kept_seg = b;
    st.Write(0, a);
    st.Write(100, b);
  }
  // Two writes that together cover all of `a`, and one byte of `b`.
  st.Write(0, Filled(60, 'c'));
  EXPECT_FALSE(old_seg.expired());  // 40 bytes of `a` still mapped
  st.Write(50, Filled(51, 'd'));
  EXPECT_TRUE(old_seg.expired());
  EXPECT_FALSE(kept_seg.expired());  // 99 bytes of `b` still mapped
  EXPECT_EQ(ReadAll(st, 95, 10), "ddddddbbbb");
}

TEST(ExtentStoreTest, RingLapReleasesThePreviousLap) {
  // A ring of 4 slots of 1 KiB, written with segments that straddle the
  // slot boundaries: once the second lap is done, no first-lap segment is
  // alive, and the store maps exactly one lap.
  const uint64_t kCap = 4 * KiB;
  ExtentStore st;
  std::vector<std::weak_ptr<const std::string>> lap1;
  uint64_t pos = 0;
  auto put = [&](Segment seg) {
    SegmentRef data(std::move(seg));
    const uint64_t off = pos % kCap;
    const uint64_t first = std::min<uint64_t>(data.size(), kCap - off);
    st.Write(off, data.Sub(0, first));
    if (first < data.size()) st.Write(0, data.Sub(first, data.size() - first));
    pos += data.size();
  };
  while (pos < kCap) {
    Segment seg = Filled(700, 'a');
    lap1.push_back(seg);
    put(std::move(seg));
  }
  const uint64_t lap1_end = pos;
  while (pos < lap1_end + kCap) put(Filled(700, 'b'));
  for (auto& w : lap1) EXPECT_TRUE(w.expired());
  EXPECT_EQ(st.mapped_bytes(), kCap);
  EXPECT_EQ(ReadAll(st, 0, kCap), std::string(kCap, 'b'));
}

TEST(ExtentStoreTest, DiscardUnmapsHeadTailMiddleAndSpans) {
  ExtentStore st;
  st.Write(0, Filled(10, 'a'));
  st.Write(10, Filled(10, 'b'));
  st.Write(20, Filled(10, 'c'));
  st.Discard(10, 10);  // a whole extent
  EXPECT_EQ(ReadAll(st, 0, 30), std::string(10, 'a') +
                                    std::string(10, '\0') +
                                    std::string(10, 'c'));
  EXPECT_EQ(st.mapped_bytes(), 20u);
  st.Discard(0, 3);   // the head of 'a'
  st.Discard(27, 3);  // the tail of 'c'
  st.Discard(5, 2);   // the middle of 'a': splits it in two
  EXPECT_EQ(ReadAll(st, 0, 30),
            std::string(3, '\0') + "aa" + std::string(2, '\0') + "aaa" +
                std::string(10, '\0') + std::string(7, 'c') +
                std::string(3, '\0'));
  EXPECT_EQ(st.mapped_bytes(), 12u);
  st.Discard(4, 22);  // spans both pieces of 'a' and most of 'c'
  EXPECT_EQ(ReadAll(st, 0, 30), std::string(3, '\0') + "a" +
                                    std::string(22, '\0') + "c" +
                                    std::string(3, '\0'));
  EXPECT_EQ(st.mapped_bytes(), 2u);
  st.Discard(40, 5);  // nothing mapped there
  EXPECT_EQ(st.mapped_bytes(), 2u);
  EXPECT_EQ(st.size(), 30u);  // discarding never shrinks the address space
  st.Write(5, Filled(2, 'd'));  // a discarded range takes writes again
  EXPECT_EQ(ReadAll(st, 3, 5), std::string("a\0dd\0", 5));
  EXPECT_EQ(st.mapped_bytes(), 4u);
}

TEST(ExtentStoreTest, DiscardedSegmentIsFreedOnceNoStoreMapsIt) {
  ExtentStore a, b;
  std::weak_ptr<const std::string> watch;
  {
    Segment seg = Filled(100, 's');
    watch = seg;
    a.Write(0, seg);
    b.Write(500, SegmentRef(seg).Sub(10, 50));
  }
  a.Discard(0, 60);
  EXPECT_FALSE(watch.expired());
  a.Discard(60, 40);
  EXPECT_EQ(a.mapped_bytes(), 0u);
  EXPECT_FALSE(watch.expired());  // `b` still maps a range of it
  b.Discard(490, 30);             // `b` keeps the tail of its range
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(ReadAll(b, 520, 30), std::string(30, 's'));
  b.Discard(520, 100);
  EXPECT_TRUE(watch.expired());
}

// Property test: random writes and discards against a flat byte model.
TEST(ExtentStorePropertyTest, DiscardMatchesFlatModel) {
  const uint64_t kSpace = 2048;
  Random rng(29);
  ExtentStore st;
  std::string model(kSpace, '\0');
  for (int i = 0; i < 1500; i++) {
    const uint64_t off = rng.Uniform(kSpace);
    const uint64_t len = 1 + rng.Uniform(std::min<uint64_t>(400, kSpace - off));
    if (rng.Uniform(3) == 0) {
      st.Discard(off, len);
      model.replace(off, len, len, '\0');
    } else {
      const char c = static_cast<char>('a' + rng.Uniform(26));
      st.Write(off, Filled(len, c));
      model.replace(off, len, len, c);
    }
    if (i % 50 == 0 || i == 1499) {
      ASSERT_EQ(ReadAll(st, 0, kSpace), model) << "after op " << i;
      // Written bytes are letters, so the mapped ones are the non-zeros.
      const auto zeros = std::count(model.begin(), model.end(), '\0');
      ASSERT_EQ(st.mapped_bytes(), kSpace - zeros) << "after op " << i;
    }
  }
}

TEST(SegmentListTest, GathersInlineThenOnTheHeapAndSubTrimsEnds) {
  SegmentList one(Filled(4, 'a'));
  EXPECT_EQ(one.size(), 4u);
  EXPECT_EQ(one.refs().size(), 1u);
  SegmentList empty;
  empty.Append(SegmentRef());  // empty ranges are skipped
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.refs().empty());

  Segment b = Filled(6, 'b');
  SegmentList list(Filled(4, 'a'));
  list.Append(b);
  list.Append(SegmentRef(Filled(5, 'c')).Sub(1, 3));
  EXPECT_EQ(list.size(), 13u);
  ASSERT_EQ(list.refs().size(), 3u);
  ExtentStore st;
  st.Write(2, list);
  EXPECT_EQ(ReadAll(st, 0, 16), std::string(2, '\0') + "aaaabbbbbbccc" +
                                    std::string(1, '\0'));

  SegmentList mid = list.Sub(3, 8);  // 'a' + all of `b` + 'c'
  EXPECT_EQ(mid.size(), 8u);
  ASSERT_EQ(mid.refs().size(), 3u);
  EXPECT_EQ(mid.refs()[1].data(), b->data());  // shares, no copy
  ExtentStore st2;
  st2.Write(0, mid);
  EXPECT_EQ(ReadAll(st2, 0, 8), "abbbbbbc");
  EXPECT_EQ(list.Sub(5, 2).refs().size(), 1u);  // inside one range
}

// ---------------------------------------------------------- SimBlockDevice

TEST(SimBlockDeviceTest, WriteReadRoundTrip) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  std::string got;
  Status ws, rs;
  Spawn(s, [](SimBlockDevice& d, std::string* out, Status* w,
              Status* r) -> Task<> {
    *w = co_await d.Write(1000, Slice("hello device"));
    *r = co_await d.Read(1000, 12, out);
  }(dev, &got, &ws, &rs));
  s.Run();
  EXPECT_TRUE(ws.ok());
  EXPECT_TRUE(rs.ok());
  EXPECT_EQ(got, "hello device");
  EXPECT_GT(s.now(), 0);  // latency was modelled
}

TEST(SimBlockDeviceTest, UnwrittenReadsAsZero) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  std::string got;
  Spawn(s, [](SimBlockDevice& d, std::string* out) -> Task<> {
    (void)co_await d.Read(5 * GiB, 16, out);
  }(dev, &got));
  s.Run();
  EXPECT_EQ(got, std::string(16, '\0'));
}

TEST(SimBlockDeviceTest, SparseAllocation) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  Spawn(s, [](SimBlockDevice& d) -> Task<> {
    (void)co_await d.Write(10 * GiB, Slice("far away"));
  }(dev));
  s.Run();
  // Writing 8 bytes at 10 GiB must not allocate 10 GiB.
  EXPECT_LT(dev.allocated_bytes(), 1 * MiB);
}

TEST(SimBlockDeviceTest, CrossChunkWrite) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  std::string big(200 * KiB, 'z');  // spans multiple 64 KiB chunks
  for (size_t i = 0; i < big.size(); i++) big[i] = static_cast<char>(i % 251);
  std::string got;
  Spawn(s, [](SimBlockDevice& d, const std::string& data,
              std::string* out) -> Task<> {
    (void)co_await d.Write(60 * KiB, Slice(data));
    (void)co_await d.Read(60 * KiB, data.size(), out);
  }(dev, big, &got));
  s.Run();
  EXPECT_EQ(got, big);
}

TEST(SimBlockDeviceTest, OutageFailsRequests) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::XStore());
  chaos::Injector inj;
  dev.AttachChaos(&inj, "dev");
  inj.SetOutage("dev", true);
  Status ws;
  Spawn(s, [](SimBlockDevice& d, Status* w) -> Task<> {
    *w = co_await d.Write(0, Slice("x"));
  }(dev, &ws));
  s.Run();
  EXPECT_TRUE(ws.IsUnavailable());
  inj.SetOutage("dev", false);
  Status ws2;
  Spawn(s, [](SimBlockDevice& d, Status* w) -> Task<> {
    *w = co_await d.Write(0, Slice("x"));
  }(dev, &ws2));
  s.Run();
  EXPECT_TRUE(ws2.ok());
}

TEST(SimBlockDeviceTest, StatsAccumulate) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  Spawn(s, [](SimBlockDevice& d) -> Task<> {
    (void)co_await d.Write(0, Slice("abcd"));
    std::string out;
    (void)co_await d.Read(0, 4, &out);
    (void)co_await d.Read(0, 2, &out);
  }(dev));
  s.Run();
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_EQ(dev.stats().reads, 2u);
  EXPECT_EQ(dev.stats().bytes_written, 4u);
  EXPECT_EQ(dev.stats().bytes_read, 6u);
}

// A checksummed leaf image stamped with `id`.
Page StampedPage(PageId id) {
  Page p;
  p.Format(id, PageType::kBTreeLeaf);
  p.set_page_lsn(100 + id);
  memcpy(p.data() + 64, "image", 5);
  p.UpdateChecksum();
  return p;
}

TEST(SimBlockDeviceTest, PageCallsChargeLikeByteCalls) {
  // Same seed, same request sequence: the page calls and kPageSize byte
  // calls draw the device RNG identically, so every I/O completes at the
  // same simulated time (bit-identical simulation across the two APIs).
  Simulator s1, s2;
  SimBlockDevice pages(s1, DeviceProfile::LocalSsd(), 7);
  SimBlockDevice bytes(s2, DeviceProfile::LocalSsd(), 7);
  std::vector<SimTime> t1, t2;
  Spawn(s1, [](Simulator& s, SimBlockDevice& d,
               std::vector<SimTime>* t) -> Task<> {
    for (PageId i = 0; i < 8; i++) {
      EXPECT_TRUE((co_await d.WritePage(i * kPageSize, StampedPage(i))).ok());
      t->push_back(s.now());
      Page got;
      EXPECT_TRUE((co_await d.ReadPage(i * kPageSize, &got)).ok());
      t->push_back(s.now());
      EXPECT_EQ(got.page_id(), i);
    }
  }(s1, pages, &t1));
  Spawn(s2, [](Simulator& s, SimBlockDevice& d,
               std::vector<SimTime>* t) -> Task<> {
    for (PageId i = 0; i < 8; i++) {
      Page img = StampedPage(i);
      EXPECT_TRUE((co_await d.Write(i * kPageSize, img.AsSlice())).ok());
      t->push_back(s.now());
      std::string got;
      EXPECT_TRUE((co_await d.Read(i * kPageSize, kPageSize, &got)).ok());
      t->push_back(s.now());
    }
  }(s2, bytes, &t2));
  s1.Run();
  s2.Run();
  ASSERT_EQ(t1.size(), 16u);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(pages.stats().reads, bytes.stats().reads);
  EXPECT_EQ(pages.stats().writes, bytes.stats().writes);
  EXPECT_EQ(pages.stats().bytes_read, bytes.stats().bytes_read);
  EXPECT_EQ(pages.stats().bytes_written, bytes.stats().bytes_written);
}

TEST(SimBlockDeviceTest, ReadPageSharesStoredImageUntilWritten) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  Page written = StampedPage(3);
  const char* stored = written.cdata();
  Page first, second;
  Spawn(s, [](SimBlockDevice& d, Page img, Page* a, Page* b) -> Task<> {
    (void)co_await d.WritePage(2 * kPageSize, std::move(img));
    (void)co_await d.ReadPage(2 * kPageSize, a);
    (void)co_await d.ReadPage(2 * kPageSize, b);
  }(dev, written, &first, &second));
  s.Run();
  // No copy on the way in or out: both reads return the written frame.
  EXPECT_EQ(first.cdata(), stored);
  EXPECT_EQ(second.cdata(), stored);
  // Writing through a returned page detaches it; the stored image (seen
  // through the other reader and a fresh read) keeps its bytes.
  first.data()[64] = 'X';
  EXPECT_NE(first.cdata(), stored);
  EXPECT_EQ(second.cdata()[64], 'i');
  Page third;
  Spawn(s, [](SimBlockDevice& d, Page* c) -> Task<> {
    (void)co_await d.ReadPage(2 * kPageSize, c);
  }(dev, &third));
  s.Run();
  EXPECT_EQ(third.cdata(), stored);
  EXPECT_EQ(third.cdata()[64], 'i');
  EXPECT_TRUE(third.VerifyChecksum().ok());
}

TEST(SimBlockDeviceTest, UnwrittenPageFailsVerify) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  Page got = StampedPage(1);
  Status rs;
  Spawn(s, [](SimBlockDevice& d, Page* out, Status* r) -> Task<> {
    *r = co_await d.ReadPage(40 * kPageSize, out);
  }(dev, &got, &rs));
  s.Run();
  // The read itself succeeds (unwritten media reads as zeros), and the
  // zero image is caught by the checksum, as with a byte read.
  EXPECT_TRUE(rs.ok());
  EXPECT_EQ(got.page_id(), 0u);
  EXPECT_TRUE(got.VerifyChecksum().IsCorruption());
}

TEST(SimBlockDeviceTest, PageCallsFailDuringOutageAndStoreNothing) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  chaos::Injector inj;
  dev.AttachChaos(&inj, "dev");
  inj.SetOutage("dev", true);
  Status ws, rs;
  Page got = StampedPage(9);
  Spawn(s, [](SimBlockDevice& d, Page* out, Status* w,
              Status* r) -> Task<> {
    *w = co_await d.WritePage(0, StampedPage(5));
    *r = co_await d.ReadPage(0, out);
  }(dev, &got, &ws, &rs));
  s.Run();
  EXPECT_TRUE(ws.IsUnavailable());
  EXPECT_TRUE(rs.IsUnavailable());
  EXPECT_EQ(got.page_id(), 9u);  // a failed read leaves the output alone
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  EXPECT_EQ(dev.stats().writes, 0u);
  EXPECT_EQ(dev.stats().reads, 0u);
  inj.SetOutage("dev", false);
  Spawn(s, [](SimBlockDevice& d, Page* out, Status* r) -> Task<> {
    *r = co_await d.ReadPage(0, out);
  }(dev, &got, &rs));
  s.Run();
  EXPECT_TRUE(rs.ok());
  EXPECT_TRUE(got.VerifyChecksum().IsCorruption());  // nothing was stored
}

// --------------------------------------------------- ReplicatedBlockDevice

// Attaches each replica under a site of its own ("replica-<i>"), so one
// replica can fail alone.
void AttachReplicaSites(ReplicatedBlockDevice& dev, chaos::Injector* inj) {
  for (int i = 0; i < dev.num_replicas(); i++) {
    dev.replica(i)->AttachChaos(inj, "replica-" + std::to_string(i));
  }
}

TEST(ReplicatedDeviceTest, WriteReachesAllReplicasEventually) {
  Simulator s;
  ReplicatedBlockDevice dev(s, DeviceProfile::Xio(), 3, 2);
  Status ws;
  Spawn(s, [](ReplicatedBlockDevice& d, Status* w) -> Task<> {
    *w = co_await d.Write(512, Slice("quorum payload"));
  }(dev, &ws));
  s.Run();  // run to completion: laggard replica writes finish too
  EXPECT_TRUE(ws.ok());
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(dev.replica(i)->ReadRaw(512, 14), "quorum payload")
        << "replica " << i;
  }
}

TEST(ReplicatedDeviceTest, DownReplicaKeepsNothingLiveOnesShareOneImage) {
  Simulator s;
  ReplicatedBlockDevice dev(s, DeviceProfile::Xio(), 3, 2);
  chaos::Injector inj;
  AttachReplicaSites(dev, &inj);
  inj.SetOutage("replica-0", true);
  Segment image = std::make_shared<const std::string>("shared image");
  Status ws;
  Spawn(s, [](ReplicatedBlockDevice& d, Segment img, Status* w) -> Task<> {
    *w = co_await d.Write(64, std::move(img));
  }(dev, image, &ws));
  s.Run();
  EXPECT_TRUE(ws.ok());
  // This test's handle plus one per live replica: no replica copied it.
  EXPECT_EQ(image.use_count(), 3);
  inj.SetOutage("replica-0", false);
  EXPECT_EQ(dev.replica(0)->ReadRaw(64, 12), std::string(12, '\0'));
  EXPECT_EQ(dev.replica(0)->allocated_bytes(), 0u);
  for (int i = 1; i < 3; i++) {
    EXPECT_EQ(dev.replica(i)->ReadRaw(64, 12), "shared image")
        << "replica " << i;
  }
  std::string got;
  Spawn(s, [](ReplicatedBlockDevice& d, std::string* out) -> Task<> {
    (void)co_await d.Read(64, 12, out);  // replica 0 answers first
  }(dev, &got));
  s.Run();
  EXPECT_EQ(got, std::string(12, '\0'));
}

TEST(ReplicatedDeviceTest, GatherWriteIsOneRequestAndSharesEverySegment) {
  Simulator s;
  ReplicatedBlockDevice dev(s, DeviceProfile::Xio(), 3, 2);
  Segment a = std::make_shared<const std::string>("gather ");
  Segment b = std::make_shared<const std::string>("write");
  SegmentList list(a);
  list.Append(b);
  Status ws;
  Spawn(s, [](ReplicatedBlockDevice& d, SegmentList l, Status* w) -> Task<> {
    *w = co_await d.Write(100, std::move(l));
  }(dev, list, &ws));
  s.Run();
  EXPECT_TRUE(ws.ok());
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_EQ(dev.stats().bytes_written, 12u);
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(dev.replica(i)->stats().writes, 1u) << "replica " << i;
    EXPECT_EQ(dev.replica(i)->ReadRaw(100, 12), "gather write")
        << "replica " << i;
  }
  // Our handle, the list's, and one per replica.
  EXPECT_EQ(a.use_count(), 5);
  EXPECT_EQ(b.use_count(), 5);
  dev.Discard(100, 7);  // a trim on every replica frees the first segment
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(dev.replica(2)->ReadRaw(100, 12),
            std::string(7, '\0') + "write");
  EXPECT_EQ(dev.replica(0)->allocated_bytes(), 5u);
}

TEST(ReplicatedDeviceTest, QuorumFasterThanAllReplicas) {
  // Commit completes at the 2nd-fastest replica, not the slowest. With a
  // wide uniform distribution, quorum-of-2 beats waiting for all 3.
  Simulator s;
  sim::DeviceProfile p;
  p.read = sim::LatencyModel::Fixed(100);
  p.write = sim::LatencyModel::Uniform(1000, 9000);
  ReplicatedBlockDevice quorum_dev(s, p, 3, 2, /*seed=*/99);
  ReplicatedBlockDevice all_dev(s, p, 3, 3, /*seed=*/99);

  SimTime t_quorum = 0, t_all = 0;
  Spawn(s, [](Simulator& sm, ReplicatedBlockDevice& d,
              SimTime* out) -> Task<> {
    SimTime begin = sm.now();
    for (int i = 0; i < 50; i++) {
      (void)co_await d.Write(i * 512, Slice("x"));
    }
    *out = sm.now() - begin;
  }(s, quorum_dev, &t_quorum));
  s.Run();
  Spawn(s, [](Simulator& sm, ReplicatedBlockDevice& d,
              SimTime* out) -> Task<> {
    SimTime begin = sm.now();
    for (int i = 0; i < 50; i++) {
      (void)co_await d.Write(i * 512, Slice("x"));
    }
    *out = sm.now() - begin;
  }(s, all_dev, &t_all));
  s.Run();
  EXPECT_LT(t_quorum, t_all);
}

TEST(ReplicatedDeviceTest, SurvivesMinorityOutage) {
  Simulator s;
  ReplicatedBlockDevice dev(s, DeviceProfile::Xio(), 3, 2);
  chaos::Injector inj;
  AttachReplicaSites(dev, &inj);
  inj.SetOutage("replica-0", true);
  Status ws;
  std::string got;
  Spawn(s, [](ReplicatedBlockDevice& d, Status* w, std::string* out)
            -> Task<> {
    *w = co_await d.Write(0, Slice("still durable"));
    (void)co_await d.Read(0, 13, out);
  }(dev, &ws, &got));
  s.Run();
  EXPECT_TRUE(ws.ok());
  EXPECT_EQ(got, "still durable");  // read fails over past the dead replica
}

TEST(ReplicatedDeviceTest, FailsWithoutQuorum) {
  Simulator s;
  ReplicatedBlockDevice dev(s, DeviceProfile::Xio(), 3, 2);
  chaos::Injector inj;
  AttachReplicaSites(dev, &inj);
  inj.SetOutage("replica-0", true);
  inj.SetOutage("replica-1", true);
  Status ws;
  Spawn(s, [](ReplicatedBlockDevice& d, Status* w) -> Task<> {
    *w = co_await d.Write(0, Slice("lost"));
  }(dev, &ws));
  s.Run();
  EXPECT_TRUE(ws.IsUnavailable());
}

TEST(ReplicatedDeviceTest, AllReplicasDownReadFails) {
  Simulator s;
  ReplicatedBlockDevice dev(s, DeviceProfile::Xio(), 3, 2);
  chaos::Injector inj;
  AttachReplicaSites(dev, &inj);
  for (int i = 0; i < 3; i++) {
    inj.SetOutage("replica-" + std::to_string(i), true);
  }
  Status rs;
  std::string out;
  Spawn(s, [](ReplicatedBlockDevice& d, Status* r, std::string* o)
            -> Task<> {
    *r = co_await d.Read(0, 8, o);
  }(dev, &rs, &out));
  s.Run();
  EXPECT_TRUE(rs.IsUnavailable());
}

}  // namespace
}  // namespace storage
}  // namespace socrates
