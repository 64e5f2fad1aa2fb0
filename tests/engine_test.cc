// Engine tests: version chains, B-tree page layout, log record codec and
// idempotent redo, buffer pool + RBPEX behaviour, B-tree operations with
// splits (differential-tested against std::map), snapshot isolation,
// conflict detection, and redo-applier replication.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "engine/btree.h"
#include "engine/btree_page.h"
#include "engine/buffer_pool.h"
#include "engine/log_record.h"
#include "engine/log_sink.h"
#include "engine/redo.h"
#include "engine/txn_engine.h"
#include "engine/version.h"

namespace socrates {
namespace engine {
namespace {

using sim::Simulator;
using sim::Spawn;
using sim::Task;

template <typename Fn>
void RunSim(Simulator& s, Fn&& fn) {
  Spawn(s, fn());
  s.Run();
}

// ----------------------------------------------------------- VersionChain

// The oracle for EncodePushed: a materialized chain whose Push, Trim and
// Cap state the version-store rules one version at a time.
struct RowVersion {
  Timestamp commit_ts = 0;
  bool tombstone = false;
  std::string payload;
};

class VersionChain {
 public:
  std::string Encode() const {
    std::string out;
    PutFixed16(&out, static_cast<uint16_t>(versions_.size()));
    for (const auto& v : versions_) {
      PutFixed64(&out, v.commit_ts);
      out.push_back(static_cast<char>(v.tombstone ? 0x1 : 0x0));
      PutLengthPrefixed(&out, Slice(v.payload));
    }
    return out;
  }

  /// Prepend a new committed version (commit_ts increasing).
  void Push(Timestamp commit_ts, bool tombstone, Slice payload) {
    versions_.insert(versions_.begin(),
                     RowVersion{commit_ts, tombstone, payload.ToString()});
  }

  /// Keep the newest version with commit_ts <= oldest_active_ts plus
  /// everything newer.
  void Trim(Timestamp oldest_active_ts) {
    for (size_t i = 0; i < versions_.size(); i++) {
      if (versions_[i].commit_ts <= oldest_active_ts) {
        versions_.resize(i + 1);
        return;
      }
    }
  }

  /// Keep only the newest `max` versions.
  void Cap(size_t max) {
    if (versions_.size() > max) versions_.resize(max);
  }

  size_t size() const { return versions_.size(); }
  const std::vector<RowVersion>& versions() const { return versions_; }

 private:
  std::vector<RowVersion> versions_;
};

// Every version of an encoded chain, newest first, read by the engine's
// reader; a malformed chain fails the test.
std::vector<VersionView> Versions(Slice chain) {
  std::vector<VersionView> out;
  ChainReader reader(chain);
  VersionView v;
  while (reader.Next(&v)) out.push_back(v);
  EXPECT_FALSE(reader.malformed());
  return out;
}

TEST(VersionChainTest, EncodeDecodeRoundTrip) {
  VersionChain c;
  c.Push(10, false, Slice("v1"));
  c.Push(20, false, Slice("v2"));
  c.Push(30, true, Slice(""));
  const std::string enc = c.Encode();
  std::vector<VersionView> d = Versions(Slice(enc));
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].commit_ts, 30u);
  EXPECT_TRUE(d[0].tombstone);
  EXPECT_EQ(d[2].payload.ToString(), "v1");
}

// The payload a snapshot at `read_ts` sees in `chain`, "<none>" if no
// version is visible, "<malformed>" if the chain is not one.
std::string SeenAt(Slice chain, Timestamp read_ts) {
  VersionView v;
  switch (VisibleAt(chain, read_ts, &v)) {
    case ChainLookup::kFound:
      return v.tombstone ? "<tombstone>" : v.payload.ToString();
    case ChainLookup::kNone:
      return "<none>";
    case ChainLookup::kMalformed:
      return "<malformed>";
  }
  return "";
}

TEST(VersionChainTest, VisibilityRules) {
  VersionChain c;
  c.Push(10, false, Slice("v1"));
  c.Push(20, false, Slice("v2"));
  const std::string enc = c.Encode();
  EXPECT_EQ(SeenAt(Slice(enc), 5), "<none>");  // before creation
  EXPECT_EQ(SeenAt(Slice(enc), 10), "v1");     // exactly at commit
  EXPECT_EQ(SeenAt(Slice(enc), 15), "v1");
  EXPECT_EQ(SeenAt(Slice(enc), 20), "v2");
  EXPECT_EQ(SeenAt(Slice(enc), 1000), "v2");
}

TEST(VersionChainTest, TombstoneVisibility) {
  VersionChain c;
  c.Push(10, false, Slice("alive"));
  c.Push(20, true, Slice(""));
  const std::string enc = c.Encode();
  EXPECT_EQ(SeenAt(Slice(enc), 15), "alive");
  EXPECT_EQ(SeenAt(Slice(enc), 25), "<tombstone>");
}

TEST(VersionChainTest, TrimKeepsNeededVersions) {
  VersionChain c;
  for (Timestamp ts = 10; ts <= 50; ts += 10) {
    c.Push(ts, false, Slice("v"));
  }
  c.Trim(25);  // oldest active snapshot is 25: needs version at ts=20
  ASSERT_EQ(c.size(), 4u);  // 50,40,30,20 retained; 10 dropped
  EXPECT_EQ(c.versions().back().commit_ts, 20u);
  c.Cap(2);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.versions()[0].commit_ts, 50u);
}

TEST(VersionChainTest, DecodeRejectsGarbage) {
  EXPECT_EQ(SeenAt(Slice("zz"), kMaxTimestamp), "<malformed>");
  EXPECT_EQ(SeenAt(Slice("z"), kMaxTimestamp), "<malformed>");
  std::string half;
  PutFixed16(&half, 3);  // claims 3 versions, provides none
  EXPECT_EQ(SeenAt(Slice(half), kMaxTimestamp), "<malformed>");
  VersionView v;
  EXPECT_EQ(Newest(Slice(half), &v), ChainLookup::kMalformed);
}

// The reader's four answers: visible, not yet visible, deleted, and
// malformed — which is not "invisible": a truncated chain whose visible
// version is cut off must not read as a row that does not exist.
TEST(VersionChainTest, ReaderSeparatesMalformedFromInvisible) {
  VersionChain c;
  c.Push(10, false, Slice("old"));
  c.Push(20, true, Slice(""));
  c.Push(30, false, Slice("new"));
  const std::string enc = c.Encode();
  EXPECT_EQ(SeenAt(Slice(enc), 35), "new");
  EXPECT_EQ(SeenAt(Slice(enc), 12), "old");
  EXPECT_EQ(SeenAt(Slice(enc), 5), "<none>");
  EXPECT_EQ(SeenAt(Slice(enc), 25), "<tombstone>");
  VersionView v;
  ASSERT_EQ(Newest(Slice(enc), &v), ChainLookup::kFound);
  EXPECT_EQ(v.commit_ts, 30u);
  // Every truncation that cuts into the version at ts 10 is malformed
  // for a reader that needs it; one that needs only the intact head is
  // not.
  for (size_t cut = 0; cut < enc.size(); cut++) {
    const Slice head(enc.data(), cut);
    EXPECT_EQ(SeenAt(head, 12), "<malformed>") << cut;
  }
  EXPECT_EQ(SeenAt(Slice(enc.data(), enc.size() - 1), 35), "new");
  // A count past the versions present, or a length past the bytes.
  std::string more = enc;
  more[0] = 4;
  EXPECT_EQ(SeenAt(Slice(more), 5), "<malformed>");
  std::string longer = enc;
  longer[2 + 8 + 1] = 100;  // the head's payload length
  EXPECT_EQ(SeenAt(Slice(longer), 35), "<malformed>");
}

// -------------------------------------------------------------- BTreePage

TEST(BTreePageTest, FormatAndFences) {
  storage::Page page;
  BTreePage::Format(&page, 7, 0, 100, 200, 9);
  BTreePage bp(&page);
  EXPECT_TRUE(bp.is_leaf());
  EXPECT_EQ(bp.low_fence(), 100u);
  EXPECT_EQ(bp.high_fence(), 200u);
  EXPECT_EQ(bp.right_sibling(), 9u);
  EXPECT_TRUE(bp.CoversKey(100));
  EXPECT_TRUE(bp.CoversKey(199));
  EXPECT_FALSE(bp.CoversKey(200));
  EXPECT_FALSE(bp.CoversKey(99));
}

TEST(BTreePageTest, SortedInsertAndLookup) {
  storage::Page page;
  BTreePage::Format(&page, 1, 0, kMinKey, kMaxKey, kInvalidPageId);
  BTreePage bp(&page);
  for (uint64_t k : {50, 10, 30, 20, 40}) {
    ASSERT_TRUE(bp.LeafInsert(k, Slice("v" + std::to_string(k))).ok());
  }
  ASSERT_EQ(bp.slot_count(), 5);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(bp.KeyAt(i), static_cast<uint64_t>((i + 1) * 10));
  }
  EXPECT_EQ(bp.LeafValueAt(bp.FindSlot(30)).ToString(), "v30");
  EXPECT_EQ(bp.FindSlot(35), -1);
  EXPECT_TRUE(bp.LeafInsert(30, Slice("dup")).IsInvalidArgument());
}

TEST(BTreePageTest, UpdateGrowShrink) {
  storage::Page page;
  BTreePage::Format(&page, 1, 0, kMinKey, kMaxKey, kInvalidPageId);
  BTreePage bp(&page);
  ASSERT_TRUE(bp.LeafInsert(1, Slice("short")).ok());
  ASSERT_TRUE(bp.LeafInsert(2, Slice("other")).ok());
  ASSERT_TRUE(bp.LeafUpdate(1, Slice(std::string(500, 'x'))).ok());
  EXPECT_EQ(bp.LeafValueAt(bp.FindSlot(1)).size(), 500u);
  EXPECT_EQ(bp.LeafValueAt(bp.FindSlot(2)).ToString(), "other");
  ASSERT_TRUE(bp.LeafUpdate(1, Slice("y")).ok());
  EXPECT_EQ(bp.LeafValueAt(bp.FindSlot(1)).ToString(), "y");
  EXPECT_TRUE(bp.LeafUpdate(99, Slice("z")).IsNotFound());
}

TEST(BTreePageTest, DeleteAndCompaction) {
  storage::Page page;
  BTreePage::Format(&page, 1, 0, kMinKey, kMaxKey, kInvalidPageId);
  BTreePage bp(&page);
  std::string value(700, 'a');
  // Fill the page.
  uint64_t k = 0;
  while (bp.CanHostLeafInsert(static_cast<uint32_t>(value.size()))) {
    ASSERT_TRUE(bp.LeafInsert(k++, Slice(value)).ok());
  }
  uint64_t filled = k;
  EXPECT_GT(filled, 5u);
  // Delete every other key; inserts must succeed again via compaction.
  for (uint64_t d = 0; d < filled; d += 2) {
    ASSERT_TRUE(bp.LeafDelete(d).ok());
  }
  EXPECT_TRUE(bp.CanHostLeafInsert(static_cast<uint32_t>(value.size())));
  ASSERT_TRUE(bp.LeafInsert(1000, Slice(value)).ok());
  EXPECT_EQ(bp.LeafValueAt(bp.FindSlot(1000)).ToString(), value);
  EXPECT_EQ(bp.LeafValueAt(bp.FindSlot(1)).ToString(), value);
}

TEST(BTreePageTest, InteriorChildNavigation) {
  storage::Page page;
  BTreePage::Format(&page, 1, 1, kMinKey, kMaxKey, kInvalidPageId);
  BTreePage bp(&page);
  ASSERT_TRUE(bp.InteriorInsert(kMinKey, 10).ok());
  ASSERT_TRUE(bp.InteriorInsert(100, 11).ok());
  ASSERT_TRUE(bp.InteriorInsert(200, 12).ok());
  EXPECT_FALSE(bp.is_leaf());
  EXPECT_EQ(bp.ChildAt(bp.FindChildSlot(0)), 10u);
  EXPECT_EQ(bp.ChildAt(bp.FindChildSlot(99)), 10u);
  EXPECT_EQ(bp.ChildAt(bp.FindChildSlot(100)), 11u);
  EXPECT_EQ(bp.ChildAt(bp.FindChildSlot(150)), 11u);
  EXPECT_EQ(bp.ChildAt(bp.FindChildSlot(5000)), 12u);
}

// ------------------------------------------------------------- LogRecord

TEST(LogRecordTest, CodecRoundTripAllTypes) {
  std::vector<LogRecord> recs;
  {
    LogRecord r;
    r.type = LogRecordType::kPageFormat;
    r.page_id = 3;
    r.page_type = 1;
    r.level = 2;
    r.low_fence = 5;
    r.high_fence = 500;
    r.right_sibling = 9;
    recs.push_back(r);
  }
  {
    LogRecord r;
    r.type = LogRecordType::kLeafInsert;
    r.txn_id = 77;
    r.page_id = 4;
    r.key = 42;
    r.commit_ts = 31;
    r.value = "payload";
    recs.push_back(r);
  }
  {
    LogRecord r;
    r.type = LogRecordType::kLeafUpdate;
    r.txn_id = 78;
    r.page_id = 4;
    r.key = 42;
    r.commit_ts = 32;
    r.trim_ts = 30;
    r.tombstone = true;
    recs.push_back(r);
  }
  {
    LogRecord r;
    r.type = LogRecordType::kLeafDelete;
    r.page_id = 4;
    r.key = 42;
    recs.push_back(r);
  }
  {
    LogRecord r;
    r.type = LogRecordType::kInteriorInsert;
    r.page_id = 1;
    r.key = 9;
    r.child = 12;
    recs.push_back(r);
  }
  {
    LogRecord r;
    r.type = LogRecordType::kTxnCommit;
    r.txn_id = 5;
    r.commit_ts = 99;
    recs.push_back(r);
  }
  {
    LogRecord r;
    r.type = LogRecordType::kCheckpoint;
    r.commit_ts = 100;
    r.next_page_id = 17;
    recs.push_back(r);
  }
  {
    LogRecord r;
    r.type = LogRecordType::kSplitLeft;
    r.page_id = 4;
    r.key = 42;
    r.right_sibling = 19;
    r.split_count = 12;
    recs.push_back(r);
  }
  for (const auto& r : recs) {
    LogRecord d;
    ASSERT_TRUE(LogRecord::Decode(Slice(r.Encode()), &d).ok());
    EXPECT_EQ(d.type, r.type);
    EXPECT_EQ(d.txn_id, r.txn_id);
    EXPECT_EQ(d.page_id, r.page_id);
    EXPECT_EQ(d.key, r.key);
    EXPECT_EQ(d.value, r.value);
    EXPECT_EQ(d.tombstone, r.tombstone);
    EXPECT_EQ(d.trim_ts, r.trim_ts);
    EXPECT_EQ(d.child, r.child);
    EXPECT_EQ(d.right_sibling, r.right_sibling);
    EXPECT_EQ(d.split_count, r.split_count);
    EXPECT_EQ(d.commit_ts, r.commit_ts);
    EXPECT_EQ(d.next_page_id, r.next_page_id);
  }
}

TEST(LogRecordTest, DecodeRejectsTruncation) {
  LogRecord r;
  r.type = LogRecordType::kLeafInsert;
  r.key = 1;
  r.value = "abcdef";
  std::string enc = r.Encode();
  LogRecord d;
  EXPECT_TRUE(
      LogRecord::Decode(Slice(enc.data(), enc.size() - 3), &d)
          .IsCorruption());
  EXPECT_TRUE(LogRecord::Decode(Slice(""), &d).IsCorruption());
}

TEST(LogRecordTest, RedoIsIdempotent) {
  storage::Page page;
  BTreePage::Format(&page, 5, 0, kMinKey, kMaxKey, kInvalidPageId);
  page.set_page_lsn(100);

  LogRecord ins;
  ins.type = LogRecordType::kLeafInsert;
  ins.page_id = 5;
  ins.key = 7;
  ins.value = "val";
  // LSN 90 <= pageLSN 100: must be skipped.
  ASSERT_TRUE(ApplyToPage(ins, 90, &page).ok());
  BTreePage bp(&page);
  EXPECT_EQ(bp.FindSlot(7), -1);
  // LSN 110: applied, pageLSN advances.
  ASSERT_TRUE(ApplyToPage(ins, 110, &page).ok());
  EXPECT_GE(bp.FindSlot(7), 0);
  EXPECT_EQ(page.page_lsn(), 110u);
  // Re-applying the same record is a no-op, not a duplicate-key error.
  ASSERT_TRUE(ApplyToPage(ins, 110, &page).ok());
  EXPECT_EQ(bp.slot_count(), 1);
}

// A page whose bytes are all `fill` (what a recycled frame may hold),
// apart from a pageLSN low enough that redo applies to it.
storage::Page FilledPage(char fill) {
  storage::Page p;
  EXPECT_TRUE(p.FromSlice(Slice(std::string(kPageSize, fill))).ok());
  p.set_page_lsn(1);
  return p;
}

TEST(LogRecordTest, HoleFreeImagesRestoreExactPages) {
  // The three kinds of split image: a leaf, an interior page and a root
  // one level up, each built on a freshly formatted page.
  storage::Page leaf, interior, root;
  BTreePage::Format(&leaf, 7, 0, 100, 900, 8);
  for (uint64_t k = 100; k < 160; k++) {
    ASSERT_TRUE(
        BTreePage(&leaf).LeafInsert(k, Slice(std::string(k % 37, 'a'))).ok());
  }
  BTreePage::Format(&interior, 9, 1, 0, 5000, 12);
  for (uint64_t k = 0; k < 40; k++) {
    ASSERT_TRUE(BTreePage(&interior).InteriorInsert(k * 100, 20 + k).ok());
  }
  BTreePage::Format(&root, kRootPageId, 2, kMinKey, kMaxKey,
                    kInvalidPageId);
  ASSERT_TRUE(BTreePage(&root).InteriorInsert(kMinKey, 30).ok());
  ASSERT_TRUE(BTreePage(&root).InteriorInsert(5000, 31).ok());

  for (storage::Page* img : {&leaf, &interior, &root}) {
    LogRecord rec;
    rec.type = LogRecordType::kPageImage;
    rec.page_id = img->page_id();
    rec.value = img->HoleFreeImage();
    EXPECT_EQ(rec.value.size(),
              img->free_offset() + 2u * img->slot_count());
    LogRecord decoded;
    ASSERT_TRUE(LogRecord::Decode(Slice(rec.Encode()), &decoded).ok());
    storage::Page target = FilledPage('\xab');
    ASSERT_TRUE(ApplyToPage(decoded, 500, &target).ok());
    img->set_page_lsn(500);  // redo stamps the record's LSN
    EXPECT_EQ(0, memcmp(target.cdata(), img->cdata(), kPageSize))
        << "page " << img->page_id();
  }
}

TEST(LogRecordTest, PageImageLengthMismatchIsCorruption) {
  storage::Page img;
  BTreePage::Format(&img, 7, 0, kMinKey, kMaxKey, kInvalidPageId);
  for (uint64_t k = 0; k < 10; k++) {
    ASSERT_TRUE(BTreePage(&img).LeafInsert(k, Slice("value")).ok());
  }
  const std::string good = img.HoleFreeImage();
  std::string more_slots = good;
  EncodeFixed16(more_slots.data() + 24, img.slot_count() + 1);
  std::string past_page = good;
  EncodeFixed16(past_page.data() + 26, kPageSize);
  std::string inside_header = good;
  EncodeFixed16(inside_header.data() + 26, 8);
  const std::string bad[] = {
      good.substr(0, good.size() - 1),  // a byte short
      good + "x",                       // a byte long
      more_slots,                       // header claims one more slot
      past_page,                        // free_offset past the page
      inside_header,                    // free_offset inside the header
      good.substr(0, 20),               // shorter than the header
      std::string(),                    // empty
  };
  for (const std::string& value : bad) {
    LogRecord rec;
    rec.type = LogRecordType::kPageImage;
    rec.page_id = 7;
    rec.value = value;
    storage::Page target = FilledPage('\x5a');
    const std::string before = target.AsSlice().ToString();
    Status s = ApplyToPage(rec, 500, &target);
    EXPECT_TRUE(s.IsCorruption()) << value.size() << ": " << s.ToString();
    EXPECT_EQ(target.AsSlice().ToString(), before);  // left alone
  }
}

TEST(LogRecordTest, LeafRecordsCarryOnlyTheNewVersion) {
  storage::Page page;
  BTreePage::Format(&page, 5, 0, kMinKey, kMaxKey, kInvalidPageId);
  LogRecord rec;
  rec.type = LogRecordType::kLeafInsert;
  rec.page_id = 5;
  rec.key = 9;
  rec.commit_ts = 1;
  rec.value = std::string(100, 'p');
  ASSERT_TRUE(ApplyToPage(rec, 100, &page).ok());
  const size_t insert_bytes = rec.Encode().size();
  // Ten updates, no trimming: the chain grows to the cap while each
  // record stays the size of one version.
  rec.type = LogRecordType::kLeafUpdate;
  for (int i = 2; i <= 11; i++) {
    rec.commit_ts = i;
    rec.trim_ts = 0;
    ASSERT_TRUE(ApplyToPage(rec, 100 * i, &page).ok());
    EXPECT_EQ(rec.Encode().size(), insert_bytes + 8);  // + trim_ts
  }
  BTreePage bp(&page);
  std::vector<VersionView> chain = Versions(bp.LeafValueAt(bp.FindSlot(9)));
  ASSERT_EQ(chain.size(), kMaxChainLength);
  EXPECT_EQ(chain[0].commit_ts, 11u);
  // An update that is not in the leaf, or an insert that is, fails.
  rec.key = 10;
  EXPECT_TRUE(ApplyToPage(rec, 5000, &page).IsNotFound());
  rec.type = LogRecordType::kLeafInsert;
  rec.key = 9;
  EXPECT_TRUE(ApplyToPage(rec, 5000, &page).IsInvalidArgument());
}

TEST(VersionChainTest, EncodePushedMatchesPushTrimCap) {
  // Every (chain length, trim point) pair: the encoding-level push must
  // produce the bytes Push + Trim + Cap + Encode would.
  for (int len = 0; len <= 10; len++) {
    VersionChain old;
    for (int i = 1; i <= len; i++) {
      old.Push(i * 10, i % 3 == 0, Slice(std::string(i, 'a' + i)));
    }
    const std::string old_enc = len == 0 ? std::string() : old.Encode();
    for (Timestamp trim : {0, 5, 10, 25, 40, 100, 200}) {
      for (bool tomb : {false, true}) {
        VersionChain want = old;
        want.Push(150, tomb, Slice("new"));
        want.Trim(trim);
        want.Cap(kMaxChainLength);
        std::string got;
        ASSERT_TRUE(EncodePushed(Slice(old_enc), 150, tomb, Slice("new"),
                                 trim, &got));
        EXPECT_EQ(got, want.Encode()) << len << " " << trim << " " << tomb;
        // A committer sizes the push before writing it; a new row's plan
        // reads no chain.
        PushPlan plan;
        if (len > 0) {
          ASSERT_TRUE(plan.Read(Slice(old_enc)));
        }
        EXPECT_EQ(plan.PushedSize(150, 3, trim), got.size());
      }
    }
  }
  std::string out;
  EXPECT_FALSE(EncodePushed(Slice("\x02\x00\x01", 3), 9, false,
                            Slice("x"), 0, &out));
}

TEST(LogRecordTest, ForEachRecordWalksFrames) {
  std::string stream;
  for (int i = 0; i < 3; i++) {
    LogRecord r;
    r.type = LogRecordType::kTxnCommit;
    r.commit_ts = i + 1;
    FrameRecord(&stream, Slice(r.Encode()));
  }
  std::vector<Lsn> lsns;
  std::vector<Timestamp> tss;
  ASSERT_TRUE(ForEachRecord(Slice(stream), 16, [&](Lsn lsn, Slice p) {
                lsns.push_back(lsn);
                LogRecord d;
                EXPECT_TRUE(LogRecord::Decode(p, &d).ok());
                tss.push_back(d.commit_ts);
                return true;
              }).ok());
  ASSERT_EQ(lsns.size(), 3u);
  EXPECT_EQ(lsns[0], 16u);
  EXPECT_EQ(tss, (std::vector<Timestamp>{1, 2, 3}));
  // Partial trailing frame is end-of-stream, not corruption.
  std::string truncated = stream.substr(0, stream.size() - 5);
  int count = 0;
  ASSERT_TRUE(ForEachRecord(Slice(truncated), 16, [&](Lsn, Slice) {
                count++;
                return true;
              }).ok());
  EXPECT_EQ(count, 2);
}

// ------------------------------------------------------------ BufferPool

// A fetcher serving formatted pages from an in-memory "remote" map.
class MapFetcher : public PageFetcher {
 public:
  explicit MapFetcher(Simulator& sim) : sim_(sim) {}

  Task<Result<storage::Page>> FetchPage(PageId page_id) override {
    co_await sim::Delay(sim_, 300);  // remote round trip
    fetches_++;
    auto it = pages_.find(page_id);
    if (it == pages_.end()) {
      co_return Result<storage::Page>(Status::NotFound("no such page"));
    }
    co_return it->second;
  }

  std::map<PageId, storage::Page> pages_;
  int fetches_ = 0;

 private:
  Simulator& sim_;
};

storage::Page MakeLeafPage(PageId id, Lsn lsn) {
  storage::Page p;
  BTreePage::Format(&p, id, 0, kMinKey, kMaxKey, kInvalidPageId);
  p.set_page_lsn(lsn);
  return p;
}

TEST(BufferPoolTest, MissThenMemHit) {
  Simulator s;
  MapFetcher fetcher(s);
  fetcher.pages_[7] = MakeLeafPage(7, 50);
  BufferPoolOptions opts;
  opts.mem_pages = 4;
  BufferPool pool(s, opts, &fetcher);
  RunSim(s, [&]() -> Task<> {
    auto r1 = co_await pool.GetPage(7);
    EXPECT_TRUE(r1.ok());
    EXPECT_EQ(r1->page()->page_id(), 7u);
    auto r2 = co_await pool.GetPage(7);
    EXPECT_TRUE(r2.ok());
  });
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().mem_hits, 1u);
  EXPECT_EQ(fetcher.fetches_, 1);
}

TEST(BufferPoolTest, ConcurrentMissesDeduplicated) {
  Simulator s;
  MapFetcher fetcher(s);
  fetcher.pages_[7] = MakeLeafPage(7, 50);
  BufferPoolOptions opts;
  BufferPool pool(s, opts, &fetcher);
  int done = 0;
  for (int i = 0; i < 5; i++) {
    Spawn(s, [](BufferPool& p, int* d) -> Task<> {
      auto r = co_await p.GetPage(7);
      EXPECT_TRUE(r.ok());
      (*d)++;
    }(pool, &done));
  }
  s.Run();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(fetcher.fetches_, 1);  // one remote fetch for five callers
}

TEST(BufferPoolTest, EvictionToSsdAndPromotion) {
  Simulator s;
  MapFetcher fetcher(s);
  for (PageId id = 1; id <= 10; id++) {
    fetcher.pages_[id] = MakeLeafPage(id, 10 * id);
  }
  BufferPoolOptions opts;
  opts.mem_pages = 3;
  opts.ssd_pages = 10;
  BufferPool pool(s, opts, &fetcher);
  RunSim(s, [&]() -> Task<> {
    for (PageId id = 1; id <= 10; id++) {
      auto r = co_await pool.GetPage(id);
      EXPECT_TRUE(r.ok());
    }
    // Pages 1..7 must have spilled to SSD; re-reading one is an SSD hit.
    auto r = co_await pool.GetPage(1);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->page()->page_id(), 1u);
  });
  EXPECT_EQ(pool.stats().ssd_hits, 1u);
  EXPECT_EQ(fetcher.fetches_, 10);  // no refetch for the SSD hit
}

TEST(BufferPoolTest, EvictionCallbackReportsDepartures) {
  Simulator s;
  MapFetcher fetcher(s);
  for (PageId id = 1; id <= 6; id++) {
    fetcher.pages_[id] = MakeLeafPage(id, 100 + id);
  }
  BufferPoolOptions opts;
  opts.mem_pages = 2;
  opts.ssd_pages = 2;
  BufferPool pool(s, opts, &fetcher);
  std::map<PageId, Lsn> evicted;
  pool.set_eviction_callback(
      [&](PageId id, Lsn lsn) { evicted[id] = lsn; });
  RunSim(s, [&]() -> Task<> {
    for (PageId id = 1; id <= 6; id++) {
      auto r = co_await pool.GetPage(id);
      EXPECT_TRUE(r.ok());
    }
  });
  // 6 pages through mem(2)+ssd(2): at least two fully evicted with LSNs.
  EXPECT_GE(evicted.size(), 2u);
  for (auto& [id, lsn] : evicted) {
    EXPECT_EQ(lsn, 100 + id);
  }
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  Simulator s;
  MapFetcher fetcher(s);
  for (PageId id = 1; id <= 5; id++) {
    fetcher.pages_[id] = MakeLeafPage(id, id);
  }
  BufferPoolOptions opts;
  opts.mem_pages = 2;
  BufferPool pool(s, opts, &fetcher);
  RunSim(s, [&]() -> Task<> {
    auto pinned = co_await pool.GetPage(1);
    EXPECT_TRUE(pinned.ok());
    storage::Page* raw = pinned->page();
    for (PageId id = 2; id <= 5; id++) {
      auto r = co_await pool.GetPage(id);
      EXPECT_TRUE(r.ok());
    }
    // Page 1 is still valid and identical through the pin.
    EXPECT_EQ(raw->page_id(), 1u);
    auto again = co_await pool.GetPage(1);
    EXPECT_TRUE(again.ok());
    EXPECT_EQ(again->page(), raw);  // same frame, not refetched
  });
  EXPECT_EQ(fetcher.fetches_, 5);
}

TEST(BufferPoolTest, RbpexSurvivesCrashAndRecovers) {
  Simulator s;
  MapFetcher fetcher(s);
  for (PageId id = 1; id <= 8; id++) {
    fetcher.pages_[id] = MakeLeafPage(id, 10 + id);
  }
  BufferPoolOptions opts;
  opts.mem_pages = 2;
  opts.ssd_pages = 8;
  opts.ssd_recoverable = true;
  BufferPool pool(s, opts, &fetcher);
  RunSim(s, [&]() -> Task<> {
    for (PageId id = 1; id <= 8; id++) {
      (void)co_await pool.GetPage(id);
    }
  });
  int fetches_before = fetcher.fetches_;
  pool.Crash();
  size_t recovered = pool.Recover(/*durable_end_lsn=*/1000);
  RunSim(s, [&]() -> Task<> {
    // Reading a recovered page hits SSD, not the remote fetcher.
    auto p = co_await pool.GetPage(3);
    EXPECT_TRUE(p.ok());
    EXPECT_EQ(p->page()->page_lsn(), 13u);
  });
  EXPECT_GE(recovered, 6u);
  EXPECT_EQ(fetcher.fetches_, fetches_before);  // warm cache: no refetch
}

TEST(BufferPoolTest, RecoverDiscardsUnhardenedPages) {
  Simulator s;
  MapFetcher fetcher(s);
  fetcher.pages_[1] = MakeLeafPage(1, 100);
  fetcher.pages_[2] = MakeLeafPage(2, 999);  // "speculative" page
  BufferPoolOptions opts;
  opts.mem_pages = 1;
  opts.ssd_pages = 4;
  BufferPool pool(s, opts, &fetcher);
  RunSim(s, [&]() -> Task<> {
    (void)co_await pool.GetPage(1);
    (void)co_await pool.GetPage(2);
    (void)co_await pool.GetPage(1);  // force 2 out of mem too
  });
  pool.Crash();
  pool.Recover(/*durable_end_lsn=*/500);
  // Page 2 (LSN 999 > 500) must have been discarded.
  EXPECT_FALSE(pool.Contains(2));
}

TEST(BufferPoolTest, NonRecoverableBpeLosesSsdOnCrash) {
  Simulator s;
  MapFetcher fetcher(s);
  for (PageId id = 1; id <= 4; id++) {
    fetcher.pages_[id] = MakeLeafPage(id, id);
  }
  BufferPoolOptions opts;
  opts.mem_pages = 1;
  opts.ssd_pages = 4;
  opts.ssd_recoverable = false;
  BufferPool pool(s, opts, &fetcher);
  RunSim(s, [&]() -> Task<> {
    for (PageId id = 1; id <= 4; id++) {
      (void)co_await pool.GetPage(id);
    }
  });
  pool.Crash();
  EXPECT_EQ(pool.ssd_resident(), 0u);
  EXPECT_EQ(pool.Recover(1000), 0u);
}

TEST(BufferPoolTest, DirtyTracking) {
  Simulator s;
  MapFetcher fetcher(s);
  fetcher.pages_[1] = MakeLeafPage(1, 5);
  fetcher.pages_[2] = MakeLeafPage(2, 5);
  BufferPoolOptions opts;
  BufferPool pool(s, opts, &fetcher);
  RunSim(s, [&]() -> Task<> {
    auto a = co_await pool.GetPage(1);
    auto b = co_await pool.GetPage(2);
    a.value().MarkDirty();
  });
  auto dirty = pool.DirtyPages();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 1u);
  pool.ClearDirty(1);
  EXPECT_TRUE(pool.DirtyPages().empty());
}

// ------------------------------------------------------- BTree end-to-end

struct TreeFixture {
  Simulator sim;
  MemLogSink sink{sim};
  BufferPoolOptions opts;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<BTree> tree;

  explicit TreeFixture(size_t mem_pages = 4096) {
    opts.mem_pages = mem_pages;
    pool = std::make_unique<BufferPool>(sim, opts, nullptr);
    tree = std::make_unique<BTree>(sim, pool.get(), &sink);
    Spawn(sim, [](BTree* t) -> Task<> {
      Status s = co_await t->Create();
      EXPECT_TRUE(s.ok());
    }(tree.get()));
    sim.Run();
  }
};

// Store `v` as the only version of `key`: trimming at the commit
// timestamp drops every older version.
Task<Status> WriteOne(BTree* tree, uint64_t key, Timestamp ts,
                      std::string v) {
  co_return co_await tree->Write(1, key, ts, false, Slice(v), ts);
}

TEST(BTreeTest, InsertAndFind) {
  TreeFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    EXPECT_TRUE(
        (co_await WriteOne(f.tree.get(), 42, 1, "hello")).ok());
    auto r = co_await f.tree->Find(42);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(Versions(r->chain)[0].payload.ToString(), "hello");
    }
    auto miss = co_await f.tree->Find(43);
    EXPECT_TRUE(miss.status().IsNotFound());
  });
}

TEST(BTreeTest, UpdatePushesVersion) {
  TreeFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    (void)co_await WriteOne(f.tree.get(), 5, 1, "a");
    (void)co_await f.tree->Write(1, 5, 2, false, Slice("b"),
                                 /*trim_ts=*/0);
    auto r = co_await f.tree->Find(5);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    std::vector<VersionView> chain = Versions(r->chain);
    EXPECT_EQ(chain.size(), 2u);
    if (!chain.empty()) {
      EXPECT_EQ(chain[0].payload.ToString(), "b");
    }
  });
}

TEST(BTreeTest, ManyInsertsForceSplitsAndStayFindable) {
  TreeFixture f;
  const int kN = 3000;
  RunSim(f.sim, [&]() -> Task<> {
    Random rng(7);
    std::vector<uint64_t> keys;
    for (int i = 0; i < kN; i++) keys.push_back(i * 7919 % 100000);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    Shuffle(&keys, &rng);
    for (uint64_t k : keys) {
      Status s =
          co_await WriteOne(f.tree.get(), k, 1, "v" + std::to_string(k));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    for (uint64_t k : keys) {
      auto r = co_await f.tree->Find(k);
      EXPECT_TRUE(r.ok()) << "key " << k;
      if (r.ok()) {
        EXPECT_EQ(Versions(r->chain)[0].payload.ToString(),
                  "v" + std::to_string(k));
      }
    }
  });
  EXPECT_GT(f.tree->next_page_id(), 3u);  // splits happened
}

TEST(BTreeTest, ScanReturnsSortedRange) {
  TreeFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    for (uint64_t k = 0; k < 500; k++) {
      (void)co_await WriteOne(f.tree.get(), k * 2, 1, "v");
    }
    std::vector<uint64_t> seen;
    auto r = co_await f.tree->Scan(100, 50,
                                   [&](uint64_t k, Slice) {
                                     seen.push_back(k);
                                     return true;
                                   });
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(seen.size(), 50u);
    if (seen.size() != 50u) co_return;
    EXPECT_EQ(seen.front(), 100u);
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    EXPECT_EQ(seen.back(), 198u);
  });
}

// One kSplitLeft in a log stream: the page's slot count before the
// split, and how many records its right image (logged just before) took.
struct SplitSeen {
  PageId page_id = kInvalidPageId;
  int count = 0;
  int right_records = 0;
};

std::vector<SplitSeen> SplitsInLog(Slice stream) {
  std::vector<SplitSeen> splits;
  std::map<PageId, int> image_records;
  EXPECT_TRUE(ForEachRecord(stream, kLogStreamStart, [&](Lsn, Slice p) {
                LogRecord rec;
                EXPECT_TRUE(LogRecord::Decode(p, &rec).ok());
                if (rec.type == LogRecordType::kPageImage) {
                  storage::Page page;
                  EXPECT_TRUE(
                      page.FromHoleFreeImage(Slice(rec.value)).ok());
                  image_records[rec.page_id] = BTreePage(&page).slot_count();
                } else if (rec.type == LogRecordType::kSplitLeft) {
                  splits.push_back({rec.page_id, rec.split_count,
                                    image_records[rec.right_sibling]});
                }
                return true;
              }).ok());
  return splits;
}

// Records per page of `tree`'s leaves, and how many records of the
// first leaf's chain size an empty leaf holds.
struct LeafFill {
  std::vector<int> records;  // per leaf, in page-id order, rightmost last
  int page_capacity = 0;
};

Task<LeafFill> MeasureLeaves(TreeFixture* f) {
  LeafFill fill;
  int rightmost = -1;
  uint32_t chain_size = 0;
  for (PageId id = kRootPageId; id < f->tree->next_page_id(); id++) {
    auto page = co_await f->pool->GetPage(id);
    EXPECT_TRUE(page.ok());
    if (!page.ok()) continue;
    BTreePage bp(page->page());
    if (!bp.is_leaf()) continue;
    if (chain_size == 0 && bp.slot_count() > 0) {
      chain_size = static_cast<uint32_t>(bp.LeafValueAt(0).size());
    }
    if (bp.high_fence() == kMaxKey) {
      rightmost = bp.slot_count();
    } else {
      fill.records.push_back(bp.slot_count());
    }
  }
  EXPECT_GE(rightmost, 0);
  fill.records.push_back(rightmost);
  storage::Page empty;
  BTreePage::Format(&empty, 1, 0, kMinKey, kMaxKey, kInvalidPageId);
  BTreePage ep(&empty);
  const std::string chain(chain_size, 'c');
  while (ep.CanHostLeafInsert(chain_size)) {
    EXPECT_TRUE(ep.LeafInsert(fill.page_capacity++, Slice(chain)).ok());
  }
  co_return fill;
}

TEST(BTreeTest, AscendingLoadFillsEveryLeafButTheLast) {
  TreeFixture f;
  LeafFill fill;
  RunSim(f.sim, [&]() -> Task<> {
    for (uint64_t k = 0; k < 20000; k++) {
      EXPECT_TRUE(
          (co_await WriteOne(f.tree.get(), k, 1, std::string(100, 'x')))
              .ok());
    }
    fill = co_await MeasureLeaves(&f);
  });
  ASSERT_GT(fill.records.size(), 100u);
  ASSERT_GT(fill.page_capacity, 10);
  for (size_t i = 0; i + 1 < fill.records.size(); i++) {
    EXPECT_GE(fill.records[i], fill.page_capacity - 1) << "leaf " << i;
  }
}

TEST(BTreeTest, RandomOrderLoadStillSplitsAtTheMiddle) {
  TreeFixture f;
  LeafFill fill;
  RunSim(f.sim, [&]() -> Task<> {
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 20000; k++) keys.push_back(k);
    Random rng(5);
    Shuffle(&keys, &rng);
    for (uint64_t k : keys) {
      EXPECT_TRUE(
          (co_await WriteOne(f.tree.get(), k, 1, std::string(100, 'x')))
              .ok());
    }
    fill = co_await MeasureLeaves(&f);
  });
  int middle = 0, other = 0;
  for (const SplitSeen& split : SplitsInLog(Slice(f.sink.stream()))) {
    (split.right_records == split.count - split.count / 2 ? middle
                                                           : other)++;
  }
  // A random key lands past a page's last record about once per page
  // fill; nearly every split is at the middle.
  EXPECT_GT(middle, 100);
  EXPECT_LT(other * 10, middle);
  // So leaves end up partly full, as a middle-split B-tree's do.
  double records = 0;
  for (int n : fill.records) records += n;
  const double mean_fill =
      records / fill.records.size() / fill.page_capacity;
  EXPECT_GT(mean_fill, 0.55);
  EXPECT_LT(mean_fill, 0.85);
}

// Differential test: random upserts/erases vs std::map, with big values to
// force frequent splits, verified by full scan.
TEST(BTreePropertyTest, MatchesModelUnderRandomOps) {
  TreeFixture f(8192);
  std::map<uint64_t, std::string> model;
  RunSim(f.sim, [&]() -> Task<> {
    Random rng(99);
    for (int op = 0; op < 4000; op++) {
      uint64_t key = rng.Uniform(800);
      if (rng.Bernoulli(0.75) || model.count(key) == 0) {
        std::string v(64 + rng.Uniform(400), 'a' + key % 26);
        (void)co_await WriteOne(f.tree.get(), key, 1, v);
        model[key] = v;
      } else {
        Status s = co_await f.tree->Erase(1, key);
        EXPECT_TRUE(s.ok());
        model.erase(key);
      }
      if (op % 500 == 499) {
        std::vector<std::pair<uint64_t, std::string>> found;
        auto r = co_await f.tree->Scan(
            0, SIZE_MAX, [&](uint64_t k, Slice chain) {
              found.emplace_back(k, Versions(chain)[0].payload.ToString());
              return true;
            });
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(found.size(), model.size()) << "op " << op;
        auto mit = model.begin();
        for (size_t i = 0; i < found.size() && mit != model.end();
             i++, ++mit) {
          EXPECT_EQ(found[i].first, mit->first);
          EXPECT_EQ(found[i].second, mit->second);
        }
      }
    }
  });
}

// Replay the complete log into a second pool: the replica must match.
TEST(BTreeTest, LogReplayReproducesTree) {
  TreeFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    for (uint64_t k = 0; k < 1500; k++) {
      (void)co_await WriteOne(f.tree.get(), k * 3, 1,
                              std::string(100, 'x'));
    }
  });

  BufferPoolOptions opts;
  opts.mem_pages = 1 << 20;
  BufferPool replica_pool(f.sim, opts, nullptr);
  RedoApplier applier(f.sim, &replica_pool,
                      RedoApplier::MissPolicy::kMaterialize);
  BTree replica(f.sim, &replica_pool, nullptr);
  RunSim(f.sim, [&]() -> Task<> {
    auto r = co_await applier.ApplyStream(Slice(f.sink.stream()),
                                          kLogStreamStart);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    for (uint64_t k = 0; k < 1500; k++) {
      auto v = co_await replica.Find(k * 3);
      EXPECT_TRUE(v.ok()) << "key " << k * 3;
    }
  });
  EXPECT_EQ(applier.applied_lsn().value(), f.sink.end_lsn());
}

// Every split kind through the log: leaf and interior splits (a right
// image plus a kSplitLeft record) at the middle and at the end of the
// page, and root splits (three images). The replayed pages must equal
// the Primary's byte for byte.
TEST(BTreeTest, LogReplayReproducesEveryPageByteForByte) {
  TreeFixture f;
  const int kKeys = 20000;
  const int kAscendingKeys = 30000;
  RunSim(f.sim, [&]() -> Task<> {
    std::vector<uint64_t> keys;
    for (int i = 0; i < kKeys; i++) keys.push_back(i);
    Random rng(11);
    Shuffle(&keys, &rng);
    // Then an ascending tail: append splits of leaves and interiors.
    for (int i = 0; i < kAscendingKeys; i++) keys.push_back(kKeys + i);
    for (uint64_t k : keys) {
      EXPECT_TRUE((co_await WriteOne(f.tree.get(), k, 1,
                                     std::string(150, 'a' + k % 26)))
                      .ok());
    }
  });
  int middle_splits = 0;
  std::vector<PageId> appended;  // pages split at their last record
  for (const SplitSeen& split : SplitsInLog(Slice(f.sink.stream()))) {
    if (split.right_records == 1) {
      appended.push_back(split.page_id);
    } else {
      middle_splits++;
    }
  }
  EXPECT_GT(middle_splits, 0);
  int interior_appends = 0;
  RunSim(f.sim, [&]() -> Task<> {
    for (PageId id : appended) {
      auto page = co_await f.pool->GetPage(id);
      EXPECT_TRUE(page.ok());
      if (page.ok() && !BTreePage(page->page()).is_leaf()) {
        interior_appends++;
      }
    }
  });
  EXPECT_GT(appended.size() - interior_appends, 0u);  // leaf appends
  EXPECT_GT(interior_appends, 0);

  BufferPoolOptions opts;
  opts.mem_pages = 1 << 20;
  BufferPool replica_pool(f.sim, opts, nullptr);
  RedoApplier applier(f.sim, &replica_pool,
                      RedoApplier::MissPolicy::kMaterialize);
  RunSim(f.sim, [&]() -> Task<> {
    auto r = co_await applier.ApplyStream(Slice(f.sink.stream()),
                                          kLogStreamStart);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    auto root = co_await f.pool->GetPage(kRootPageId);
    EXPECT_TRUE(root.ok());
    if (root.ok()) {
      EXPECT_GE(BTreePage(root->page()).level(), 2u);  // interior split
    }
    for (PageId id = kRootPageId; id < f.tree->next_page_id(); id++) {
      auto want = co_await f.pool->GetPage(id);
      auto got = co_await replica_pool.GetPage(id);
      EXPECT_TRUE(want.ok() && got.ok()) << "page " << id;
      if (!want.ok() || !got.ok()) continue;
      EXPECT_EQ(0, memcmp(want->page()->cdata(), got->page()->cdata(),
                          kPageSize))
          << "page " << id;
    }
  });
}

TEST(LogRecordTest, SplitLeftChecksItsSeparator) {
  auto ten_keys = [](storage::Page* page) {
    BTreePage::Format(page, 5, 0, kMinKey, kMaxKey, kInvalidPageId);
    for (uint64_t k = 0; k < 10; k++) {
      ASSERT_TRUE(BTreePage(page).LeafInsert(k * 10, Slice("v")).ok());
    }
  };
  storage::Page page;
  ten_keys(&page);
  LogRecord rec;
  rec.type = LogRecordType::kSplitLeft;
  rec.page_id = 5;
  rec.right_sibling = 6;
  rec.split_count = 10;
  rec.key = 45;  // not a key of the page
  EXPECT_TRUE(ApplyToPage(rec, 100, &page).IsCorruption());
  rec.key = 50;
  rec.split_count = 11;  // the page has 10 records
  EXPECT_TRUE(ApplyToPage(rec, 100, &page).IsCorruption());
  rec.split_count = 10;
  rec.key = 0;  // slot 0 would leave the left page empty
  EXPECT_TRUE(ApplyToPage(rec, 100, &page).IsCorruption());
  rec.key = 100;  // past the last record: the right page would be empty
  EXPECT_TRUE(ApplyToPage(rec, 100, &page).IsCorruption());
  EXPECT_EQ(page.page_lsn(), 0u);
  EXPECT_EQ(BTreePage(&page).slot_count(), 10);

  rec.key = 50;
  ASSERT_TRUE(ApplyToPage(rec, 100, &page).ok());
  BTreePage bp(&page);
  EXPECT_EQ(bp.slot_count(), 5);
  EXPECT_EQ(bp.high_fence(), 50u);
  EXPECT_EQ(bp.right_sibling(), 6u);
  EXPECT_EQ(page.page_lsn(), 100u);

  // An append split keeps all but the last record.
  storage::Page full;
  ten_keys(&full);
  rec.key = 90;
  ASSERT_TRUE(ApplyToPage(rec, 100, &full).ok());
  EXPECT_EQ(BTreePage(&full).slot_count(), 9);
  EXPECT_EQ(BTreePage(&full).high_fence(), 90u);
}

// --------------------------------------------------------------- Engine

struct EngineFixture {
  Simulator sim;
  MemLogSink sink{sim};
  BufferPoolOptions opts;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<Engine> engine;

  EngineFixture() {
    opts.mem_pages = 1 << 18;
    pool = std::make_unique<BufferPool>(sim, opts, nullptr);
    engine = std::make_unique<Engine>(sim, pool.get(), &sink);
    Spawn(sim, [](Engine* e) -> Task<> {
      EXPECT_TRUE((co_await e->Bootstrap()).ok());
    }(engine.get()));
    sim.Run();
  }
};

TEST(EngineTest, CommitThenRead) {
  EngineFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin();
    EXPECT_TRUE(f.engine->Put(txn.get(), MakeKey(1, 10), "row-a").ok());
    EXPECT_TRUE(f.engine->Put(txn.get(), MakeKey(1, 11), "row-b").ok());
    EXPECT_TRUE((co_await f.engine->Commit(txn.get())).ok());

    auto reader = f.engine->Begin(true);
    auto v = co_await f.engine->Get(reader.get(), MakeKey(1, 10));
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(*v, "row-a");
    (void)co_await f.engine->Commit(reader.get());
  });
  EXPECT_EQ(f.engine->stats().commits, 1u);
}

TEST(EngineTest, ReadYourWrites) {
  EngineFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    auto txn = f.engine->Begin();
    (void)f.engine->Put(txn.get(), 5, "mine");
    auto v = co_await f.engine->Get(txn.get(), 5);
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(*v, "mine");
    (void)f.engine->Delete(txn.get(), 5);
    auto gone = co_await f.engine->Get(txn.get(), 5);
    EXPECT_TRUE(gone.status().IsNotFound());
    f.engine->Abort(txn.get());
  });
}

TEST(EngineTest, SnapshotIsolationReadersDontSeeLaterCommits) {
  EngineFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    auto w1 = f.engine->Begin();
    (void)f.engine->Put(w1.get(), 100, "v1");
    (void)co_await f.engine->Commit(w1.get());

    auto reader = f.engine->Begin(true);  // snapshot at v1

    auto w2 = f.engine->Begin();
    (void)f.engine->Put(w2.get(), 100, "v2");
    (void)co_await f.engine->Commit(w2.get());

    auto v = co_await f.engine->Get(reader.get(), 100);
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(*v, "v1");  // still the old snapshot
    (void)co_await f.engine->Commit(reader.get());

    auto fresh = f.engine->Begin(true);
    auto v2 = co_await f.engine->Get(fresh.get(), 100);
    EXPECT_EQ(*v2, "v2");
    (void)co_await f.engine->Commit(fresh.get());
  });
}

TEST(EngineTest, WriteWriteConflictAborts) {
  EngineFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    auto seed = f.engine->Begin();
    (void)f.engine->Put(seed.get(), 7, "base");
    (void)co_await f.engine->Commit(seed.get());

    auto t1 = f.engine->Begin();
    auto t2 = f.engine->Begin();
    (void)f.engine->Put(t1.get(), 7, "from-t1");
    (void)f.engine->Put(t2.get(), 7, "from-t2");
    EXPECT_TRUE((co_await f.engine->Commit(t1.get())).ok());
    EXPECT_TRUE((co_await f.engine->Commit(t2.get())).IsAborted());

    auto check = f.engine->Begin(true);
    auto v = co_await f.engine->Get(check.get(), 7);
    EXPECT_EQ(*v, "from-t1");
    (void)co_await f.engine->Commit(check.get());
  });
  EXPECT_EQ(f.engine->stats().conflicts, 1u);
}

TEST(EngineTest, FailedCommitStillLetsLaterCommitsTrim) {
  EngineFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    // A version chain too large for a page fails phase 2 of Commit.
    auto big = f.engine->Begin();
    (void)f.engine->Put(big.get(), 1, std::string(kPageSize, 'x'));
    Status s = co_await f.engine->Commit(big.get());
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    // The failed transaction no longer pins the trim watermark...
    EXPECT_EQ(f.engine->OldestActiveTs(), f.engine->last_committed_ts());
    // ...so rewriting a key keeps only the versions a live snapshot (the
    // writer's own) can need, not the whole history.
    for (int i = 0; i < 4; i++) {
      auto w = f.engine->Begin();
      (void)f.engine->Put(w.get(), 2, "v" + std::to_string(i));
      EXPECT_TRUE((co_await f.engine->Commit(w.get())).ok());
    }
    auto chain = co_await f.engine->btree()->Find(2);
    EXPECT_TRUE(chain.ok());
    if (chain.ok()) {
      EXPECT_LE(Versions(chain->chain).size(), 2u);
    }
  });
  EXPECT_EQ(f.engine->stats().aborts, 1u);
}

TEST(EngineTest, FailedCommitLeavesNoOrphanVersions) {
  // Phase 2 writes a commit's keys in key order. When a later key's chain
  // cannot fit in a page, the earlier keys must not keep the failed
  // commit's versions: no commit record covers them, yet the next commit
  // would make them visible.
  EngineFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    const std::string big(1500, 'b');
    auto load = f.engine->Begin();
    (void)f.engine->Put(load.get(), 1, "low-old");
    (void)f.engine->Put(load.get(), 2, big);
    EXPECT_TRUE((co_await f.engine->Commit(load.get())).ok());
    // An old snapshot pins trimming, so key 2 keeps every version.
    auto pin = f.engine->Begin(true);
    auto grow = f.engine->Begin();
    (void)f.engine->Put(grow.get(), 2, big);
    EXPECT_TRUE((co_await f.engine->Commit(grow.get())).ok());
    // A third 1500-byte version does not fit: the whole commit fails.
    const Lsn log_end = f.sink.end_lsn();
    auto both = f.engine->Begin();
    (void)f.engine->Put(both.get(), 1, "low-orphan");
    (void)f.engine->Put(both.get(), 2, big);
    Status s = co_await f.engine->Commit(both.get());
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_EQ(f.sink.end_lsn(), log_end);  // nothing was logged
    // The next commit moves last_committed_ts past the failed one.
    auto other = f.engine->Begin();
    (void)f.engine->Put(other.get(), 3, "other");
    EXPECT_TRUE((co_await f.engine->Commit(other.get())).ok());
    auto fresh = f.engine->Begin(true);
    auto low = co_await f.engine->Get(fresh.get(), 1);
    EXPECT_TRUE(low.ok());
    if (low.ok()) {
      EXPECT_EQ(*low, "low-old");
    }
    (void)co_await f.engine->Commit(fresh.get());
    // Once the snapshot is gone, trimming makes room for the version.
    (void)co_await f.engine->Commit(pin.get());
    auto retry = f.engine->Begin();
    (void)f.engine->Put(retry.get(), 2, big);
    EXPECT_TRUE((co_await f.engine->Commit(retry.get())).ok());
  });
  EXPECT_EQ(f.engine->stats().aborts, 1u);
}

// A Page Server for an engine whose pool is smaller than its tree: a
// fetch takes one round trip, applies the engine's log through its end to
// a replica pool and serves the page from there. Fetches past `budget_`
// fail, as in a Page-Server outage.
class RedoFetcher : public PageFetcher {
 public:
  RedoFetcher(Simulator& sim, const MemLogSink* log)
      : sim_(sim),
        log_(log),
        pool_(sim, BufferPoolOptions{1 << 18, 0, true}, nullptr),
        applier_(sim, &pool_, RedoApplier::MissPolicy::kMaterialize) {}

  Task<Result<storage::Page>> FetchPage(PageId page_id) override {
    co_await sim::Delay(sim_, 300);
    if (++fetches_ > budget_) {
      co_return Result<storage::Page>(Status::Unavailable("outage"));
    }
    const std::string& log = log_->stream();
    const size_t from = applied_ - kLogStreamStart;
    Result<Lsn> applied = co_await applier_.ApplyStream(
        Slice(log.data() + from, log.size() - from), applied_);
    if (!applied.ok()) co_return Result<storage::Page>(applied.status());
    applied_ = std::max(applied_, *applied);
    Result<PageRef> ref = co_await pool_.GetPage(page_id);
    if (!ref.ok()) co_return Result<storage::Page>(ref.status());
    co_return *ref->page();
  }

  int fetches_ = 0;
  int budget_ = std::numeric_limits<int>::max();

 private:
  Simulator& sim_;
  const MemLogSink* log_;
  BufferPool pool_;
  RedoApplier applier_;
  Lsn applied_ = kLogStreamStart;
};

// An engine over a 16-frame pool (no SSD tier) holding 2000 rows of 200
// bytes, about 35 to a leaf: the rows below 1000 are not cached.
struct ColdEngineFixture {
  static constexpr uint64_t kRows = 2000;
  Simulator sim;
  MemLogSink sink{sim};
  RedoFetcher fetcher{sim, &sink};
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<Engine> engine;

  ColdEngineFixture() {
    BufferPoolOptions opts;
    opts.mem_pages = 16;
    pool = std::make_unique<BufferPool>(sim, opts, &fetcher);
    engine = std::make_unique<Engine>(sim, pool.get(), &sink);
    RunSim(sim, [this]() -> Task<> {
      EXPECT_TRUE((co_await engine->Bootstrap()).ok());
      for (uint64_t row = 0; row < kRows; row += 100) {
        auto load = engine->Begin();
        for (uint64_t i = row; i < row + 100; i++) {
          (void)engine->Put(load.get(), i, std::string(200, 'o'));
        }
        EXPECT_TRUE((co_await engine->Commit(load.get())).ok());
      }
    });
  }

  // Leaf ids of `keys`, each checked to be out of the pool.
  Task<std::set<PageId>> ColdLeaves(const std::vector<uint64_t>& keys) {
    std::set<PageId> leaves;
    for (uint64_t key : keys) {
      Result<PageId> leaf = co_await engine->btree()->LeafIdFor(key);
      EXPECT_TRUE(leaf.ok());
      if (!leaf.ok()) continue;
      EXPECT_FALSE(pool->Contains(*leaf)) << key;
      leaves.insert(*leaf);
    }
    co_return leaves;
  }
};

TEST(EngineTest, CommitFetchesItsLeavesBeforeTheMutex) {
  // Two commits whose leaves are not cached: both fetch before they take
  // the commit mutex, so neither holds it across a round trip and the
  // second does not wait for the first one's fetches.
  ColdEngineFixture f;
  const std::vector<uint64_t> a = {0, 50}, b = {500, 550};
  RunSim(f.sim, [&]() -> Task<> {
    std::vector<uint64_t> all = a;
    all.insert(all.end(), b.begin(), b.end());
    EXPECT_EQ((co_await f.ColdLeaves(all)).size(), 4u);
  });
  const uint64_t samples = f.engine->stats().commit_mutex_hold_us.count();
  Status sa, sb;
  auto commit = [](Engine* e, std::vector<uint64_t> keys,
                   Status* out) -> Task<> {
    auto txn = e->Begin();
    for (uint64_t key : keys) (void)e->Put(txn.get(), key, "new");
    *out = co_await e->Commit(txn.get());
  };
  Spawn(f.sim, commit(f.engine.get(), a, &sa));
  Spawn(f.sim, commit(f.engine.get(), b, &sb));
  f.sim.Run();
  EXPECT_TRUE(sa.ok()) << sa.ToString();
  EXPECT_TRUE(sb.ok()) << sb.ToString();
  const EngineStats& st = f.engine->stats();
  EXPECT_EQ(st.commit_mutex_hold_us.count(), samples + 2);
  EXPECT_EQ(st.commit_mutex_hold_us.max(), 0);
  EXPECT_EQ(st.commit_mutex_wait_us.max(), 0);
}

TEST(EngineTest, FetchErrorAfterTheFirstWriteLeavesNoOrphanVersions) {
  // A commit spanning 20 leaves, more than the 16-frame pool holds, and
  // a Page-Server outage that starts one fetch after its leaves have been
  // read. Wherever the commit stops, a later snapshot sees either all of
  // its versions (it committed) or none of them: no version that no
  // commit record covers.
  ColdEngineFixture f;
  std::vector<uint64_t> keys;
  for (uint64_t row = 0; row < 1000; row += 50) keys.push_back(row);
  Status s;
  RunSim(f.sim, [&]() -> Task<> {
    const std::set<PageId> leaves = co_await f.ColdLeaves(keys);
    EXPECT_EQ(leaves.size(), keys.size());
    f.fetcher.budget_ =
        f.fetcher.fetches_ + static_cast<int>(leaves.size()) + 1;
    auto txn = f.engine->Begin();
    for (uint64_t key : keys) {
      (void)f.engine->Put(txn.get(), key, "new-" + std::to_string(key));
    }
    s = co_await f.engine->Commit(txn.get());
    f.fetcher.budget_ = std::numeric_limits<int>::max();
    // The next commit moves last_committed_ts past the one above.
    auto other = f.engine->Begin();
    (void)f.engine->Put(other.get(), ColdEngineFixture::kRows - 1, "other");
    EXPECT_TRUE((co_await f.engine->Commit(other.get())).ok());
    auto fresh = f.engine->Begin(true);
    for (uint64_t key : keys) {
      Result<std::string> v = co_await f.engine->Get(fresh.get(), key);
      EXPECT_TRUE(v.ok()) << key;
      if (v.ok()) {
        EXPECT_EQ(*v == "new-" + std::to_string(key), s.ok())
            << key << " reads " << v->substr(0, 8) << " after "
            << s.ToString();
      }
    }
    (void)co_await f.engine->Commit(fresh.get());
  });
}

TEST(EngineTest, DeleteBecomesTombstone) {
  EngineFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    auto w = f.engine->Begin();
    (void)f.engine->Put(w.get(), 9, "short-lived");
    (void)co_await f.engine->Commit(w.get());

    auto snap = f.engine->Begin(true);  // sees the row

    auto d = f.engine->Begin();
    (void)f.engine->Delete(d.get(), 9);
    (void)co_await f.engine->Commit(d.get());

    auto after = f.engine->Begin(true);
    auto gone = co_await f.engine->Get(after.get(), 9);
    EXPECT_TRUE(gone.status().IsNotFound());
    // But the older snapshot still sees it (version store at work).
    auto old = co_await f.engine->Get(snap.get(), 9);
    EXPECT_TRUE(old.ok());
    EXPECT_EQ(*old, "short-lived");
    (void)co_await f.engine->Commit(snap.get());
    (void)co_await f.engine->Commit(after.get());
  });
}

TEST(EngineTest, ScanVisibilityAndOverlay) {
  EngineFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    auto w = f.engine->Begin();
    for (uint64_t k = 0; k < 20; k++) {
      (void)f.engine->Put(w.get(), MakeKey(2, k), "r" + std::to_string(k));
    }
    (void)co_await f.engine->Commit(w.get());

    auto txn = f.engine->Begin();
    (void)f.engine->Delete(txn.get(), MakeKey(2, 3));
    (void)f.engine->Put(txn.get(), MakeKey(2, 5), "patched");
    auto rows = co_await f.engine->Scan(txn.get(), MakeKey(2, 0), 10);
    EXPECT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 10u);
    if (rows->size() != 10u) co_return;
    // Key 3 deleted, key 5 patched, so first rows are 0,1,2,4,5...
    EXPECT_EQ(KeyRow((*rows)[0].first), 0u);
    EXPECT_EQ(KeyRow((*rows)[3].first), 4u);
    EXPECT_EQ((*rows)[4].second, "patched");
    f.engine->Abort(txn.get());
  });
}

TEST(EngineTest, ManyTransactionsAccumulateCorrectState) {
  EngineFixture f;
  std::map<uint64_t, std::string> model;
  RunSim(f.sim, [&]() -> Task<> {
    Random rng(3);
    for (int t = 0; t < 300; t++) {
      auto txn = f.engine->Begin();
      int ops = 1 + rng.Uniform(5);
      std::map<uint64_t, std::string> local;
      for (int i = 0; i < ops; i++) {
        uint64_t key = rng.Uniform(200);
        std::string val = "t" + std::to_string(t) + "-" + std::to_string(i);
        (void)f.engine->Put(txn.get(), key, val);
        local[key] = val;
      }
      Status s = co_await f.engine->Commit(txn.get());
      EXPECT_TRUE(s.ok());  // sequential txns never conflict
      for (auto& [k, v] : local) model[k] = v;
    }
    auto check = f.engine->Begin(true);
    for (auto& [k, v] : model) {
      auto r = co_await f.engine->Get(check.get(), k);
      EXPECT_TRUE(r.ok());
      if (r.ok()) {
        EXPECT_EQ(*r, v);
      }
    }
    (void)co_await f.engine->Commit(check.get());
  });
}

// Secondary-style replica: replay engine log with external read timestamp.
TEST(EngineTest, ReplicaServesSnapshotReadsViaRedo) {
  EngineFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    auto w = f.engine->Begin();
    (void)f.engine->Put(w.get(), 1, "apple");
    (void)f.engine->Put(w.get(), 2, "banana");
    (void)co_await f.engine->Commit(w.get());
  });

  BufferPoolOptions opts;
  opts.mem_pages = 1 << 18;
  BufferPool replica_pool(f.sim, opts, nullptr);
  RedoApplier applier(f.sim, &replica_pool,
                      RedoApplier::MissPolicy::kMaterialize);
  Engine replica(f.sim, &replica_pool, nullptr);
  replica.SetReadTsProvider([&] { return applier.applied_commit_ts(); });
  RunSim(f.sim, [&]() -> Task<> {
    auto r = co_await applier.ApplyStream(Slice(f.sink.stream()),
                                          kLogStreamStart);
    EXPECT_TRUE(r.ok());
    auto txn = replica.Begin(true);
    auto v = co_await replica.Get(txn.get(), 1);
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(*v, "apple");
    (void)co_await replica.Commit(txn.get());
  });
  EXPECT_EQ(applier.applied_commit_ts(), f.engine->last_committed_ts());
}

}  // namespace
}  // namespace engine
}  // namespace socrates
