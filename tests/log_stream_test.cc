// Logging tier v2 tests: exact landing-zone space accounting under
// variable-size (compressed) blocks, block-frame round trips, corrupt-
// frame rejection, group commit at the write slot (and its determinism
// with compressed blocks), partition-filtered pulls, the global commit
// watermark's prefix-correctness guarantee, and parallel destaging.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "chaos/chaos.h"
#include "common/compress.h"
#include "engine/log_record.h"
#include "xlog/landing_zone.h"
#include "xlog/log_block.h"
#include "xlog/xlog_client.h"
#include "xlog/xlog_process.h"
#include "xstore/xstore.h"

namespace socrates {
namespace xlog {
namespace {

using engine::kLogStreamStart;
using engine::LogRecord;
using engine::LogRecordType;
using sim::Simulator;
using sim::Spawn;
using sim::Task;

template <typename Fn>
void RunSim(Simulator& s, Fn&& fn) {
  Spawn(s, fn());
  s.Run();
}

LogRecord CommitRecord(Timestamp ts) {
  LogRecord r;
  r.type = LogRecordType::kTxnCommit;
  r.commit_ts = ts;
  return r;
}

LogRecord InsertRecord(PageId page, uint64_t key, size_t value_bytes) {
  LogRecord r;
  r.type = LogRecordType::kLeafInsert;
  r.page_id = page;
  r.key = key;
  r.value = std::string(value_bytes, 'v');
  return r;
}

// ------------------------------------------ LZ space accounting (exact)

TEST(LzAccountingTest, MixedSizeBlocksChargePhysicalBytesExactly) {
  Simulator s;
  LandingZone lz(s, sim::DeviceProfile::DirectDrive(), 1000);
  Lsn pos = kLogStreamStart;
  // A compressed block charges its stored size, not its logical size.
  ASSERT_TRUE(lz.TryReserve(pos, /*logical=*/600, /*stored=*/200,
                            /*compressed=*/true)
                  .ok());
  pos += 600;
  EXPECT_EQ(lz.stored_bytes(), 200u);
  // A raw block charges logical == stored.
  ASSERT_TRUE(lz.TryReserve(pos, 500, 500, false).ok());
  pos += 500;
  EXPECT_EQ(lz.stored_bytes(), 700u);
  // 300 physical bytes left: a 301-byte block must not fit, a 300-byte
  // one must (exact accounting, no slack either way).
  EXPECT_TRUE(lz.TryReserve(pos, 1000, 301, true).IsOutOfSpace());
  ASSERT_TRUE(lz.TryReserve(pos, 1000, 300, true).ok());
  pos += 1000;
  EXPECT_EQ(lz.stored_bytes(), 1000u);
  EXPECT_TRUE(lz.TryReserve(pos, 1, 1, false).IsOutOfSpace());
}

TEST(LzAccountingTest, TruncateFreesWholeStoredBlocksExactly) {
  Simulator s;
  LandingZone lz(s, sim::DeviceProfile::DirectDrive(), 1000);
  std::string logical_a(400, 'a');
  std::string stored_a;
  // Fabricate a "compressed" form by hand: the LZ trusts the caller's
  // stored bytes (the codec is exercised separately below).
  compress::Compress(Slice(logical_a), &stored_a);
  ASSERT_LT(stored_a.size(), logical_a.size());
  RunSim(s, [&]() -> Task<> {
    Lsn pos = kLogStreamStart;
    EXPECT_TRUE(
        lz.TryReserve(pos, 400, stored_a.size(), true).ok());
    EXPECT_TRUE((co_await lz.WriteReserved(pos, Slice(stored_a))).ok());
    pos += 400;
    EXPECT_TRUE(lz.TryReserve(pos, 300, 300, false).ok());
    EXPECT_TRUE(
        (co_await lz.WriteReserved(pos, Slice(std::string(300, 'b'))))
            .ok());
    uint64_t occupied = lz.stored_bytes();
    EXPECT_EQ(occupied, stored_a.size() + 300);
    // Truncating mid-block frees nothing (whole stored blocks only).
    lz.Truncate(kLogStreamStart + 100);
    EXPECT_EQ(lz.stored_bytes(), occupied);
    // Truncating at the block boundary frees exactly that block.
    lz.Truncate(kLogStreamStart + 400);
    EXPECT_EQ(lz.stored_bytes(), 300u);
  });
}

TEST(LzAccountingTest, CompressedBlocksRoundTripThroughWrap) {
  Simulator s;
  // Tiny capacity: seven 300-logical-byte blocks force several wraps of
  // the physical buffer while compression makes stored != logical.
  LandingZone lz(s, sim::DeviceProfile::DirectDrive(), 512);
  RunSim(s, [&]() -> Task<> {
    Lsn pos = kLogStreamStart;
    for (int round = 0; round < 7; round++) {
      std::string logical(300, static_cast<char>('a' + round));
      std::string stored;
      compress::Compress(Slice(logical), &stored);
      EXPECT_TRUE(
          lz.TryReserve(pos, 300, stored.size(), true).ok());
      EXPECT_TRUE((co_await lz.WriteReserved(pos, Slice(stored))).ok());
      pos += 300;
      lz.Truncate(pos - 300);  // retain only the newest block
    }
    auto r = co_await lz.Read(pos - 300, pos);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(*r, std::string(300, 'g'));
    }
    // Sub-range reads decompress and slice correctly.
    auto mid = co_await lz.Read(pos - 200, pos - 100);
    EXPECT_TRUE(mid.ok());
    if (mid.ok()) {
      EXPECT_EQ(*mid, std::string(100, 'g'));
    }
  });
  EXPECT_EQ(lz.compressed_blocks_written(), 7u);
  EXPECT_LT(lz.stored_bytes_written(), lz.logical_bytes_written());
}

// --------------------------------------------------- block-frame codec

LogBlock TestBlock() {
  std::string payload;
  for (int i = 0; i < 20; i++) {
    engine::FrameRecord(&payload, Slice(InsertRecord(7, i, 120).Encode()));
  }
  return LogBlock::Make(kLogStreamStart + 12345, payload, {1, 3});
}

// The frame a compressing client sends for `b`.
std::string CompressedFrame(const LogBlock& b) {
  std::shared_ptr<const std::string> zip = CompressBlockPayload(b);
  EXPECT_NE(zip, nullptr);
  return EncodeBlockFrame(b, zip.get());
}

TEST(BlockFrameTest, RoundTripRawAndCompressed) {
  LogBlock b = TestBlock();
  std::string raw = EncodeBlockFrame(b, nullptr);
  std::string zip = CompressedFrame(b);
  for (const std::string* frame : {&raw, &zip}) {
    LogBlock out;
    ASSERT_TRUE(DecodeBlockFrame(Slice(*frame), &out).ok());
    EXPECT_EQ(out.start_lsn, b.start_lsn);
    EXPECT_EQ(out.payload(), b.payload());
    EXPECT_EQ(out.payload_size, b.payload().size());
    EXPECT_EQ(out.partitions(), b.partitions());
    EXPECT_FALSE(out.filtered);
  }
  // The compressed frame is genuinely smaller for repetitive payloads.
  EXPECT_LT(zip.size(), raw.size());
  // An incompressible payload is not offered compressed at all.
  EXPECT_EQ(CompressBlockPayload(LogBlock::Make(kLogStreamStart, "ab", {})),
            nullptr);
}

TEST(BlockFrameTest, CorruptFramesRejected) {
  LogBlock b = TestBlock();
  std::string frame = CompressedFrame(b);
  LogBlock out;
  // Truncated.
  EXPECT_TRUE(DecodeBlockFrame(Slice(frame.data(), frame.size() - 3), &out)
                  .IsCorruption());
  EXPECT_TRUE(DecodeBlockFrame(Slice(frame.data(), 5), &out).IsCorruption());
  // Bad magic.
  std::string bad = frame;
  bad[0] ^= 0x5a;
  EXPECT_TRUE(DecodeBlockFrame(Slice(bad), &out).IsCorruption());
  // A header stamped with any other layout.
  bad = frame;
  bad[4] ^= 0x01;
  EXPECT_TRUE(DecodeBlockFrame(Slice(bad), &out).IsCorruption());
  // Body bit flip breaks the checksum.
  bad = frame;
  bad[bad.size() / 2] ^= 0x01;
  EXPECT_TRUE(DecodeBlockFrame(Slice(bad), &out).IsCorruption());
  // Checksum bit flip.
  bad = frame;
  bad[bad.size() - 1] ^= 0x80;
  EXPECT_TRUE(DecodeBlockFrame(Slice(bad), &out).IsCorruption());
}

TEST(BlockFrameTest, HeaderAndPartitionFlipsFailTheChecksum) {
  // The CRC covers the header and the partition list, not only the body:
  // a flipped start_lsn would place the block at a wrong LSN and a
  // flipped partition id would filter it away from its partition.
  LogBlock b = TestBlock();
  const std::string raw = EncodeBlockFrame(b, nullptr);
  const std::string zip = CompressedFrame(b);
  // Offsets: start_lsn at 7, raw_len at 15, stored_len at 19, the first
  // partition id at 27 (after [magic][layout][flags] and the counts).
  const struct {
    const char* field;
    size_t at;
  } flips[] = {{"start_lsn", 7}, {"raw_len", 15}, {"stored_len", 19},
               {"partition id", 27}};
  for (const std::string* frame : {&raw, &zip}) {
    for (const auto& f : flips) {
      std::string bad = *frame;
      bad[f.at] ^= 0x01;
      LogBlock out;
      EXPECT_TRUE(DecodeBlockFrame(Slice(bad), &out).IsCorruption())
          << f.field << (frame == &zip ? " (compressed)" : " (raw)");
    }
  }
}

// ------------------------------------------- end-to-end via the client

struct XLogFixture {
  Simulator sim;
  xstore::XStore lt{sim};
  LandingZone lz;
  XLogProcess xlog;
  XLogClient client;

  explicit XLogFixture(sim::DeviceProfile lz_profile =
                           sim::DeviceProfile::DirectDrive(),
                       XLogClientOptions copts = {},
                       XLogOptions xopts = {})
      : lz(sim, lz_profile, 64 * MiB),
        xlog(sim, &lz, &lt, xopts),
        client(sim, &lz, &xlog, nullptr, copts) {
    xlog.Start();
    client.Start();
  }
};

TEST(BlockFrameTest, CorruptWireFrameCountedAndDropped) {
  Simulator s;
  xstore::XStore lt(s);
  LandingZone lz(s, sim::DeviceProfile::DirectDrive(), 64 * MiB);
  XLogProcess xlog(s, &lz, &lt, {});
  std::string frame = CompressedFrame(TestBlock());
  frame[frame.size() / 2] ^= 0x10;
  EXPECT_TRUE(xlog.DeliverFrame(Slice(frame)).IsCorruption());
  EXPECT_EQ(xlog.frames_corrupt(), 1u);
  EXPECT_EQ(xlog.pending_blocks(), 0u);  // never entered the pending area
}

// ------------------------------------------------------- group commit

// A landing zone whose quorum writes take `write` (DirectDrive's CPU
// prices, so a null CPU is all the same).
sim::DeviceProfile LzWithWrites(sim::LatencyModel write) {
  sim::DeviceProfile p = sim::DeviceProfile::DirectDrive();
  p.write = write;
  return p;
}

TEST(GroupCommitTest, RecordsArrivingWhileEverySlotIsBusyJoinTheWaitingBlock) {
  XLogClientOptions copts;
  copts.max_inflight_writes = 1;
  XLogFixture f(LzWithWrites(sim::LatencyModel::Fixed(5000)), copts);
  SimTime hardened_at[3] = {0, 0, 0};
  auto commit = [&](int i, Lsn end) -> Task<> {
    (void)co_await f.client.WaitHardened(end);
    hardened_at[i] = f.sim.now();
  };
  RunSim(f.sim, [&]() -> Task<> {
    f.client.Append(CommitRecord(1));
    Spawn(f.sim, commit(0, f.client.end_lsn()));
    // The first block's write now holds the only slot.
    co_await sim::Delay(f.sim, 100);
    f.client.Append(CommitRecord(2));
    Spawn(f.sim, commit(1, f.client.end_lsn()));
    co_await sim::Delay(f.sim, 100);
    f.client.Append(CommitRecord(3));
    Spawn(f.sim, commit(2, f.client.end_lsn()));
    (void)co_await f.client.Flush();
  });
  // The pair waited for the slot in one buffer and went out as one block,
  // cut when the first write finished: both harden with its write.
  EXPECT_EQ(f.client.blocks_written(), 2u);
  EXPECT_EQ(f.client.flush_sizes().max(), 2 * f.client.flush_sizes().min());
  EXPECT_EQ(hardened_at[1], hardened_at[2]);
  EXPECT_EQ(hardened_at[1] - hardened_at[0], hardened_at[0]);
  // The second block's slot wait is part of its enqueue phase.
  EXPECT_EQ(f.client.enqueue_phase().max(),
            static_cast<double>(hardened_at[0] - 100));
}

TEST(GroupCommitTest, PhasesSumToFirstAppendToHardenedOverAllBlocks) {
  // Writes that finish out of order, so blocks wait on earlier ones to
  // harden, and few slots, so cuts wait for a slot.
  XLogClientOptions copts;
  copts.max_inflight_writes = 3;
  XLogFixture f(LzWithWrites(sim::LatencyModel::Uniform(300, 6000)), copts);
  std::map<Lsn, SimTime> appended_at;  // record start LSN -> append time
  std::map<Lsn, SimTime> hardened_at;  // record end LSN -> hardened time
  auto commit = [&](Lsn end) -> Task<> {
    (void)co_await f.client.WaitHardened(end);
    hardened_at[end] = f.sim.now();
  };
  std::vector<LogBlock> blocks;
  RunSim(f.sim, [&]() -> Task<> {
    for (int i = 0; i < 300; i++) {
      appended_at[f.client.Append(CommitRecord(i + 1))] = f.sim.now();
      Spawn(f.sim, commit(f.client.end_lsn()));
      co_await sim::Delay(f.sim, 20 + 40 * (i % 5));
    }
    (void)co_await f.client.Flush();
    co_await f.xlog.available().WaitFor(f.client.end_lsn());
    auto pulled = co_await f.xlog.Pull(kLogStreamStart, std::nullopt,
                                       64 * MiB);
    EXPECT_TRUE(pulled.ok());
    if (pulled.ok()) blocks = std::move(*pulled);
  });
  ASSERT_EQ(blocks.size(), f.client.blocks_written());
  ASSERT_GT(blocks.size(), 10u);
  double first_append_to_hardened = 0;
  for (const LogBlock& b : blocks) {
    ASSERT_EQ(appended_at.count(b.start_lsn), 1u);
    ASSERT_EQ(hardened_at.count(b.end_lsn()), 1u);
    first_append_to_hardened += static_cast<double>(
        hardened_at[b.end_lsn()] - appended_at[b.start_lsn]);
  }
  const Histogram& enq = f.client.enqueue_phase();
  const Histogram& quo = f.client.quorum_phase();
  const Histogram& hw = f.client.harden_wait_phase();
  EXPECT_EQ(enq.count(), blocks.size());
  EXPECT_EQ(quo.count(), blocks.size());
  EXPECT_EQ(hw.count(), blocks.size());
  EXPECT_GT(enq.max(), 0);  // some cut waited for a slot
  EXPECT_GT(hw.max(), 0);   // some block waited on an earlier write
  const double phases = enq.mean() * enq.count() +
                        quo.mean() * quo.count() + hw.mean() * hw.count();
  EXPECT_NEAR(phases, first_append_to_hardened,
              1e-9 * first_append_to_hardened);
}

TEST(GroupCommitTest, LoneCommitHardensWithinOneQuorumWrite) {
  XLogFixture f;
  SimTime committed_at = 0;
  RunSim(f.sim, [&]() -> Task<> {
    f.client.Append(CommitRecord(1));
    (void)co_await f.client.Flush();
    committed_at = f.sim.now();
  });
  // A free slot means an immediate cut: the commit pays its own quorum
  // write (under 2 ms on DirectDrive) and nothing else.
  EXPECT_EQ(f.client.blocks_written(), 1u);
  EXPECT_EQ(f.client.enqueue_phase().max(), 0);
  EXPECT_EQ(static_cast<double>(committed_at),
            f.client.quorum_phase().max());
  EXPECT_LT(committed_at, 2000);
}

struct TrickleOutcome {
  uint64_t blocks = 0;
  double mean_flush = 0;
  Lsn end = 0;
  uint64_t wire_bytes = 0;
  uint64_t stored_bytes = 0;
};

// Steady fan-in through the compressing flusher: a record every 10 us
// while a quorum write takes ~800 us.
TrickleOutcome RunCompressedTrickle() {
  XLogClientOptions copts;
  copts.compress_blocks = true;
  XLogFixture f(sim::DeviceProfile::DirectDrive(), copts);
  RunSim(f.sim, [&]() -> Task<> {
    for (int i = 0; i < 400; i++) {
      f.client.Append(InsertRecord(1, i, 64));
      co_await sim::Delay(f.sim, 10);
    }
    (void)co_await f.client.Flush();
  });
  EXPECT_EQ(f.xlog.available().value(), f.client.end_lsn());
  EXPECT_EQ(f.client.compressed_blocks(), f.client.blocks_written());
  return {f.client.blocks_written(), f.client.flush_sizes().mean(),
          f.client.end_lsn(), f.client.wire_bytes_sent(),
          f.client.stored_bytes_written()};
}

TEST(GroupCommitTest, SameSeedSameBlockBoundaries) {
  TrickleOutcome a = RunCompressedTrickle();
  TrickleOutcome b = RunCompressedTrickle();
  EXPECT_GT(a.blocks, 1u);
  EXPECT_LT(a.stored_bytes, a.end - kLogStreamStart);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.mean_flush, b.mean_flush);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.stored_bytes, b.stored_bytes);
}

// ---------------------------- partition pulls & watermark correctness

TEST(StreamShardTest, FilteredPullServedFromShardWithGapRuns) {
  XLogOptions xopts;
  xopts.partition_map.pages_per_partition = 100;
  XLogClientOptions copts;
  copts.partition_map = xopts.partition_map;
  XLogFixture f(sim::DeviceProfile::DirectDrive(), copts, xopts);
  RunSim(f.sim, [&]() -> Task<> {
    // Alternate blocks between partitions 0 and 1.
    for (int i = 0; i < 10; i++) {
      f.client.Append(InsertRecord(i % 2 == 0 ? 5 : 150, i, 80));
      (void)co_await f.client.Flush();
    }
  });
  RunSim(f.sim, [&]() -> Task<> {
    Lsn pos = kLogStreamStart;
    uint64_t real = 0, gaps = 0;
    while (pos < f.xlog.available().value()) {
      auto blocks = co_await f.xlog.Pull(pos, PartitionId{1}, 1 * MiB);
      EXPECT_TRUE(blocks.ok());
      if (!blocks.ok() || blocks->empty()) break;
      for (auto& b : *blocks) {
        EXPECT_EQ(b.start_lsn, pos);
        if (b.filtered) {
          gaps++;
          EXPECT_TRUE(b.payload().empty());
        } else {
          real++;
          EXPECT_TRUE(b.TouchesPartition(1));
        }
        pos = b.end_lsn();
      }
    }
    EXPECT_EQ(pos, f.client.end_lsn());
    EXPECT_EQ(real, 5u);
    // Consecutive irrelevant blocks coalesce: at most one gap run
    // between relevant blocks (here they strictly alternate).
    EXPECT_LE(gaps, real + 1);
  });
}

TEST(WatermarkTest, NeverExposesRecordWithUnacknowledgedPredecessors) {
  Simulator s;
  xstore::XStore lt(s);
  LandingZone lz(s, sim::DeviceProfile::DirectDrive(), 64 * MiB);
  XLogOptions xopts;
  xopts.partition_map.pages_per_partition = 100;
  XLogProcess xlog(s, &lz, &lt, xopts);
  xlog.Start();

  // Two contiguous blocks: A touches partition 0, B touches partition 1.
  std::string pa, pb;
  engine::FrameRecord(&pa, Slice(InsertRecord(5, 1, 50).Encode()));
  engine::FrameRecord(&pb, Slice(InsertRecord(150, 2, 50).Encode()));
  Lsn a_end = kLogStreamStart + pa.size();
  Lsn b_end = a_end + pb.size();
  RunSim(s, [&]() -> Task<> {
    (void)co_await lz.Write(kLogStreamStart, Slice(pa));
    (void)co_await lz.Write(a_end, Slice(pb));
  });

  // Only B arrives on the lossy channel (A's delivery was lost), and
  // nothing is acknowledged yet: nothing may be exposed — not even to a
  // partition-1 consumer whose own lane contains B.
  xlog.DeliverBlock(LogBlock::Make(a_end, pb, {1}));
  s.RunFor(100000);
  EXPECT_EQ(xlog.available().value(), kLogStreamStart);
  RunSim(s, [&]() -> Task<> {
    auto blocks = co_await xlog.Pull(kLogStreamStart, PartitionId{1},
                                     1 * MiB);
    EXPECT_TRUE(blocks.ok());
    if (blocks.ok()) {
      EXPECT_TRUE(blocks->empty());
    }
  });

  // Acknowledge through A only: the repair path recovers A from the LZ,
  // but B — already sitting in the pending area — must stay invisible
  // because its own range is not yet acknowledged.
  xlog.NotifyHardened(a_end);
  s.RunFor(1000000);
  EXPECT_EQ(xlog.available().value(), a_end);
  RunSim(s, [&]() -> Task<> {
    auto blocks = co_await xlog.Pull(kLogStreamStart, PartitionId{1},
                                     1 * MiB);
    EXPECT_TRUE(blocks.ok());
    if (!blocks.ok()) co_return;
    for (auto& b : *blocks) {
      EXPECT_LE(b.end_lsn(), a_end);
      EXPECT_TRUE(b.filtered);  // partition 1 has no exposed payload yet
    }
  });

  // Acknowledge through B: now (and only now) the lane serves it.
  xlog.NotifyHardened(b_end);
  s.RunFor(1000000);
  EXPECT_EQ(xlog.available().value(), b_end);
  RunSim(s, [&]() -> Task<> {
    auto blocks = co_await xlog.Pull(kLogStreamStart, PartitionId{1},
                                     1 * MiB);
    EXPECT_TRUE(blocks.ok());
    if (!blocks.ok()) co_return;
    EXPECT_EQ(blocks->size(), 2u);
    if (blocks->size() != 2) co_return;
    EXPECT_TRUE((*blocks)[0].filtered);
    EXPECT_FALSE((*blocks)[1].filtered);
    EXPECT_EQ((*blocks)[1].payload(), pb);
  });
}

TEST(WatermarkTest, LossyShardedStreamStaysPrefixCorrect) {
  XLogOptions xopts;
  xopts.partition_map.pages_per_partition = 100;
  chaos::Injector chaos;
  chaos.SetLink("logwriter", chaos::kXLogSite, /*drop_prob=*/0.3, 0);
  XLogClientOptions copts;
  copts.partition_map = xopts.partition_map;
  copts.chaos = chaos::SitePort(&chaos, "logwriter");
  copts.compress_blocks = true;
  XLogFixture f(sim::DeviceProfile::DirectDrive(), copts, xopts);
  RunSim(f.sim, [&]() -> Task<> {
    for (int i = 0; i < 200; i++) {
      f.client.Append(InsertRecord((i % 3) * 100 + 5, i, 60));
      if (i % 8 == 7) (void)co_await f.client.Flush();
    }
    (void)co_await f.client.Flush();
  });
  f.sim.RunFor(5LL * 1000 * 1000);
  // Filtered consumers of every lane see a contiguous stream whose every
  // served block is below the acknowledged frontier.
  for (PartitionId part = 0; part < 3; part++) {
    RunSim(f.sim, [&]() -> Task<> {
      Lsn pos = kLogStreamStart;
      while (pos < f.xlog.available().value()) {
        auto blocks = co_await f.xlog.Pull(pos, part, 1 * MiB);
        EXPECT_TRUE(blocks.ok());
        if (!blocks.ok() || blocks->empty()) break;
        for (auto& b : *blocks) {
          EXPECT_EQ(b.start_lsn, pos);
          EXPECT_LE(b.end_lsn(), f.xlog.hardened_lsn());
          pos = b.end_lsn();
        }
      }
      EXPECT_EQ(pos, f.client.end_lsn());
    });
  }
}

// -------------------------------------------------- parallel destaging

TEST(DestageTest, ParallelLanesArchiveTheExactStream) {
  static_assert(XLogProcess::kDestageLanes > 1);
  XLogOptions xopts;
  xopts.sequence_map_bytes = 16 * KiB;  // force continuous destaging
  XLogFixture f(sim::DeviceProfile::DirectDrive(), {}, xopts);
  std::string expected;
  RunSim(f.sim, [&]() -> Task<> {
    for (int i = 0; i < 400; i++) {
      LogRecord rec = InsertRecord(1, i, 150);
      engine::FrameRecord(&expected, Slice(rec.Encode()));
      f.client.Append(rec);
      if (i % 25 == 24) (void)co_await f.client.Flush();
    }
    (void)co_await f.client.Flush();
  });
  f.sim.RunFor(30LL * 1000 * 1000);
  EXPECT_EQ(f.xlog.destaged_lsn(), f.client.end_lsn());
  EXPECT_EQ(f.lz.start_lsn(), f.xlog.destaged_lsn());
  // Out-of-order lane completions must still produce a byte-identical
  // archive (the destaged frontier only advances over the contiguous
  // prefix, and each batch writes at its own stream offset).
  std::string lt_bytes = f.lt.ReadRaw(
      "log/lt", 0, f.client.end_lsn() - kLogStreamStart);
  EXPECT_EQ(lt_bytes, expected);
}

TEST(DestageTest, LanesSurviveXStoreOutageWithoutReordering) {
  static_assert(XLogProcess::kDestageLanes > 1);
  XLogFixture f;
  chaos::Injector inj;
  f.lt.AttachChaos(&inj, "xstore");
  inj.SetOutage("xstore", true);
  Spawn(f.sim, [](XLogFixture* fx) -> Task<> {
    for (int i = 0; i < 80; i++) fx->client.Append(InsertRecord(1, i, 100));
    EXPECT_TRUE((co_await fx->client.Flush()).ok());
  }(&f));
  f.sim.RunFor(500000);
  EXPECT_LT(f.xlog.destaged_lsn(), f.client.end_lsn());  // blocked
  inj.SetOutage("xstore", false);
  f.sim.RunFor(30LL * 1000 * 1000);
  EXPECT_EQ(f.xlog.destaged_lsn(), f.client.end_lsn());
  EXPECT_EQ(f.lz.start_lsn(), f.xlog.destaged_lsn());
}

}  // namespace
}  // namespace xlog
}  // namespace socrates
