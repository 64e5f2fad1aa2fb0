// XLOG service tests: landing-zone circular buffer semantics, quorum
// durability, pending-area hardening rules (speculative logging safety),
// lossy-channel gap repair, destaging to SSD cache + LT, tiered serving,
// partition filtering, and commit latency shape (XIO vs DirectDrive).

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "common/histogram.h"
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

// ------------------------------------------------------------ LandingZone

TEST(LandingZoneTest, WriteReadRoundTrip) {
  Simulator s;
  LandingZone lz(s, sim::DeviceProfile::Xio(), 1 * MiB);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await lz.Write(kLogStreamStart, Slice("hello"))).ok());
    EXPECT_TRUE(
        (co_await lz.Write(kLogStreamStart + 5, Slice(" world"))).ok());
    auto r = co_await lz.Read(kLogStreamStart, kLogStreamStart + 11);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(*r, "hello world");
  });
  EXPECT_EQ(lz.durable_end(), kLogStreamStart + 11);
}

TEST(LandingZoneTest, RejectsNonContiguousWrite) {
  Simulator s;
  LandingZone lz(s, sim::DeviceProfile::Xio(), 1 * MiB);
  RunSim(s, [&]() -> Task<> {
    Status st = co_await lz.Write(kLogStreamStart + 100, Slice("gap"));
    EXPECT_TRUE(st.IsInvalidArgument());
  });
}

TEST(LandingZoneTest, FillsUpWithoutTruncation) {
  Simulator s;
  LandingZone lz(s, sim::DeviceProfile::DirectDrive(), 4096);
  RunSim(s, [&]() -> Task<> {
    std::string chunk(1024, 'x');
    Lsn pos = kLogStreamStart;
    for (int i = 0; i < 4; i++) {
      EXPECT_TRUE((co_await lz.Write(pos, Slice(chunk))).ok());
      pos += chunk.size();
    }
    // Buffer is full: the next write must be rejected...
    Status full = co_await lz.Write(pos, Slice(chunk));
    EXPECT_TRUE(full.IsOutOfSpace());
    // ...until destaging truncates.
    lz.Truncate(kLogStreamStart + 2048);
    EXPECT_TRUE((co_await lz.Write(pos, Slice(chunk))).ok());
  });
}

TEST(LandingZoneTest, WrapAroundPreservesData) {
  Simulator s;
  LandingZone lz(s, sim::DeviceProfile::DirectDrive(), 1000);
  RunSim(s, [&]() -> Task<> {
    Lsn pos = kLogStreamStart;
    for (int round = 0; round < 7; round++) {
      std::string chunk(300, static_cast<char>('a' + round));
      EXPECT_TRUE((co_await lz.Write(pos, Slice(chunk))).ok());
      pos += 300;
      lz.Truncate(pos - 300);  // keep only the last chunk
    }
    auto r = co_await lz.Read(pos - 300, pos);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(*r, std::string(300, 'g'));
  });
}

TEST(LandingZoneTest, ReadOutsideWindowFails) {
  Simulator s;
  LandingZone lz(s, sim::DeviceProfile::Xio(), 1 * MiB);
  RunSim(s, [&]() -> Task<> {
    (void)co_await lz.Write(kLogStreamStart, Slice("abcdef"));
    lz.Truncate(kLogStreamStart + 3);
    auto r = co_await lz.Read(kLogStreamStart, kLogStreamStart + 6);
    EXPECT_TRUE(r.status().IsInvalidArgument());
    auto r2 = co_await lz.Read(kLogStreamStart + 3, kLogStreamStart + 6);
    EXPECT_TRUE(r2.ok());
    EXPECT_EQ(*r2, "def");
  });
}

TEST(LandingZoneTest, SurvivesSingleReplicaOutage) {
  Simulator s;
  LandingZone lz(s, sim::DeviceProfile::Xio(), 1 * MiB);
  chaos::Injector inj;
  lz.device()->replica(1)->AttachChaos(&inj, "lz-replica-1");
  inj.SetOutage("lz-replica-1", true);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await lz.Write(kLogStreamStart, Slice("durable"))).ok());
    auto r = co_await lz.Read(kLogStreamStart, kLogStreamStart + 7);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(*r, "durable");
  });
}

// Truncation discards what it frees: each replica maps the retained
// window and no more, and a truncated block's segment is freed.
TEST(LandingZoneTest, TruncateDiscardsFreedBlocksOnEveryReplica) {
  Simulator s;
  LandingZone lz(s, sim::DeviceProfile::DirectDrive(), 4096);
  std::vector<std::weak_ptr<const std::string>> written;
  Lsn pos = kLogStreamStart;
  auto put = [&](char c) {
    RunSim(s, [&]() -> Task<> {
      storage::Segment block = std::make_shared<const std::string>(1000, c);
      written.push_back(block);
      EXPECT_TRUE(lz.TryReserve(pos, block->size()).ok());
      EXPECT_TRUE((co_await lz.WriteReserved(pos, block)).ok());
      pos += block->size();
    });  // Run() also lands the laggard replica's write
  };
  auto expect_window_only = [&] {
    for (int r = 0; r < 3; r++) {
      EXPECT_EQ(lz.device()->replica(r)->allocated_bytes(), lz.stored_bytes())
          << "replica " << r;
    }
  };
  for (char c : {'a', 'b', 'c', 'd'}) put(c);
  expect_window_only();
  EXPECT_EQ(lz.stored_bytes(), 4000u);
  lz.Truncate(kLogStreamStart + 2500);  // frees 'a' and 'b' only
  EXPECT_EQ(lz.stored_bytes(), 2000u);
  expect_window_only();
  EXPECT_TRUE(written[0].expired());
  EXPECT_TRUE(written[1].expired());
  EXPECT_FALSE(written[2].expired());
  // Around the ring: 'e' wraps, and truncation splits its discard too.
  put('e');
  put('f');
  lz.Truncate(pos - 1000);
  EXPECT_EQ(lz.stored_bytes(), 1000u);
  expect_window_only();
  for (int i = 0; i < 5; i++) EXPECT_TRUE(written[i].expired()) << i;
  RunSim(s, [&]() -> Task<> {
    auto r = co_await lz.Read(pos - 1000, pos);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.ok() ? *r : "", std::string(1000, 'f'));
  });
}

// A read in flight when truncation frees its range still returns the
// bytes it was admitted for; the range is discarded once it completes.
TEST(LandingZoneTest, ReadRacingTruncationKeepsItsBytes) {
  Simulator s;
  LandingZone lz(s, sim::DeviceProfile::DirectDrive(), 1 * MiB);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await lz.Write(kLogStreamStart, Slice("racing"))).ok());
    EXPECT_TRUE(
        (co_await lz.Write(kLogStreamStart + 6, Slice(" reader"))).ok());
  });
  Result<std::string> got = Status::Unavailable("not read");
  bool read_done = false;
  Spawn(s, [](LandingZone* z, Result<std::string>* out,
              bool* done) -> Task<> {
    *out = co_await z->Read(kLogStreamStart, kLogStreamStart + 13);
    *done = true;
  }(&lz, &got, &read_done));
  Spawn(s, [](Simulator* sim, LandingZone* z, bool* done) -> Task<> {
    co_await sim::Delay(*sim, 1);
    EXPECT_FALSE(*done);  // the device read is still in flight
    z->Truncate(kLogStreamStart + 13);
    EXPECT_EQ(z->stored_bytes(), 0u);
    EXPECT_EQ(z->device()->replica(0)->allocated_bytes(), 13u);
  }(&s, &lz, &read_done));
  s.Run();
  ASSERT_TRUE(read_done);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "racing reader");
  for (int r = 0; r < 3; r++) {
    EXPECT_EQ(lz.device()->replica(r)->allocated_bytes(), 0u)
        << "replica " << r;
  }
}

// A laggard replica write that lands after its block was truncated maps
// bytes outside the window until the next truncation drops them.
TEST(LandingZoneTest, LaggardReplicaWriteIsDroppedByTheNextTruncate) {
  Simulator s;
  LandingZone lz(s, sim::DeviceProfile::DirectDrive(), 1 * MiB);
  chaos::Injector inj;
  lz.device()->replica(2)->AttachChaos(&inj, "slow-replica");
  inj.SetGrayDelay("slow-replica", 50000);
  Spawn(s, [](LandingZone* z) -> Task<> {
    EXPECT_TRUE((co_await z->Write(kLogStreamStart, Slice("late"))).ok());
    z->Truncate(kLogStreamStart + 4);  // before replica 2 lands
  }(&lz));
  s.Run();
  EXPECT_EQ(lz.stored_bytes(), 0u);
  EXPECT_EQ(lz.device()->replica(0)->allocated_bytes(), 0u);
  EXPECT_EQ(lz.device()->replica(2)->allocated_bytes(), 4u);
  inj.SetGrayDelay("slow-replica", 0);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await lz.Write(kLogStreamStart + 4, Slice("next"))).ok());
  });
  lz.Truncate(kLogStreamStart + 8);
  for (int r = 0; r < 3; r++) {
    EXPECT_EQ(lz.device()->replica(r)->allocated_bytes(), 0u)
        << "replica " << r;
  }
}

// -------------------------------------------------- XLogProcess + client

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

TEST(XLogTest, AppendHardensAndDisseminates) {
  XLogFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    for (int i = 0; i < 10; i++) {
      f.client.Append(CommitRecord(i + 1));
    }
    EXPECT_TRUE((co_await f.client.Flush()).ok());
  });
  EXPECT_EQ(f.client.hardened_lsn(), f.client.end_lsn());
  // XLOG admitted everything (deliveries + notifications arrived).
  EXPECT_EQ(f.xlog.available().value(), f.client.end_lsn());
  EXPECT_EQ(f.xlog.pending_blocks(), 0u);
}

TEST(XLogTest, SpeculativeBlocksNotDisseminatedUntilHardened) {
  Simulator s;
  xstore::XStore lt(s);
  LandingZone lz(s, sim::DeviceProfile::Xio(), 64 * MiB);
  XLogOptions xopts;
  XLogProcess xlog(s, &lz, &lt, xopts);
  xlog.Start();
  // Deliver a block directly (as if from the lossy channel) WITHOUT any
  // hardening notification: it must stay in the pending area.
  std::string payload;
  engine::FrameRecord(&payload, Slice(CommitRecord(1).Encode()));
  xlog.DeliverBlock(LogBlock::Make(kLogStreamStart, payload, {}));
  s.RunFor(100000);
  EXPECT_EQ(xlog.available().value(), kLogStreamStart);
  EXPECT_EQ(xlog.pending_blocks(), 1u);
  // Harden it (and the LZ really has the bytes): now it disseminates.
  RunSim(s, [&]() -> Task<> {
    (void)co_await lz.Write(kLogStreamStart, Slice(payload));
  });
  xlog.NotifyHardened(kLogStreamStart + payload.size());
  s.Run();
  EXPECT_EQ(xlog.available().value(), kLogStreamStart + payload.size());
  EXPECT_EQ(xlog.pending_blocks(), 0u);
}

TEST(XLogTest, LostDeliveriesRepairedFromLandingZone) {
  // Half the blocks vanish on the link from the log writer to XLOG.
  chaos::Injector chaos;
  chaos.SetLink("logwriter", chaos::kXLogSite, /*drop_prob=*/0.5, 0);
  XLogClientOptions copts;
  copts.chaos = chaos::SitePort(&chaos, "logwriter");
  XLogFixture f(sim::DeviceProfile::DirectDrive(), copts);
  RunSim(f.sim, [&]() -> Task<> {
    for (int i = 0; i < 200; i++) {
      f.client.Append(CommitRecord(i + 1));
      if (i % 10 == 9) {
        EXPECT_TRUE((co_await f.client.Flush()).ok());
      }
    }
    (void)co_await f.client.Flush();
  });
  f.sim.RunFor(5LL * 1000 * 1000);  // let repairs settle
  EXPECT_GT(f.client.deliveries_lost(), 0u);
  EXPECT_GT(f.xlog.repairs(), 0u);
  // Despite the losses, the broker has the complete hardened stream.
  EXPECT_EQ(f.xlog.available().value(), f.client.end_lsn());
}

TEST(XLogTest, ConsumerPullsCompleteStream) {
  XLogFixture f;
  const int kRecords = 500;
  RunSim(f.sim, [&]() -> Task<> {
    for (int i = 0; i < kRecords; i++) {
      f.client.Append(InsertRecord(5, i, 100));
      f.client.Append(CommitRecord(i + 1));
      if (i % 50 == 0) (void)co_await f.client.Flush();
    }
    (void)co_await f.client.Flush();
  });
  // Pull everything and count records.
  int commits = 0;
  RunSim(f.sim, [&]() -> Task<> {
    Lsn pos = kLogStreamStart;
    while (pos < f.xlog.available().value()) {
      auto blocks = co_await f.xlog.Pull(pos, std::nullopt, 1 * MiB);
      EXPECT_TRUE(blocks.ok());
      if (blocks->empty()) break;
      for (auto& b : *blocks) {
        EXPECT_EQ(b.start_lsn, pos);
        EXPECT_FALSE(b.filtered);
        (void)engine::ForEachRecord(
            Slice(b.payload()), b.start_lsn, [&](Lsn, Slice p) {
              engine::LogRecord rec;
              EXPECT_TRUE(engine::LogRecord::Decode(p, &rec).ok());
              if (rec.type == LogRecordType::kTxnCommit) commits++;
              return true;
            });
        pos = b.end_lsn();
      }
    }
    EXPECT_EQ(pos, f.client.end_lsn());
  });
  EXPECT_EQ(commits, kRecords);
}

TEST(XLogTest, PartitionFilteringDropsIrrelevantPayload) {
  XLogOptions xopts;
  xopts.partition_map.pages_per_partition = 100;
  XLogClientOptions copts;
  copts.partition_map = xopts.partition_map;
  XLogFixture f(sim::DeviceProfile::DirectDrive(), copts, xopts);
  RunSim(f.sim, [&]() -> Task<> {
    // Partition 0 = pages [0,100); partition 1 = [100,200).
    f.client.Append(InsertRecord(5, 1, 50));
    (void)co_await f.client.Flush();  // block 1: partition 0 only
    f.client.Append(InsertRecord(150, 2, 50));
    (void)co_await f.client.Flush();  // block 2: partition 1 only
  });
  RunSim(f.sim, [&]() -> Task<> {
    // A partition-1 consumer: first block filtered, second delivered.
    auto blocks = co_await f.xlog.Pull(kLogStreamStart, PartitionId{1},
                                       1 * MiB);
    EXPECT_TRUE(blocks.ok());
    EXPECT_EQ(blocks->size(), 2u);
    if (blocks->size() == 2) {
      EXPECT_TRUE((*blocks)[0].filtered);
      EXPECT_TRUE((*blocks)[0].payload().empty());
      EXPECT_GT((*blocks)[0].payload_size, 0u);  // LSN still advances
      EXPECT_FALSE((*blocks)[1].filtered);
    }
  });
}

TEST(XLogTest, DestagingArchivesToLtAndTruncatesLz) {
  XLogFixture f;
  RunSim(f.sim, [&]() -> Task<> {
    for (int i = 0; i < 100; i++) {
      f.client.Append(InsertRecord(1, i, 200));
    }
    (void)co_await f.client.Flush();
  });
  f.sim.RunFor(10LL * 1000 * 1000);  // destage + LT writes complete
  EXPECT_EQ(f.xlog.destaged_lsn(), f.client.end_lsn());
  EXPECT_EQ(f.lz.start_lsn(), f.xlog.destaged_lsn());  // truncated
  EXPECT_GT(f.lt.BlobSize("log/lt"), 0u);
  // LT holds the full stream byte-for-byte.
  std::string lt_bytes = f.lt.ReadRaw(
      "log/lt", 0, f.client.end_lsn() - kLogStreamStart);
  int records = 0;
  ASSERT_TRUE(engine::ForEachRecord(Slice(lt_bytes), kLogStreamStart,
                                    [&](Lsn, Slice) {
                                      records++;
                                      return true;
                                    })
                  .ok());
  EXPECT_EQ(records, 100);
}

TEST(XLogTest, OldLogServedFromLowerTiersAfterSeqMapEviction) {
  XLogOptions xopts;
  xopts.sequence_map_bytes = 4 * KiB;  // tiny: evicts quickly
  XLogFixture f(sim::DeviceProfile::DirectDrive(), {}, xopts);
  RunSim(f.sim, [&]() -> Task<> {
    for (int i = 0; i < 300; i++) {
      f.client.Append(InsertRecord(1, i, 300));
      if (i % 3 == 0) (void)co_await f.client.Flush();
    }
    (void)co_await f.client.Flush();
  });
  f.sim.RunFor(10LL * 1000 * 1000);
  // Pull from the very beginning: the head of the log left the sequence
  // map long ago and must come from SSD cache / LZ / LT.
  RunSim(f.sim, [&]() -> Task<> {
    Lsn pos = kLogStreamStart;
    while (pos < f.xlog.available().value()) {
      auto blocks = co_await f.xlog.Pull(pos, std::nullopt, 256 * KiB);
      EXPECT_TRUE(blocks.ok());
      if (!blocks.ok() || blocks->empty()) break;
      pos = blocks->back().end_lsn();
    }
    EXPECT_EQ(pos, f.client.end_lsn());
  });
  EXPECT_GT(f.xlog.pulls_from_ssd() + f.xlog.pulls_from_lz() +
                f.xlog.pulls_from_lt(),
            0u);
}

TEST(XLogTest, DestagingSurvivesXStoreOutage) {
  XLogFixture f;
  chaos::Injector inj;
  f.lt.AttachChaos(&inj, "xstore");
  inj.SetOutage("xstore", true);
  // Bounded runs throughout: while XStore is down the destage retry loop
  // keeps scheduling events, so Run() would never drain.
  Spawn(f.sim, [](XLogFixture* fx) -> Task<> {
    for (int i = 0; i < 50; i++) fx->client.Append(CommitRecord(i));
    EXPECT_TRUE((co_await fx->client.Flush()).ok());
  }(&f));
  f.sim.RunFor(500000);
  Lsn stuck = f.xlog.destaged_lsn();
  EXPECT_LT(stuck, f.client.end_lsn());  // destaging is blocked
  // Commits still work (durability = LZ, not XStore). Bounded run: the
  // destage retry loop keeps scheduling events while the outage lasts.
  bool committed = false;
  Spawn(f.sim, [](XLogFixture* fx, bool* done) -> Task<> {
    fx->client.Append(CommitRecord(999));
    EXPECT_TRUE((co_await fx->client.Flush()).ok());
    *done = true;
  }(&f, &committed));
  f.sim.RunFor(2LL * 1000 * 1000);
  EXPECT_TRUE(committed);
  inj.SetOutage("xstore", false);
  f.sim.RunFor(10LL * 1000 * 1000);
  EXPECT_EQ(f.xlog.destaged_lsn(), f.client.end_lsn());  // caught up
}

// Commit latency shape, XIO vs DirectDrive (Appendix A / Table 6).
TEST(XLogLatencyTest, DirectDriveCommitsFasterThanXio) {
  auto measure = [](sim::DeviceProfile profile) {
    XLogFixture f(profile);
    Histogram h;
    RunSim(f.sim, [&]() -> Task<> {
      for (int i = 0; i < 300; i++) {
        SimTime begin = f.sim.now();
        f.client.Append(CommitRecord(i));
        (void)co_await f.client.Flush();
        h.Add(static_cast<double>(f.sim.now() - begin));
      }
    });
    return h;
  };
  Histogram xio = measure(sim::DeviceProfile::Xio());
  Histogram dd = measure(sim::DeviceProfile::DirectDrive());
  // Table 6 shape: DD median ~4x lower; DD min well under 1 ms while XIO
  // min is above 2 ms.
  EXPECT_GT(xio.Median() / dd.Median(), 2.5);
  EXPECT_GT(xio.min(), 2000);
  EXPECT_LT(dd.min(), 1000);
}

}  // namespace
}  // namespace xlog
}  // namespace socrates
