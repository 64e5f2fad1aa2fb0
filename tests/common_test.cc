// Unit tests for src/common: Status/Result, Slice, coding, CRC32-C,
// Random/Zipf, Histogram.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/coding.h"
#include "common/compress.h"
#include "common/scan_expr.h"
#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace socrates {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("missing page");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing page");
  EXPECT_EQ(s.ToString(), "NotFound: missing page");

  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_TRUE(Status::OutOfSpace().IsOutOfSpace());
  EXPECT_TRUE(Status::Shutdown().IsShutdown());
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto inner = [](bool fail) -> Status {
    if (fail) return Status::IOError("disk gone");
    return Status::OK();
  };
  auto outer = [&](bool fail) -> Status {
    SOCRATES_RETURN_IF_ERROR(inner(fail));
    return Status::OK();
  };
  EXPECT_TRUE(outer(false).ok());
  EXPECT_TRUE(outer(true).IsIOError());
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ----------------------------------------------------------------- Slice

TEST(SliceTest, Basics) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_EQ(s.ToString(), "hello");
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(SliceTest, Compare) {
  EXPECT_TRUE(Slice("a") < Slice("b"));
  EXPECT_TRUE(Slice("a") < Slice("aa"));
  EXPECT_EQ(Slice("abc"), Slice("abc"));
  EXPECT_NE(Slice("abc"), Slice("abd"));
  EXPECT_TRUE(Slice("abcdef").starts_with(Slice("abc")));
  EXPECT_FALSE(Slice("ab").starts_with(Slice("abc")));
}

// ---------------------------------------------------------------- Coding

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in(buf);
  uint16_t a;
  uint32_t b;
  uint64_t c;
  ASSERT_TRUE(GetFixed16(&in, &a));
  ASSERT_TRUE(GetFixed32(&in, &b));
  ASSERT_TRUE(GetFixed64(&in, &c));
  EXPECT_EQ(a, 0xBEEF);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, TruncatedReadsFail) {
  std::string buf;
  PutFixed32(&buf, 7);
  Slice in(buf.data(), 3);
  uint32_t v;
  EXPECT_FALSE(GetFixed32(&in, &v));
  uint64_t w;
  EXPECT_FALSE(GetFixed64(&in, &w));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("alpha"));
  PutLengthPrefixed(&buf, Slice(""));
  PutLengthPrefixed(&buf, Slice("omega"));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a.ToString(), "alpha");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.ToString(), "omega");
  EXPECT_FALSE(GetLengthPrefixed(&in, &a));
}

TEST(CodingTest, LengthPrefixedTruncated) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("abcdef"));
  Slice in(buf.data(), buf.size() - 2);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixed(&in, &out));
}

// ----------------------------------------------------------------- CRC32C

TEST(Crc32cTest, KnownVectors) {
  char zeros[32] = {0};
  char ones[32], up[32], down[32];
  for (int i = 0; i < 32; i++) {
    ones[i] = static_cast<char>(0xFF);
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  // The standard check value, then RFC 3720 (iSCSI) appendix B.4;
  // each on the dispatched path and on the table reference.
  const struct {
    const char* data;
    size_t n;
    uint32_t crc;
  } kVectors[] = {{"123456789", 9, 0xE3069283u},
                  {zeros, 32, 0x8A9136AAu},
                  {ones, 32, 0x62A8AB43u},
                  {up, 32, 0x46DD794Eu},
                  {down, 32, 0x113FDB5Cu}};
  for (const auto& v : kVectors) {
    EXPECT_EQ(crc32c::Value(v.data, v.n), v.crc);
    EXPECT_EQ(crc32c::ExtendPortable(0, v.data, v.n), v.crc);
  }
}

TEST(Crc32cTest, DispatchUsesHardwareWhenCpuHasIt) {
  // Otherwise the equivalence test below compares the table with itself.
#if defined(__x86_64__)
  EXPECT_EQ(crc32c::HardwareAccelerated(),
            __builtin_cpu_supports("sse4.2") != 0);
#else
  EXPECT_FALSE(crc32c::HardwareAccelerated());
#endif
}

TEST(Crc32cTest, DispatchedMatchesPortable) {
  Random rng(13);
  std::string buf(9000 + 16, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  // Every length to 512, then a stride coprime with 8 so the 8-byte
  // chain meets every tail length; misaligned starts, random seeds.
  for (size_t len = 0; len <= 9000; len += (len < 512 ? 1 : 7)) {
    size_t off = rng.Uniform(16);
    uint32_t init = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(crc32c::Extend(init, buf.data() + off, len),
              crc32c::ExtendPortable(init, buf.data() + off, len))
        << "len " << len << " off " << off << " init " << init;
  }
  // Chaining: a split at any cut point gives the one-shot value.
  const char* p = buf.data() + 3;
  for (size_t cut = 0; cut <= 64; cut++) {
    uint32_t init = static_cast<uint32_t>(rng.Next());
    uint32_t whole = crc32c::ExtendPortable(init, p, 64);
    uint32_t head = crc32c::Extend(init, p, cut);
    EXPECT_EQ(crc32c::Extend(head, p + cut, 64 - cut), whole)
        << "cut " << cut;
  }
}

TEST(Crc32cTest, ThreeStreamRoundsMatchPortableAtEveryEdge) {
  // The hardware path runs rounds of three 256-byte blocks, then one
  // chain; check lengths around each round boundary, the page body, a
  // page and a near-64 KiB log block.
  Random rng(29);
  std::string buf(64 * 1024 + 16, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  std::vector<size_t> lengths = {8188, 8192, 64 * 1024 - 13};
  constexpr size_t kRound = 3 * 256;
  for (size_t k = 1; k * kRound <= 12 * 1024; k++) {
    for (size_t d = 0; d <= 9; d++) {
      lengths.push_back(k * kRound + d);
      lengths.push_back(k * kRound - 1 - d);
    }
  }
  for (size_t len : lengths) {
    size_t off = rng.Uniform(16);
    uint32_t init = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(crc32c::Extend(init, buf.data() + off, len),
              crc32c::ExtendPortable(init, buf.data() + off, len))
        << "len " << len << " off " << off << " init " << init;
  }
}

TEST(Crc32cTest, ExtendEquivalence) {
  const char* data = "hello crc world";
  uint32_t whole = crc32c::Value(data, 15);
  uint32_t split = crc32c::Extend(crc32c::Value(data, 7), data + 7, 8);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, MaskUnmaskRoundTrip) {
  uint32_t crc = crc32c::Value("payload", 7);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data(512, 'x');
  uint32_t before = crc32c::Value(data.data(), data.size());
  data[100] ^= 0x40;
  EXPECT_NE(before, crc32c::Value(data.data(), data.size()));
}

// --------------------------------------------------------------- Compress

TEST(CompressTest, RoundTripRepetitive) {
  std::string raw;
  for (int i = 0; i < 100; i++) raw += "commit-record-payload-";
  std::string packed;
  compress::Compress(Slice(raw), &packed);
  EXPECT_LT(packed.size(), raw.size() / 2);
  std::string back;
  ASSERT_TRUE(compress::Decompress(Slice(packed), raw.size(), &back).ok());
  EXPECT_EQ(back, raw);
}

TEST(CompressTest, RoundTripIncompressibleAndEmpty) {
  Random rng(7);
  std::string raw;
  for (int i = 0; i < 4096; i++) {
    raw.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  std::string packed;
  compress::Compress(Slice(raw), &packed);
  std::string back;
  ASSERT_TRUE(compress::Decompress(Slice(packed), raw.size(), &back).ok());
  EXPECT_EQ(back, raw);

  std::string none, out;
  compress::Compress(Slice(), &none);
  ASSERT_TRUE(compress::Decompress(Slice(none), 0, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(CompressTest, DeterministicOutput) {
  std::string raw(1000, 'u');
  raw += "tail-of-block";
  std::string a, b;
  compress::Compress(Slice(raw), &a);
  compress::Compress(Slice(raw), &b);
  EXPECT_EQ(a, b);
}

TEST(CompressTest, CorruptStreamsRejected) {
  std::string raw(500, 'z');
  std::string packed;
  compress::Compress(Slice(raw), &packed);
  std::string out;
  // Truncated stream.
  EXPECT_FALSE(compress::Decompress(Slice(packed.data(), packed.size() / 2),
                                    raw.size(), &out)
                   .ok());
  // Wrong raw length (both directions).
  EXPECT_FALSE(
      compress::Decompress(Slice(packed), raw.size() + 1, &out).ok());
  EXPECT_FALSE(
      compress::Decompress(Slice(packed), raw.size() - 1, &out).ok());
}

// ----------------------------------------------------------------- Random

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123), c(124);
  bool differ = false;
  for (int i = 0; i < 100; i++) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 10000; i++) {
    uint64_t v = r.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random r(9);
  double sum = 0;
  for (int i = 0; i < 100000; i++) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(RandomTest, ExponentialMean) {
  Random r(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; i++) sum += r.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RandomTest, LogNormalMedian) {
  Random r(13);
  std::vector<double> v;
  const int n = 100001;
  v.reserve(n);
  for (int i = 0; i < n; i++) v.push_back(r.LogNormal(100.0, 0.3));
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  EXPECT_NEAR(v[n / 2], 100.0, 3.0);
}

TEST(ZipfTest, SkewConcentratesOnHotItems) {
  ZipfGenerator zipf(1000000, 0.99, 17);
  std::map<uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; i++) counts[zipf.Next()]++;
  // Item 0 must be by far the hottest; top-10 items should cover a large
  // fraction of all draws under theta=0.99.
  int top10 = 0;
  for (uint64_t k = 0; k < 10; k++) top10 += counts.count(k) ? counts[k] : 0;
  EXPECT_GT(counts[0], n / 50);
  EXPECT_GT(top10, n / 5);
}

TEST(ZipfTest, ValuesInRange) {
  ZipfGenerator zipf(100, 0.8, 5);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(zipf.Next(), 100u);
  }
}

TEST(ZipfTest, LargeKeyspaceApproximation) {
  // Exercises the approximate-zeta path (n > 2^22).
  ZipfGenerator zipf(1ull << 28, 0.9, 3);
  uint64_t max_seen = 0;
  for (int i = 0; i < 10000; i++) max_seen = std::max(max_seen, zipf.Next());
  EXPECT_LT(max_seen, 1ull << 28);
  // Skewed: some draw should be far out in the tail but most near zero.
  int small = 0;
  for (int i = 0; i < 10000; i++) {
    if (zipf.Next() < 1000) small++;
  }
  // Under theta=0.9, P(key < 1000) ~ (1000/n)^0.1 ~ 29%; far above uniform
  // (which would be ~0%). Loose bound to stay robust to the approximation.
  EXPECT_GT(small, 1000);
}

TEST(ShuffleTest, PermutationPreserved) {
  Random r(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto orig = v;
  Shuffle(&v, &r);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), orig.begin()));
}

// -------------------------------------------------------------- Histogram

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; i++) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.Median(), 50.0, 5.0);
  EXPECT_NEAR(h.Percentile(95), 95.0, 8.0);
}

TEST(HistogramTest, MergeMatchesCombined) {
  Histogram a, b, c;
  Random r(31);
  for (int i = 0; i < 5000; i++) {
    double v = r.LogNormal(100, 0.5);
    if (i % 2 == 0) a.Add(v);
    else b.Add(v);
    c.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), c.count());
  EXPECT_NEAR(a.mean(), c.mean(), 1e-9 * c.mean());
  EXPECT_NEAR(a.Percentile(99), c.Percentile(99), 1e-9);
}

TEST(HistogramTest, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 10; i++) h.Add(42);
  EXPECT_NEAR(h.stddev(), 0.0, 1e-6);
  EXPECT_EQ(h.min(), 42.0);
  EXPECT_EQ(h.max(), 42.0);
}

TEST(HistogramTest, PercentileMonotone) {
  Histogram h;
  Random r(37);
  for (int i = 0; i < 10000; i++) h.Add(r.LogNormal(500, 0.8));
  double prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    double v = h.Percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_LE(prev, h.max());
}

TEST(CounterStatsTest, HitRate) {
  CounterStats s;
  EXPECT_EQ(s.HitRate(), 0.0);
  s.hits = 3;
  s.misses = 1;
  EXPECT_DOUBLE_EQ(s.HitRate(), 0.75);
}

// ------------------------------------------------------ scan expressions

TEST(ScanExprTest, RangeAwareModSelectivityClamps) {
  auto p = common::ScanPredicate::KeyModEq(1000, 5);
  // Unbounded range: the full-range prior, 1/1000.
  EXPECT_DOUBLE_EQ(common::EstimatedSelectivity(p, 0, 0), 0.001);
  // A 10-key window holds exactly one hit (key 5): density 1/10, three
  // orders denser than the prior.
  EXPECT_DOUBLE_EQ(common::EstimatedSelectivity(p, 0, 10), 0.1);
  // The same window placed past the hit holds none.
  EXPECT_DOUBLE_EQ(common::EstimatedSelectivity(p, 6, 16), 0.0);
  // A wide window converges back to the prior.
  EXPECT_NEAR(common::EstimatedSelectivity(p, 0, 100000), 0.001, 1e-5);
}

TEST(ScanExprTest, PredicateCodecRoundTrip) {
  auto p = common::ScanPredicate::KeyModEq(7, 3);
  std::string wire;
  common::EncodePredicate(&wire, p);
  ASSERT_EQ(wire.size(), 17u);  // [u8 op][u64 a][u64 b]
  Slice in(wire);
  common::ScanPredicate out;
  ASSERT_TRUE(common::DecodePredicate(&in, &out).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(out.op, common::PredOp::kKeyModEq);
  EXPECT_EQ(out.a, 7u);
  EXPECT_EQ(out.b, 3u);
  // Truncations rejected, never mis-read.
  for (size_t cut = 0; cut < wire.size(); cut++) {
    Slice t(wire.data(), cut);
    common::ScanPredicate scratch;
    EXPECT_TRUE(common::DecodePredicate(&t, &scratch).IsCorruption()) << cut;
  }
  // Every op past kKeyModEq is unknown.
  for (int op : {2, 3, 4, 0x7f}) {
    std::string bad = wire;
    bad[0] = static_cast<char>(op);
    Slice b(bad);
    common::ScanPredicate scratch;
    EXPECT_TRUE(common::DecodePredicate(&b, &scratch).IsNotSupported())
        << op;
  }
  // Likewise every aggregate fn past kSum.
  std::string agg;
  common::EncodeAggregate(&agg, common::ScanAggregate::Sum(8));
  Slice a(agg);
  common::ScanAggregate got;
  ASSERT_TRUE(common::DecodeAggregate(&a, &got).ok());
  EXPECT_EQ(got.fn, common::AggFn::kSum);
  EXPECT_EQ(got.field_offset, 8u);
  for (int fn : {3, 4, 0x7f}) {
    std::string bad = agg;
    bad[0] = static_cast<char>(fn);
    Slice b(bad);
    EXPECT_TRUE(common::DecodeAggregate(&b, &got).IsNotSupported()) << fn;
  }
}

TEST(ScanExprTest, ProjectionCountBeyondFrameIsCorruption) {
  // A 2-byte claim of 65535 extents (4 B each) must be rejected before
  // anything is sized by it.
  std::string wire;
  PutFixed16(&wire, 0xffff);
  Slice in(wire);
  common::ScanProjection out;
  EXPECT_TRUE(common::DecodeProjection(&in, &out).IsCorruption());
  EXPECT_LE(out.extents.capacity(), 16u);
}

}  // namespace
}  // namespace socrates
