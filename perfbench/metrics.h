// Metric math of the end-to-end benchmark, kept free of the simulator so
// metrics_test.cc can check it on hand-made inputs:
//  * timings: median plus the highest percentile the sample supports
//    (at least ten samples must lie beyond it);
//  * per-type attribution: every CDB transaction type reports into one
//    of four latency classes (point, range, write, scan);
//  * failure accounting: every attempt counts, and a failed attempt is a
//    write-write conflict or "other";
//  * window diffs of the program's own cumulative histograms, read only
//    through Histogram's public accessors.

#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise the timing reports its median alone.
inline constexpr uint64_t kMinSamplesBeyond = 10;

/// Samples of an n-sample set that rank above the p-th percentile.
inline uint64_t SamplesBeyond(uint64_t n, double p) {
  double at = std::ceil(static_cast<double>(n) * p / 100.0);
  return at >= static_cast<double>(n) ? 0 : n - static_cast<uint64_t>(at);
}

inline bool PercentileSupported(uint64_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

/// Order-statistic percentile with linear interpolation (the same rule
/// as Histogram's exact path). `sorted` must be ascending and non-empty.
inline double SortedPercentile(const std::vector<double>& sorted, double p) {
  double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= sorted.size()) return sorted.back();
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[lo + 1] - sorted[lo]) * frac;
}

/// One timing: sample count, mean, median and p99. p99 is NaN when the
/// sample is too small to support it; all are NaN for an empty sample.
struct Timing {
  uint64_t n = 0;
  double mean = std::numeric_limits<double>::quiet_NaN();
  double p50 = std::numeric_limits<double>::quiet_NaN();
  double p99 = std::numeric_limits<double>::quiet_NaN();
};

inline Timing Summarize(std::vector<double> samples) {
  Timing t;
  t.n = samples.size();
  if (samples.empty()) return t;
  double sum = 0;
  for (double v : samples) sum += v;
  t.mean = sum / static_cast<double>(t.n);
  std::sort(samples.begin(), samples.end());
  t.p50 = SortedPercentile(samples, 50);
  if (PercentileSupported(t.n, 99)) t.p99 = SortedPercentile(samples, 99);
  return t;
}

/// Latency classes the benchmark reports per transaction type.
enum class TxnClass { kPoint = 0, kRange, kWrite, kScan };
inline constexpr int kTxnClasses = 4;
inline constexpr std::array<const char*, kTxnClasses> kClassNames = {
    "point", "range", "write", "scan"};

/// CDB transaction type (workload::CdbTxnType as an int) -> class.
/// Every type that commits through the log is a write.
inline TxnClass ClassOfCdbType(int type) {
  switch (type) {
    case 0: return TxnClass::kPoint;  // kPointLookup
    case 1: return TxnClass::kRange;  // kRangeScan
    case 6: return TxnClass::kScan;   // kAnalyticScan
    default: return TxnClass::kWrite;  // RMW, bulk, insert, update-lite
  }
}

/// Pick an index from `weights` with one uniform draw in [0, 1): the
/// benchmark's own transaction-type choice.
template <size_t N>
int PickWeighted(const std::array<double, N>& weights, double u) {
  double total = 0;
  for (double w : weights) total += w;
  double acc = 0;
  int last = 0;
  for (size_t i = 0; i < N; i++) {
    if (weights[i] <= 0) continue;
    last = static_cast<int>(i);
    acc += weights[i] / total;
    if (u < acc) return last;
  }
  return last;
}

/// Per-class latency samples and the attempt/failure ledger of one run.
/// A transaction is retried (the same keys, a fresh snapshot) until it
/// commits or runs out of attempts; its latency runs from its due time
/// to the final commit. Transactions are counted by due time, attempts
/// by the time they end, so that failed attempts line up with the
/// engine's conflict counter diffed over the same window.
struct TxnLedger {
  std::array<std::vector<double>, kTxnClasses> latency_us;
  std::vector<double> all_us;
  uint64_t transactions = 0;  // logical transactions attempted
  uint64_t committed = 0;
  uint64_t failed = 0;        // never committed after every attempt
  uint64_t attempts = 0;      // engine commits tried
  uint64_t failed_attempts = 0;

  void RecordAttempt(bool ok) {
    attempts++;
    if (!ok) failed_attempts++;
  }

  void Record(int cdb_type, bool committed_at_end, double latency) {
    transactions++;
    if (!committed_at_end) {
      failed++;
      return;
    }
    committed++;
    latency_us[static_cast<int>(ClassOfCdbType(cdb_type))].push_back(latency);
    all_us.push_back(latency);
  }

  void Merge(const TxnLedger& o) {
    for (int c = 0; c < kTxnClasses; c++) {
      latency_us[c].insert(latency_us[c].end(), o.latency_us[c].begin(),
                           o.latency_us[c].end());
    }
    all_us.insert(all_us.end(), o.all_us.begin(), o.all_us.end());
    transactions += o.transactions;
    committed += o.committed;
    failed += o.failed;
    attempts += o.attempts;
    failed_attempts += o.failed_attempts;
  }
};

/// Failed attempts split by cause, as shares of all attempts. Conflicts
/// come from the engine's own conflict counter over the same window;
/// everything else that failed is "other".
struct FailureSplit {
  double conflicts_pct = 0;
  double other_pct = 0;
};

inline FailureSplit SplitFailures(uint64_t attempts, uint64_t failed_attempts,
                                  uint64_t conflicts) {
  FailureSplit f;
  if (attempts == 0) return f;
  uint64_t c = std::min(conflicts, failed_attempts);
  f.conflicts_pct = 100.0 * static_cast<double>(c) / attempts;
  f.other_pct = 100.0 * static_cast<double>(failed_attempts - c) / attempts;
  return f;
}

/// Samples of cumulative histogram `after` that `before` (a copy taken at
/// the window start) had not yet seen, below value v.
inline double WindowCountBelow(const socrates::Histogram& before,
                               const socrates::Histogram& after, double v) {
  double a = static_cast<double>(after.count()) * after.FractionBelow(v);
  double b = static_cast<double>(before.count()) * before.FractionBelow(v);
  return a - b;
}

/// p-th percentile of the samples added between `before` and `after`,
/// from bucket counts only: the smallest bucket bound below which at
/// least p% of the window's samples lie (an upper bound within one
/// bucket, ~15%). NaN when the window added no samples.
inline double WindowPercentile(const socrates::Histogram& before,
                               const socrates::Histogram& after, double p) {
  double n = static_cast<double>(after.count() - before.count());
  if (n <= 0) return std::numeric_limits<double>::quiet_NaN();
  double want = n * p / 100.0 - 1e-6;
  // FractionBelow is a step function of v; bisect on log(v) between the
  // smallest bucket and just past the window maximum.
  double lo = 0, hi = std::log(std::max(after.max(), 1.0) * 2.0);
  for (int i = 0; i < 80; i++) {
    double mid = (lo + hi) / 2;
    if (WindowCountBelow(before, after, std::exp(mid)) >= want) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return std::min(std::exp(hi), after.max());
}

/// Mean of the samples added between `before` and `after`.
inline double WindowMean(const socrates::Histogram& before,
                         const socrates::Histogram& after) {
  double n = static_cast<double>(after.count() - before.count());
  if (n <= 0) return std::numeric_limits<double>::quiet_NaN();
  double sum = after.mean() * static_cast<double>(after.count()) -
               before.mean() * static_cast<double>(before.count());
  return sum / n;
}

inline double Ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

}  // namespace perfbench
