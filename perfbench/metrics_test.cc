// Self-tests of the benchmark's metric math (metrics.h). run.py runs
// this binary after every build and refuses to benchmark if it fails.

#include <cmath>
#include <cstdio>

#include "metrics.h"

namespace {

int failures = 0;

#define CHECK(cond)                                              \
  do {                                                           \
    if (!(cond)) {                                               \
      fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
              __LINE__, #cond);                                  \
      failures++;                                                \
    }                                                            \
  } while (0)

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void PercentileSampleCountRule() {
  using perfbench::PercentileSupported;
  using perfbench::SamplesBeyond;
  // p99 needs ten samples beyond it: 1000 samples is the smallest set.
  CHECK(SamplesBeyond(1000, 99) == 10);
  CHECK(PercentileSupported(1000, 99));
  CHECK(!PercentileSupported(999, 99));
  CHECK(!PercentileSupported(0, 99));
  CHECK(PercentileSupported(20, 50));
  CHECK(!PercentileSupported(19, 50));

  std::vector<double> v;
  for (int i = 1; i <= 999; i++) v.push_back(i);
  perfbench::Timing t = perfbench::Summarize(v);
  CHECK(t.n == 999);
  CHECK(Near(t.p50, 500, 1e-9));
  CHECK(std::isnan(t.p99));  // too few samples: median alone
  v.push_back(1000);
  t = perfbench::Summarize(v);
  CHECK(t.n == 1000);
  CHECK(Near(t.mean, 500.5, 1e-9));
  CHECK(Near(t.p50, 500.5, 1e-9));
  CHECK(Near(t.p99, 990.01, 1e-9));
  t = perfbench::Summarize({});
  CHECK(t.n == 0 && std::isnan(t.mean) && std::isnan(t.p50) &&
        std::isnan(t.p99));
}

void PerTypeAttribution() {
  using perfbench::ClassOfCdbType;
  using perfbench::TxnClass;
  CHECK(ClassOfCdbType(0) == TxnClass::kPoint);
  CHECK(ClassOfCdbType(1) == TxnClass::kRange);
  for (int write_type : {2, 3, 4, 5}) {
    CHECK(ClassOfCdbType(write_type) == TxnClass::kWrite);
  }
  CHECK(ClassOfCdbType(6) == TxnClass::kScan);

  // The type pick follows the mix weights and never picks a zero weight.
  std::array<double, 7> mix = {0.7, 0, 0, 0, 0, 0, 0.3};
  CHECK(perfbench::PickWeighted(mix, 0.0) == 0);
  CHECK(perfbench::PickWeighted(mix, 0.69) == 0);
  CHECK(perfbench::PickWeighted(mix, 0.71) == 6);
  CHECK(perfbench::PickWeighted(mix, 0.999999) == 6);
  std::array<double, 7> lite = {0, 0, 0, 0, 0, 1, 0};
  CHECK(perfbench::PickWeighted(lite, 0.5) == 5);

  perfbench::TxnLedger l;
  l.Record(0, true, 100);
  l.Record(6, true, 900);
  l.Record(5, true, 50);
  l.Record(3, true, 70);
  CHECK(l.latency_us[0].size() == 1 && l.latency_us[3].size() == 1);
  CHECK(l.latency_us[2].size() == 2);  // update-lite and bulk are writes
  CHECK(l.latency_us[1].empty());
  CHECK(l.all_us.size() == 4);
}

void FailureCounting() {
  perfbench::TxnLedger l;
  // First try; two failures then a commit; eight failures.
  for (bool ok : {true, false, false, true}) l.RecordAttempt(ok);
  for (int i = 0; i < 8; i++) l.RecordAttempt(false);
  l.Record(2, true, 10);
  l.Record(2, true, 30);
  l.Record(2, false, 99);
  CHECK(l.transactions == 3);
  CHECK(l.committed == 2);
  CHECK(l.failed == 1);
  CHECK(l.attempts == 12);
  CHECK(l.failed_attempts == 10);
  CHECK(l.all_us.size() == 2);  // a failed transaction has no latency

  perfbench::TxnLedger m;
  m.RecordAttempt(true);
  m.Record(0, true, 5);
  m.Merge(l);
  CHECK(m.transactions == 4 && m.failed == 1 && m.attempts == 13);

  // 9 failed attempts of 12, 6 of them conflicts by the engine's count.
  perfbench::FailureSplit f = perfbench::SplitFailures(12, 9, 6);
  CHECK(Near(f.conflicts_pct, 50.0, 1e-9));
  CHECK(Near(f.other_pct, 25.0, 1e-9));
  // Conflicts never exceed the failures observed.
  f = perfbench::SplitFailures(10, 1, 5);
  CHECK(Near(f.conflicts_pct, 10.0, 1e-9) && Near(f.other_pct, 0, 1e-9));
  f = perfbench::SplitFailures(0, 0, 0);
  CHECK(f.conflicts_pct == 0 && f.other_pct == 0);
}

void HistogramWindowDiff() {
  socrates::Histogram h;
  for (int i = 0; i < 1000; i++) h.Add(10000);  // before the window
  socrates::Histogram before = h;
  for (int i = 0; i < 1000; i++) h.Add(100 + i % 10);
  // The window holds only ~100-109 µs samples; the earlier 10 ms ones
  // must not leak into its percentiles.
  double p50 = perfbench::WindowPercentile(before, h, 50);
  double p99 = perfbench::WindowPercentile(before, h, 99);
  CHECK(p50 >= 100 && p50 <= 125);
  CHECK(p99 >= 105 && p99 <= 125);
  CHECK(Near(perfbench::WindowMean(before, h), 104.5, 1e-6));
  CHECK(std::isnan(perfbench::WindowPercentile(h, h, 50)));
}

}  // namespace

int main() {
  PercentileSampleCountRule();
  PerTypeAttribution();
  FailureCounting();
  HistogramWindowDiff();
  if (failures != 0) {
    fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  printf("perfbench self-tests passed\n");
  return 0;
}
