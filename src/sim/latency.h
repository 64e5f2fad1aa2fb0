// LatencyModel: parametric latency distributions for simulated devices and
// network hops, plus the named profiles used across the benchmarks
// (local SSD, Azure Premium Storage "XIO", DirectDrive "DD", XStore,
// intra-DC network). Profiles are calibrated so the landing-zone study
// (paper Appendix A, Table 6) reproduces the published shape.

#pragma once

#include <algorithm>

#include "common/random.h"
#include "common/types.h"

namespace socrates {
namespace sim {

class LatencyModel {
 public:
  enum class Kind { kZero, kFixed, kUniform, kLogNormal };

  LatencyModel() : kind_(Kind::kZero) {}

  static LatencyModel Zero() { return LatencyModel(); }

  static LatencyModel Fixed(SimTime us) {
    LatencyModel m;
    m.kind_ = Kind::kFixed;
    m.a_ = static_cast<double>(us);
    return m;
  }

  static LatencyModel Uniform(SimTime lo_us, SimTime hi_us) {
    LatencyModel m;
    m.kind_ = Kind::kUniform;
    m.a_ = static_cast<double>(lo_us);
    m.b_ = static_cast<double>(hi_us);
    return m;
  }

  /// Log-normal with the given median and sigma, clamped to [min, max].
  /// The heavy right tail matches observed cloud-storage latency.
  static LatencyModel LogNormal(double median_us, double sigma,
                                SimTime min_us, SimTime max_us) {
    LatencyModel m;
    m.kind_ = Kind::kLogNormal;
    m.a_ = median_us;
    m.b_ = sigma;
    m.min_ = min_us;
    m.max_ = max_us;
    return m;
  }

  SimTime Sample(Random& rng) const {
    double v = 0;
    switch (kind_) {
      case Kind::kZero:
        return 0;
      case Kind::kFixed:
        v = a_;
        break;
      case Kind::kUniform:
        v = a_ + rng.NextDouble() * (b_ - a_);
        break;
      case Kind::kLogNormal:
        v = rng.LogNormal(a_, b_);
        // A small fraction of requests hit the deep tail (stragglers).
        if (rng.Bernoulli(0.002)) v *= 10.0;
        break;
    }
    SimTime t = static_cast<SimTime>(v);
    t = std::max(t, min_);
    if (max_ > 0) t = std::min(t, max_);
    return std::max<SimTime>(t, 0);
  }

 private:
  Kind kind_;
  double a_ = 0;  // fixed value / uniform lo / lognormal median
  double b_ = 0;  // uniform hi / lognormal sigma
  SimTime min_ = 0;
  SimTime max_ = 0;
};

/// Per-device latency + CPU-cost profile. `cpu_per_io_us` is the CPU the
/// *issuing* node burns per request, and `cpu_per_kb_us` per kilobyte
/// transferred (e.g. XIO's REST marshalling + TLS serializes every byte;
/// DD's RDMA path barely touches the CPU — the effect behind Table 7).
struct DeviceProfile {
  LatencyModel read;
  LatencyModel write;
  SimTime cpu_per_io_us = 0;
  double cpu_per_kb_us = 0;
  /// Wire bandwidth to the device in MB/s; each request pays an extra
  /// size/bandwidth transfer term on top of the sampled base latency.
  /// 0 disables the term (base latency already includes transfer for
  /// the request sizes the profile was calibrated at). 1 MB/s == 1
  /// byte/us, so the delay is simply bytes / wire_mb_per_s.
  double wire_mb_per_s = 0;

  SimTime TransferUs(uint64_t bytes) const {
    if (wire_mb_per_s <= 0) return 0;
    return static_cast<SimTime>(static_cast<double>(bytes) /
                                wire_mb_per_s);
  }

  /// Locally attached NVMe SSD (RBPEX backing, XLOG block cache).
  static DeviceProfile LocalSsd() {
    DeviceProfile p;
    p.read = LatencyModel::LogNormal(85, 0.15, 50, 2000);
    p.write = LatencyModel::LogNormal(35, 0.15, 20, 2000);
    p.cpu_per_io_us = 4;
    p.cpu_per_kb_us = 0.5;
    return p;
  }

  /// Azure Premium Storage ("XIO"): remote, replicated, REST-fronted.
  /// Calibrated to Table 6: commit min ~2.5 ms, median ~3.3 ms.
  static DeviceProfile Xio() {
    DeviceProfile p;
    p.read = LatencyModel::LogNormal(2900, 0.14, 2300, 38000);
    p.write = LatencyModel::LogNormal(3250, 0.14, 2450, 36000);
    p.cpu_per_io_us = 320;  // expensive REST call
    p.cpu_per_kb_us = 45;   // HTTPS/REST serializes every byte
    p.wire_mb_per_s = 250;  // REST front end caps per-stream bandwidth
    return p;
  }

  /// DirectDrive ("DD"): RDMA-based premium storage. Calibrated to
  /// Table 6: commit min ~480 us, median ~800 us.
  static DeviceProfile DirectDrive() {
    DeviceProfile p;
    p.read = LatencyModel::LogNormal(700, 0.2, 440, 39000);
    p.write = LatencyModel::LogNormal(790, 0.2, 470, 39000);
    p.cpu_per_io_us = 40;     // cheap Win32 path
    p.cpu_per_kb_us = 6;      // RDMA: minimal per-byte CPU
    p.wire_mb_per_s = 2000;   // RDMA line rate
    return p;
  }

  /// XStore (Azure Standard Storage): cheap, durable, hard-disk based,
  /// high latency, high per-request overhead. Throughput-oriented.
  static DeviceProfile XStore() {
    DeviceProfile p;
    p.read = LatencyModel::LogNormal(9000, 0.3, 4000, 200000);
    p.write = LatencyModel::LogNormal(12000, 0.3, 5000, 300000);
    p.cpu_per_io_us = 150;
    p.cpu_per_kb_us = 20;
    return p;
  }

  /// Server-side pushdown evaluation (RBIO kScanRange): the CPU a
  /// Page Server burns walking leaf pages and evaluating predicates /
  /// projections / aggregates against its covering RBPEX. No I/O latency
  /// of its own — the page reads pay the RBPEX device; this profile
  /// prices only the evaluator (per leaf visited + per KB of leaf data
  /// scanned), so pushdown trades compute-tier bytes for measured Page
  /// Server CPU instead of being free.
  static DeviceProfile PushdownEval() {
    DeviceProfile p;
    p.read = LatencyModel::Zero();
    p.write = LatencyModel::Zero();
    p.cpu_per_io_us = 3;     // per leaf page: slot walk + fence checks
    p.cpu_per_kb_us = 0.8;   // per KB evaluated: version chains + predicate
    return p;
  }

  /// Intra-datacenter network round trip for RBIO-style RPCs.
  static DeviceProfile IntraDcNetwork() {
    DeviceProfile p;
    p.read = LatencyModel::LogNormal(250, 0.2, 120, 20000);
    p.write = LatencyModel::LogNormal(250, 0.2, 120, 20000);
    p.cpu_per_io_us = 8;
    return p;
  }
};

}  // namespace sim
}  // namespace socrates
