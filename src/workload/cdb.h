// CDB: Microsoft's Cloud Database Benchmark (the "DTU benchmark"), used
// for every performance number in the paper (§7.1). The real benchmark is
// closed; the paper describes its structure — a synthetic database with
// six tables and a scaling factor, transaction types "covering a wide
// range of operations from simple point lookups to complex bulk updates",
// and named workload mixes (default, update-heavy/max-log, UpdateLite,
// read-only). This module reproduces that structure.
//
// CPU cost model: each operation charges modelled CPU to the compute
// node's CpuResource, calibrated so that the default mix on an 8-core
// node saturates at roughly the paper's Table 2 throughput (~1400 TPS).

#pragma once

#include <array>

#include "workload/workload.h"

namespace socrates {
namespace workload {

struct CdbOptions {
  /// Rows per table = CdbWorkload::kRowMultipliers[t] * scale_factor.
  /// The paper's SF 20000 is a 1 TB database; scale down proportionally.
  uint64_t scale_factor = 100;
  std::array<uint32_t, 6> payload_bytes{120, 90, 150, 60, 250, 180};
  /// Multiplier on all CPU costs (calibration knob).
  double cpu_scale = 4.0;
  /// Payload bytes for kUpdateLite rows (0 = use the table's payload
  /// size). Appendix A experiments tune this to set log volume.
  uint32_t lite_payload_bytes = 0;
};

enum class CdbTxnType {
  kPointLookup = 0,   // 1-10 point reads
  kRangeScan = 1,     // scan up to 128 rows (the §4.6 scan size)
  kReadModifyWrite = 2,  // 1-4 read+update pairs
  kBulkUpdate = 3,    // update ~100 rows (complex bulk update)
  kInsert = 4,        // insert ~8 rows
  kUpdateLite = 5,    // single tiny update (Appendix A)
  kAnalyticScan = 6,  // selective filtered scan / partial aggregate over
                      // a wide span (pushdown-eligible, HTAP read)
};

inline constexpr int kCdbTxnTypes = 7;

struct CdbMix {
  std::array<double, kCdbTxnTypes> weights{};

  /// Default mix: all transaction types; ~25% write transactions
  /// (Table 2's read/write TPS split).
  static CdbMix Default() {
    CdbMix m;
    m.weights = {0.50, 0.25, 0.17, 0.02, 0.06, 0.0};
    return m;
  }
  /// Update-heavy mix producing the maximum amount of log (Table 5).
  static CdbMix MaxLog() {
    CdbMix m;
    m.weights = {0.0, 0.0, 0.0, 1.0, 0.0, 0.0};
    return m;
  }
  /// Mostly small updates, no read transactions (Appendix A).
  static CdbMix UpdateLite() {
    CdbMix m;
    m.weights = {0.0, 0.0, 0.0, 0.0, 0.0, 1.0};
    return m;
  }
  static CdbMix ReadOnly() {
    CdbMix m;
    m.weights = {0.70, 0.30, 0.0, 0.0, 0.0, 0.0, 0.0};
    return m;
  }
  /// HTAP mix: OLTP foreground plus a heavy analytic-scan component —
  /// the workload computation pushdown is built for. Scans are filtered
  /// wide-span reads (selective predicates, ~half aggregating), so a
  /// pushdown-enabled deployment ships them to Page Servers while the
  /// OLTP side still moves pages.
  static CdbMix Htap() {
    CdbMix m;
    m.weights = {0.40, 0.15, 0.10, 0.01, 0.04, 0.0, 0.30};
    return m;
  }
  /// Interference mix: pure point lookups against a heavy analytic-scan
  /// backdrop, no writes — the worst case for Page Server serving health
  /// (§4.6). Every point read that misses compute caches competes with
  /// ServeScan CPU on the same server; bench_pushdown_interference
  /// measures how far GetPage p99 degrades with scan admission on/off.
  static CdbMix Interference() {
    CdbMix m;
    m.weights = {0.70, 0.0, 0.0, 0.0, 0.0, 0.0, 0.30};
    return m;
  }
};

class CdbWorkload : public Workload {
 public:
  CdbWorkload(const CdbOptions& options, const CdbMix& mix)
      : opts_(options), mix_(mix) {}

  /// Populate the six tables (chunked multi-row transactions).
  sim::Task<Status> Load(engine::Engine* engine);

  sim::Task<TxnResult> RunOne(engine::Engine* engine,
                              sim::CpuResource* cpu,
                              Random* rng) override;

  /// Rows per unit of scale factor, per table.
  static constexpr std::array<uint64_t, 6> kRowMultipliers = {
      40, 24, 12, 8, 2, 1};

  uint64_t TableRows(int table) const {
    return kRowMultipliers[table] * opts_.scale_factor;
  }
  uint64_t TotalRows() const {
    uint64_t total = 0;
    for (int t = 0; t < 6; t++) total += TableRows(t);
    return total;
  }
  /// Rough database size in bytes after load.
  uint64_t ApproxBytes() const {
    uint64_t total = 0;
    for (int t = 0; t < 6; t++) {
      total += TableRows(t) * (opts_.payload_bytes[t] + 40);
    }
    return total;
  }

  const CdbOptions& options() const { return opts_; }

 private:
  CdbTxnType PickType(Random* rng) const;
  sim::Task<Status> Charge(sim::CpuResource* cpu, double us) const;
  uint64_t RandomKey(int table, Random* rng) const;
  std::string MakePayload(int table, Random* rng) const;

  CdbOptions opts_;
  CdbMix mix_;
  uint64_t insert_cursor_ = 0;  // fresh row ids for kInsert
};

}  // namespace workload
}  // namespace socrates
