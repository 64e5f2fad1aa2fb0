// TPC-E-like workload: a trading-style, read-mostly OLTP mix with a
// Zipf-skewed access distribution over a large keyspace. Used for the
// Table 4 cache study (a 30 TB TPC-E database with a ~1%-of-data cache
// still achieving a ~32% local hit rate): what matters is realistic skew,
// which CDB's uniform scatter lacks.

#pragma once

#include "common/random.h"
#include "workload/workload.h"

namespace socrates {
namespace workload {

struct TpceOptions {
  uint64_t customers = 100000;  // rows in the main trade table
};

class TpceLikeWorkload : public Workload {
 public:
  explicit TpceLikeWorkload(const TpceOptions& options)
      : opts_(options),
        zipf_(options.customers, kZipfTheta, /*seed=*/0x7bce) {}

  /// Populate the trade table.
  sim::Task<Status> Load(engine::Engine* engine);

  sim::Task<TxnResult> RunOne(engine::Engine* engine,
                              sim::CpuResource* cpu,
                              Random* rng) override;

  const TpceOptions& options() const { return opts_; }
  uint64_t ApproxBytes() const {
    return opts_.customers * (kPayloadBytes + 40);
  }

 private:
  static constexpr uint32_t kPayloadBytes = 200;
  static constexpr double kZipfTheta = 0.9;      // access skew
  static constexpr double kWriteFraction = 0.1;  // TPC-E is ~10% updates

  /// Skewed key: hot customers are spread over the keyspace (multiplying
  /// by a large odd constant) so hotness is per-row, not per-range.
  uint64_t SkewedRow(uint64_t zipf_rank) const {
    return (zipf_rank * 2654435761ull) % opts_.customers;
  }

  TpceOptions opts_;
  ZipfGenerator zipf_;
};

}  // namespace workload
}  // namespace socrates
