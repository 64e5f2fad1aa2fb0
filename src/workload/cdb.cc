#include "workload/cdb.h"

namespace socrates {
namespace workload {

using engine::Engine;
using engine::MakeKey;

namespace {
// Per-operation CPU costs in microseconds (before cpu_scale).
constexpr double kTxnBaseUs = 120;   // session / parse / plan
constexpr double kPointReadUs = 60;  // b-tree descent + row copy
constexpr double kScanRowUs = 18;    // sequential row
constexpr double kUpdateRowUs = 90;  // row update + log record
constexpr double kInsertRowUs = 100;
constexpr double kLiteUpdateUs = 45;
constexpr double kAnalyticRowUs = 2;  // predicate eval per spanned row
}  // namespace

sim::Task<Status> CdbWorkload::Load(Engine* engine) {
  Random rng(0x10ad);
  for (int t = 0; t < 6; t++) {
    uint64_t rows = TableRows(t);
    uint64_t row = 0;
    while (row < rows) {
      auto txn = engine->Begin();
      uint64_t chunk = std::min<uint64_t>(rows - row, 256);
      for (uint64_t i = 0; i < chunk; i++) {
        (void)engine->Put(txn.get(),
                          MakeKey(static_cast<TableId>(t + 1), row + i),
                          MakePayload(t, &rng));
      }
      SOCRATES_CO_RETURN_IF_ERROR(co_await engine->Commit(txn.get()));
      row += chunk;
    }
  }
  co_return Status::OK();
}

CdbTxnType CdbWorkload::PickType(Random* rng) const {
  double r = rng->NextDouble();
  double acc = 0;
  for (int i = 0; i < kCdbTxnTypes; i++) {
    acc += mix_.weights[i];
    if (r < acc) return static_cast<CdbTxnType>(i);
  }
  return CdbTxnType::kPointLookup;
}

sim::Task<Status> CdbWorkload::Charge(sim::CpuResource* cpu,
                                      double us) const {
  if (cpu != nullptr) {
    co_await cpu->Consume(static_cast<SimTime>(us * opts_.cpu_scale));
  }
  co_return Status::OK();
}

uint64_t CdbWorkload::RandomKey(int table, Random* rng) const {
  return rng->Uniform(TableRows(table));
}

std::string CdbWorkload::MakePayload(int table, Random* rng) const {
  std::string payload(opts_.payload_bytes[table], '\0');
  // Draw from a local copy: a char store may alias *rng, which would
  // send its state through memory on every byte.
  Random local = *rng;
  for (auto& c : payload) {
    c = static_cast<char>('A' + local.Uniform(26));
  }
  *rng = local;
  return payload;
}

sim::Task<TxnResult> CdbWorkload::RunOne(Engine* engine,
                                         sim::CpuResource* cpu,
                                         Random* rng) {
  TxnResult result;
  CdbTxnType type = PickType(rng);
  (void)co_await Charge(cpu, kTxnBaseUs);

  std::unique_ptr<engine::Transaction> txn;
  // A read that fails (say, no Page Server serves its page) fails the
  // transaction: it reads and writes nothing more and is aborted. A
  // missing row is not a failure.
  bool read_failed = false;
  auto failed = [](const Status& s) { return !s.ok() && !s.IsNotFound(); };
  switch (type) {
    case CdbTxnType::kPointLookup: {
      txn = engine->Begin(true);
      int n = 1 + static_cast<int>(rng->Uniform(10));
      std::vector<uint64_t> keys(n);
      for (uint64_t& key : keys) {
        int t = static_cast<int>(rng->Uniform(6));
        key = MakeKey(static_cast<TableId>(t + 1), RandomKey(t, rng));
      }
      // Start every read at once, then take the rows as they land.
      engine::GetBatch reads = engine->StartGets(txn.get(), keys);
      for (int i = 0; i < n && !read_failed; i++) {
        (void)co_await Charge(cpu, kPointReadUs);
        read_failed = failed((co_await reads.Next()).value.status());
      }
      co_await reads.Join();
      break;
    }
    case CdbTxnType::kRangeScan: {
      txn = engine->Begin(true);
      int t = static_cast<int>(rng->Uniform(6));
      uint64_t start = RandomKey(t, rng);
      size_t n = 16 + rng->Uniform(113);  // up to 128 rows
      (void)co_await Charge(cpu, kScanRowUs * static_cast<double>(n));
      read_failed = failed(
          (co_await engine->Scan(
               txn.get(), MakeKey(static_cast<TableId>(t + 1), start), n))
              .status());
      break;
    }
    case CdbTxnType::kReadModifyWrite: {
      txn = engine->Begin();
      int n = 1 + static_cast<int>(rng->Uniform(4));
      int t = static_cast<int>(rng->Uniform(6));
      for (int i = 0; i < n && !read_failed; i++) {
        uint64_t key = MakeKey(static_cast<TableId>(t + 1),
                               RandomKey(t, rng));
        (void)co_await Charge(cpu, kPointReadUs + kUpdateRowUs);
        read_failed =
            failed((co_await engine->Get(txn.get(), key)).status());
        if (!read_failed) {
          (void)engine->Put(txn.get(), key, MakePayload(t, rng));
        }
      }
      result.is_write = true;
      break;
    }
    case CdbTxnType::kBulkUpdate: {
      txn = engine->Begin();
      int t = static_cast<int>(rng->Uniform(6));
      uint64_t start = RandomKey(t, rng);
      int n = 64 + static_cast<int>(rng->Uniform(64));
      (void)co_await Charge(
          cpu, kUpdateRowUs * static_cast<double>(n) * 0.6);
      for (int i = 0; i < n; i++) {
        uint64_t row = (start + i) % TableRows(t);
        (void)engine->Put(txn.get(),
                          MakeKey(static_cast<TableId>(t + 1), row),
                          MakePayload(t, rng));
      }
      result.is_write = true;
      break;
    }
    case CdbTxnType::kInsert: {
      txn = engine->Begin();
      int t = static_cast<int>(rng->Uniform(6));
      int n = 4 + static_cast<int>(rng->Uniform(8));
      (void)co_await Charge(cpu, kInsertRowUs * static_cast<double>(n));
      for (int i = 0; i < n; i++) {
        // Fresh keys above the loaded range.
        uint64_t row = TableRows(t) + (insert_cursor_++);
        (void)engine->Put(txn.get(),
                          MakeKey(static_cast<TableId>(t + 1), row),
                          MakePayload(t, rng));
      }
      result.is_write = true;
      break;
    }
    case CdbTxnType::kUpdateLite: {
      txn = engine->Begin();
      int t = static_cast<int>(rng->Uniform(6));
      uint64_t key = MakeKey(static_cast<TableId>(t + 1),
                             RandomKey(t, rng));
      (void)co_await Charge(cpu, kLiteUpdateUs);
      std::string payload =
          opts_.lite_payload_bytes > 0
              ? std::string(opts_.lite_payload_bytes, 'u')
              : MakePayload(t, rng);
      (void)engine->Put(txn.get(), key, payload);
      result.is_write = true;
      break;
    }
    case CdbTxnType::kAnalyticScan: {
      // HTAP analytic read: selective predicate (or partial aggregate)
      // over a contiguous span of 512-2048 rows. With pushdown on the
      // engine ships this to the owning Page Servers (kScanRange);
      // otherwise it runs as a page-based scan.
      txn = engine->Begin(true);
      int t = static_cast<int>(rng->Uniform(6));
      uint64_t rows = TableRows(t);
      uint64_t span = std::min<uint64_t>(rows, 512 + rng->Uniform(1537));
      uint64_t start = rng->Uniform(rows - span + 1);
      static constexpr uint64_t kMods[] = {8, 16, 64};
      uint64_t mod = kMods[rng->Uniform(3)];
      engine::ScanFilter filter;
      filter.predicate =
          common::ScanPredicate::KeyModEq(mod, rng->Uniform(mod));
      if (rng->Uniform(2) == 0) {
        filter.aggregate = rng->Uniform(2) == 0
                               ? common::ScanAggregate::Count()
                               : common::ScanAggregate::Sum(0);
      } else {
        filter.projection.extents.push_back({0, 32});
      }
      // CPU for issuing the scan + consuming the (small) result; the
      // per-row evaluation cost lands wherever it runs — Page Server
      // (DeviceProfile::PushdownEval) or locally (buffer-pool page reads).
      (void)co_await Charge(cpu,
                            kAnalyticRowUs * static_cast<double>(span) *
                                0.1);
      read_failed = failed(
          (co_await engine->ScanWhere(
               txn.get(), MakeKey(static_cast<TableId>(t + 1), start),
               MakeKey(static_cast<TableId>(t + 1), start + span),
               /*limit=*/0, filter))
              .status());
      break;
    }
  }
  if (read_failed) {
    engine->Abort(txn.get());
  } else {
    result.committed = (co_await engine->Commit(txn.get())).ok();
  }
  co_return result;
}

}  // namespace workload
}  // namespace socrates
