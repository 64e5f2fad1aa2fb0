#include "workload/tpce_like.h"

namespace socrates {
namespace workload {

using engine::Engine;
using engine::MakeKey;

namespace {
constexpr TableId kTradeTable = 9;
// Per-operation CPU costs in microseconds, charged times kCpuScale.
constexpr double kCpuScale = 4.0;
constexpr double kTxnBaseUs = 150;
constexpr double kReadUs = 55;
constexpr double kUpdateUs = 95;
}  // namespace

sim::Task<Status> TpceLikeWorkload::Load(Engine* engine) {
  Random rng(0x7bce);
  uint64_t row = 0;
  std::string payload(kPayloadBytes, 't');
  while (row < opts_.customers) {
    auto txn = engine->Begin();
    uint64_t chunk = std::min<uint64_t>(opts_.customers - row, 256);
    for (uint64_t i = 0; i < chunk; i++) {
      (void)engine->Put(txn.get(), MakeKey(kTradeTable, row + i),
                        payload);
    }
    SOCRATES_CO_RETURN_IF_ERROR(co_await engine->Commit(txn.get()));
    row += chunk;
  }
  co_return Status::OK();
}

sim::Task<TxnResult> TpceLikeWorkload::RunOne(Engine* engine,
                                              sim::CpuResource* cpu,
                                              Random* rng) {
  TxnResult result;
  auto charge = [&](double us) -> sim::Task<> {
    if (cpu != nullptr) {
      co_await cpu->Consume(static_cast<SimTime>(us * kCpuScale));
    }
  };
  co_await charge(kTxnBaseUs);
  bool write = rng->Bernoulli(kWriteFraction);
  auto txn = engine->Begin(!write);
  // A "trade" touches a handful of skewed rows.
  int reads = 2 + static_cast<int>(rng->Uniform(6));
  uint64_t last_key = 0;
  bool read_failed = false;
  for (int i = 0; i < reads; i++) {
    last_key = MakeKey(kTradeTable, SkewedRow(zipf_.Next()));
    co_await charge(kReadUs);
    Result<std::string> row = co_await engine->Get(txn.get(), last_key);
    // A row that cannot be read (say, no Page Server serves its page)
    // fails the trade; a missing row does not.
    if (!row.ok() && !row.status().IsNotFound()) read_failed = true;
  }
  if (write && !read_failed) {
    co_await charge(kUpdateUs);
    std::string payload(kPayloadBytes, 'u');
    (void)engine->Put(txn.get(), last_key, payload);
    result.is_write = true;
  }
  const Status commit = co_await engine->Commit(txn.get());
  result.committed = commit.ok() && !read_failed;
  co_return result;
}

}  // namespace workload
}  // namespace socrates
