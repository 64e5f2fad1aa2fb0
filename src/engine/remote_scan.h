// RemoteScanner: the engine-side seam for computation pushdown (RBIO
// kScanRange). The scan planner in Engine::ScanWhere decides *whether* to
// push a filtered scan down; this interface hides *how* — the compute
// tier implements it over its RBIO client and Page Server routing table
// (compute::PushdownScanner), while the engine stays free of any rbio
// dependency and unit tests can plug in fakes.
//
// Contract: ScanLeaves evaluates the spec over leaves starting at
// `start_leaf` (which the caller located, with the leaves expected after
// it, by descending its cached interior pages) and returns one chunk —
// qualifying projected tuples or a partial-aggregate state — plus a
// resume point. The implementation must evaluate with the exact same
// scan_expr functions as the local page-based path so both produce
// identical results.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/scan_expr.h"
#include "common/types.h"
#include "sim/task.h"

namespace socrates {
namespace engine {

/// What a filtered scan evaluates per row: predicate over (key, payload),
/// then projection (tuple mode) or partial aggregate (aggregate mode).
struct ScanFilter {
  common::ScanPredicate predicate;
  common::ScanProjection projection;
  common::ScanAggregate aggregate;
};

/// Leaves a Page Server evaluates per kScanRange round trip (the
/// request's max_pages budget); the cost model prices round trips with
/// the same number.
inline constexpr uint32_t kScanLeavesPerFrame = 64;

/// What the residency-aware scan planner reads from its scanner, in
/// virtual µs. `enabled == false` (the default, and what test fakes
/// inherit) skips the model and pushes every eligible scan; the compute
/// tier's scanner turns the model on unless its plan is forced. The
/// local-tier, wire and geometry constants sit beside the planner in
/// txn_engine.cc; the two remote prices are fields because tests price a
/// free fake remote path against a warm standalone engine.
struct PushdownCostModel {
  bool enabled = false;
  /// Per kScanRange round trip (request + response latency).
  double round_trip_us = 550;
  /// Server-side evaluator CPU per leaf (pushdown path).
  double remote_leaf_us = 10;
};

/// One remote-evaluation request: [start_key, end_key) at snapshot
/// read_ts, starting on start_leaf's chain.
struct RemoteScanSpec {
  uint64_t start_key = 0;
  uint64_t end_key = UINT64_MAX;
  /// The leaves the caller expects after start_leaf, in key order (at
  /// most kScanLeavesPerFrame - 1). Only a hint: the server reads them at
  /// once before it walks the sibling chain, and a wrong id costs one
  /// wasted read, never a wrong row.
  std::vector<PageId> next_leaves;
  /// Max qualifying tuples wanted (0 = unbounded); ignored in aggregate
  /// mode.
  uint32_t limit = 0;
  Timestamp read_ts = 0;
  common::ScanPredicate predicate;
  common::ScanProjection projection;
  common::ScanAggregate aggregate;
};

/// One chunk of remote-evaluation results.
struct RemoteScanChunk {
  /// The whole [start_key, end_key) range was evaluated.
  bool complete = false;
  /// The server saw a leaf inconsistent with the cursor key (§4.5 split
  /// racing log apply); nothing past resume_key was evaluated.
  bool fence_miss = false;
  /// First key not yet evaluated (valid when !complete); the caller
  /// locates the next chunk's leaves from it.
  uint64_t resume_key = 0;
  /// Aggregate mode: mergeable partial state.
  common::AggState agg;
  /// Tuple mode: qualifying (key, projected payload), in key order.
  std::vector<std::pair<uint64_t, std::string>> tuples;
};

class RemoteScanner {
 public:
  virtual ~RemoteScanner() = default;

  /// False disables pushdown wholesale (every scan runs the page plan).
  virtual bool Enabled() const = 0;

  /// Unused by the planner. Kept only because perfbench/tracing.h
  /// forwards it in its tracing wrapper.
  virtual double MaxSelectivity() const { return 1.0; }

  /// Cost model for the residency-aware planner. The default (disabled)
  /// pushes every eligible scan without pricing it.
  virtual PushdownCostModel CostModel() const { return PushdownCostModel{}; }

  /// Evaluate `spec` remotely starting at `start_leaf`. Transport errors
  /// and server rejections (e.g. kOverloaded) surface as error Results —
  /// the planner falls back to the local page-based path from
  /// spec.start_key.
  virtual sim::Task<Result<RemoteScanChunk>> ScanLeaves(
      PageId start_leaf, const RemoteScanSpec& spec) = 0;
};

}  // namespace engine
}  // namespace socrates
