#ifndef HERMES_LEDGER_REPLAY_H_
#define HERMES_LEDGER_REPLAY_H_

#include <cstdint>
#include <vector>

#include "common/digest.h"
#include "routing/router.h"
#include "spans.h"
#include "txn/transaction.h"
#include "workloads.h"

namespace hermes::ledger {

// Bench-side replays: each feeds a finished run's command log, or the plans
// routed from it, to one layer's public API and times that layer alone.

/// Standalone router replay of a command log.
struct RouterReplay {
  /// Placement transcript folded exactly as the scheduler folds it; equal
  /// to Cluster::placement_digest() of the run that wrote the log.
  DecisionDigest placement;
  uint64_t txns = 0;
  uint64_t reads = 0;          ///< read accesses
  uint64_t remote_reads = 0;   ///< accesses shipped to a remote master
  uint64_t replica_reads = 0;  ///< reads served by a local lease copy
  uint64_t migrations = 0;     ///< accesses moving their record
  uint64_t allocs = 0;         ///< heap allocations inside RouteBatch
  int64_t route_ns = 0;        ///< wall time inside RouteBatch
  /// Every plan, in routing order (only when requested).
  std::vector<routing::RoutePlan> plans;
};

/// Routes `batches` through a fresh router built like the workload's
/// cluster builds it. With `spans` set, every batch gets a span under
/// `parent` and allocations are counted.
RouterReplay ReplayRouter(const Workload& w, const std::vector<Batch>& batches,
                          bool keep_plans, SpanRecorder* spans, int parent);

/// LockManager replay: every plan's per-node lock requests (grouped and
/// merged as the executor does) are acquired in total order and released
/// in total order once `window` transactions are in flight. The timed loop
/// is recorded as a "lock_replay" span.
struct LockReplay {
  uint64_t txns = 0;
  uint64_t requests = 0;  ///< key lock requests, each acquired and released
  int64_t ns = 0;
};
LockReplay ReplayLocks(const std::vector<routing::RoutePlan>& plans,
                       int num_nodes, size_t window, SpanRecorder& spans);

/// RecordStore replay at the plans' owners on freshly loaded stores: an
/// Extract + Insert per migration, an ApplyWrite per write-set key (at the
/// record's destination), a Get per other non-migrating access. The timed
/// loop is recorded as a "store_replay" span.
struct StoreReplay {
  uint64_t ops = 0;
  /// Operations whose record was not at the planned node (0 when the
  /// replay follows the run's placements exactly).
  uint64_t misses = 0;
  int64_t ns = 0;
};
StoreReplay ReplayStore(const Workload& w,
                        const std::vector<routing::RoutePlan>& plans,
                        SpanRecorder& spans);

/// Standalone sim::Simulator driver: `events` events over `lanes` node
/// lanes plus the control lane, each event a closure capturing 48 bytes
/// that schedules its successor on a lane picked from its payload, with
/// coarse delays so timestamps collide as epochs make them collide.
/// Returns wall nanoseconds per executed event.
double SimQueueNsPerEvent(int lanes, uint64_t events);

}  // namespace hermes::ledger

#endif  // HERMES_LEDGER_REPLAY_H_
