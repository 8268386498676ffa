#ifndef HERMES_ROUTING_CLAY_PLANNER_H_
#define HERMES_ROUTING_CLAY_PLANNER_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "partition/partition_map.h"
#include "txn/transaction.h"

namespace hermes::routing {

/// One range of keys to migrate to `target` (executed by Squall-style
/// chunk-migration transactions).
struct ClumpMove {
  Key lo;
  Key hi;
  NodeId target;
};

struct ClayConfig {
  /// Length of the monitoring window before a plan may be produced.
  SimTime monitor_window_us = 5'000'000;
  /// A node is overloaded when its observed load exceeds the cluster
  /// average by this factor.
  double overload_slack = 0.15;
  /// Granularity of the ranges Clay tracks and migrates (the paper's Clay
  /// implementation also uses ranges instead of per-key clumps, see its
  /// footnote 4).
  uint64_t range_size = 10'000;

  bool operator==(const ClayConfig&) const = default;
};

/// Clay baseline (Serafini et al., VLDB'16; paper §5.2.1): a *look-back*
/// migration planner. It monitors per-range access frequencies and
/// per-node loads over a window; when the hottest node exceeds the average
/// by a slack factor, it greedily builds a "clump" of that node's hottest
/// ranges and plans their migration to the least-loaded node, until the
/// predicted load drops below the threshold. The plan is handed to a
/// migration executor (Squall); Clay itself moves no data.
class ClayPlanner {
 public:
  ClayPlanner(const partition::OwnershipMap* ownership, uint64_t num_records,
              ClayConfig config);

  ClayPlanner(const ClayPlanner&) = delete;
  ClayPlanner& operator=(const ClayPlanner&) = delete;

  /// Feeds one observed transaction (its accesses are attributed to the
  /// owning nodes under the current ownership view).
  void Observe(const TxnRequest& txn);

  /// Produces a migration plan if the window elapsed and an overload is
  /// detected; returns an empty vector otherwise. Resets the window
  /// statistics whenever a plan is produced or the window expires.
  std::vector<ClumpMove> MaybePlan(SimTime now, int num_nodes);

  uint64_t plans_produced() const { return plans_produced_; }

 private:
  const partition::OwnershipMap* ownership_;
  ClayConfig config_;
  SimTime window_start_ = 0;
  /// Observed accesses per range, by range id (grown on demand).
  std::vector<uint64_t> range_heat_;
  /// Observed accesses per owning node, by node id.
  std::vector<uint64_t> node_load_;
  uint64_t observed_ = 0;
  uint64_t plans_produced_ = 0;
};

}  // namespace hermes::routing

#endif  // HERMES_ROUTING_CLAY_PLANNER_H_
