#include "routing/calvin_router.h"

#include <algorithm>

namespace hermes::routing {

CalvinRouter::CalvinRouter(partition::OwnershipMap* ownership,
                           const CostModel* costs, int num_nodes)
    : Router(ownership, costs, num_nodes) {}

RoutePlan CalvinRouter::RouteBatch(const Batch& batch) {
  RoutePlan plan;
  plan.routing_cost_us = LinearCost(batch.txns.size());
  plan.txns.reserve(batch.txns.size());
  for (const TxnRequest& txn : batch.txns) {
    switch (txn.kind) {
      case TxnKind::kRegular:
        plan.txns.push_back(RouteOne(txn));
        break;
      case TxnKind::kChunkMigration:
        plan.txns.push_back(PlanChunkMigrationDefault(txn));
        break;
      default:
        plan.txns.push_back(PlanProvisioningDefault(txn));
        break;
    }
  }
  return plan;
}

RoutedTxn CalvinRouter::RouteOne(const TxnRequest& txn) {
  RoutedTxn rt;
  rt.txn = txn;

  // Masters: every node owning a record the transaction touches executes
  // the transaction logic (Calvin's deterministic execution runs the code
  // on all participants; each applies only its local writes). This is the
  // multi-master scheme's resource cost the paper contrasts with
  // single-master routing. Masters are listed in ascending node order.
  MergedAccessSetInto(txn, &merged_);
  masters_.clear();
  for (const auto& access : merged_) masters_.push_back(OwnerOf(access.first));
  std::sort(masters_.begin(), masters_.end());
  masters_.erase(std::unique(masters_.begin(), masters_.end()), masters_.end());
  rt.masters.assign(masters_.begin(), masters_.end());

  read_keys_.assign(txn.read_set.begin(), txn.read_set.end());
  std::sort(read_keys_.begin(), read_keys_.end());
  rt.accesses.reserve(merged_.size());
  for (const auto& [k, is_write] : merged_) {
    Access a;
    a.key = k;
    a.owner = OwnerOf(k);
    a.is_write = is_write;
    // A record is shipped iff some other master needs its value for the
    // transaction logic (blind writes ship nothing).
    a.ship_to_master =
        rt.masters.size() > 1 &&
        std::binary_search(read_keys_.begin(), read_keys_.end(), k);
    rt.accesses.push_back(a);
  }
  return rt;
}

}  // namespace hermes::routing
