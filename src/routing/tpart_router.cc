#include "routing/tpart_router.h"

#include <climits>
#include <cmath>
#include <vector>

#include "common/flat_map.h"

namespace hermes::routing {

TPartRouter::TPartRouter(partition::OwnershipMap* ownership,
                         const CostModel* costs, int num_nodes, double alpha)
    : Router(ownership, costs, num_nodes), alpha_(alpha) {}

RoutePlan TPartRouter::RouteBatch(const Batch& batch) {
  RoutePlan plan;
  plan.routing_cost_us = AnalysisCost(batch.txns.size());
  plan.txns.reserve(batch.txns.size());

  const int n = num_active_nodes();
  const auto theta = static_cast<int64_t>(std::ceil(
      static_cast<double>(batch.txns.size()) / (n == 0 ? 1 : n) *
      (1.0 + alpha_)));
  /// Transactions routed to each node in this batch, by node id (grown
  /// when a provisioning marker adds a node mid-batch).
  std::vector<int64_t> load;
  auto load_of = [&load](NodeId node) -> int64_t& {
    if (static_cast<size_t>(node) >= load.size()) load.resize(node + 1, 0);
    return load[node];
  };

  /// Where each key is currently readable within this batch: a written key
  /// moves to its writer's master (forward pushing); untouched keys sit at
  /// their static home.
  FlatMap<Key, NodeId> holder;
  /// Home partition of each borrowed key, the plan index of its last
  /// in-batch accessor (which performs the write-back), and whether that
  /// accessor writes the key.
  struct Borrow {
    NodeId home;
    size_t last_user;
    bool last_writes = false;
  };
  FlatMap<Key, Borrow> borrowed;

  auto source_of = [&](Key k) -> NodeId {
    auto it = holder.find(k);
    return it != holder.end() ? it->second : ownership_->Owner(k);
  };

  for (const TxnRequest& txn : batch.txns) {
    if (txn.kind == TxnKind::kChunkMigration) {
      plan.txns.push_back(PlanChunkMigrationDefault(txn));
      continue;
    }
    if (txn.kind != TxnKind::kRegular) {
      plan.txns.push_back(PlanProvisioningDefault(txn));
      continue;
    }

    const auto merged = MergedAccessSet(txn);

    // Master selection: T-Part trades the cost of remote accesses against
    // load balance. Routing to a node over the cap "costs" a couple of
    // remote accesses, so small transactions spread while a transaction
    // whose records all sit on one (even busy) node stays there — pushing
    // a wholly-local 25-key TPC-C transaction off its warehouse node
    // would be strictly worse. In-batch conflicts steer naturally:
    // borrowed keys count as local at their current holder (the t-graph
    // clog-avoidance effect of forward pushing).
    constexpr int kCapPenalty = 2;
    NodeId best = active_nodes_.front();
    int best_score = INT_MAX;
    bool best_capped = true;
    for (NodeId cand : active_nodes_) {
      int remote = 0;
      for (const auto& [k, is_write] : merged) {
        (void)is_write;
        if (source_of(k) != cand) ++remote;
      }
      const bool capped = load_of(cand) >= theta;
      const int score = remote + (capped ? kCapPenalty : 0);
      if (score < best_score ||
          (score == best_score && best_capped && !capped)) {
        best = cand;
        best_score = score;
        best_capped = capped;
      }
    }
    ++load_of(best);

    RoutedTxn rt;
    rt.txn = txn;
    rt.masters = {best};
    const size_t plan_index = plan.txns.size();
    for (const auto& [k, is_write] : merged) {
      const NodeId src = source_of(k);
      Access a;
      a.key = k;
      a.owner = src;
      a.is_write = is_write;
      a.ship_to_master = (src != best);
      if (is_write) {
        if (src != best) {
          // Checkout / forward push: the record physically moves to this
          // master; later in-batch readers fetch it from here.
          a.new_owner = best;
          if (holder.contains(k)) ++forward_pushes_;
          if (!borrowed.contains(k)) {
            borrowed[k] = Borrow{ownership_->Owner(k), plan_index};
          }
          holder[k] = best;
        }
      }
      if (auto it = borrowed.find(k); it != borrowed.end()) {
        it->second.last_user = plan_index;
        it->second.last_writes = is_write;
      }
      rt.accesses.push_back(a);
    }
    plan.txns.push_back(std::move(rt));
  }

  // Write-backs: each borrowed record ships from its final holder to its
  // home once the last transaction that used it commits, in key order.
  for (Key k : borrowed.SortedKeys()) {
    const Borrow& info = borrowed.at(k);
    const NodeId final_holder = holder.at(k);
    if (final_holder == info.home) continue;
    RoutedTxn& last = plan.txns[info.last_user];
    ++writebacks_;
    if (info.last_writes) {
      // The last user wrote k, so the record sits at its own master; ship
      // it home once that commit lands (nobody later reads it there).
      last.on_commit_returns.push_back(
          ReturnShipment{k, final_holder, info.home});
      continue;
    }
    // The last user only reads k. A lock-free return could race with
    // other shared readers that are still consuming the record at the
    // holder, so the write-back becomes an exclusive return-migration in
    // the last user's own plan: the lock manager's FIFO guarantees every
    // earlier shared reader finished before the record leaves.
    for (routing::Access& acc : last.accesses) {
      if (acc.key != k) continue;
      acc.is_write = true;
      acc.new_owner = info.home;
      break;
    }
  }
  return plan;
}

}  // namespace hermes::routing
