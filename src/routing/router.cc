#include "routing/router.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace hermes::routing {

Router::Router(partition::OwnershipMap* ownership, const CostModel* costs,
               int num_nodes)
    : ownership_(ownership), costs_(costs) {
  active_nodes_.reserve(num_nodes);
  for (NodeId i = 0; i < num_nodes; ++i) active_nodes_.push_back(i);
}

void Router::OnAddNode(NodeId node) {
  if (std::find(active_nodes_.begin(), active_nodes_.end(), node) ==
      active_nodes_.end()) {
    active_nodes_.push_back(node);
    std::sort(active_nodes_.begin(), active_nodes_.end());
    candidate_epoch_valid_ = false;
  }
}

void Router::OnRemoveNode(NodeId node) {
  active_nodes_.erase(
      std::remove(active_nodes_.begin(), active_nodes_.end(), node),
      active_nodes_.end());
  candidate_epoch_valid_ = false;
}

const std::vector<NodeId>& Router::candidate_nodes() const {
  if (membership_ == nullptr || !membership_->any_down()) {
    return active_nodes_;
  }
  if (!candidate_epoch_valid_ || candidate_epoch_ != membership_->epoch()) {
    candidate_cache_.clear();
    for (NodeId n : active_nodes_) {
      if (membership_->alive(n)) candidate_cache_.push_back(n);
    }
    candidate_epoch_ = membership_->epoch();
    candidate_epoch_valid_ = true;
  }
  return candidate_cache_;
}

std::vector<std::pair<Key, bool>> Router::MergedAccessSet(
    const TxnRequest& txn) {
  std::vector<std::pair<Key, bool>> merged;
  MergedAccessSetInto(txn, &merged);
  return merged;
}

void Router::MergedAccessSetInto(const TxnRequest& txn,
                                 std::vector<std::pair<Key, bool>>* out) {
  out->clear();
  out->reserve(txn.read_set.size() + txn.write_set.size());
  for (Key k : txn.read_set) out->emplace_back(k, false);
  for (Key k : txn.write_set) out->emplace_back(k, true);
  // Sort by (key, mode): within a key run the write entry sorts last, so
  // keeping each run's final element implements "write wins" — the same
  // result the old std::map construction produced, without node churn.
  std::sort(out->begin(), out->end());
  auto keep = out->begin();
  for (auto it = out->begin(); it != out->end();) {
    auto next = it + 1;
    while (next != out->end() && next->first == it->first) ++next;
    *keep++ = *(next - 1);
    it = next;
  }
  out->erase(keep, out->end());
}

NodeId Router::OwnerOf(Key key) const { return ownership_->Owner(key); }

NodeId Router::MajorityOwner(const TxnRequest& txn) const {
  std::map<NodeId, int> counts;
  for (const auto& [key, is_write] : MergedAccessSet(txn)) {
    (void)is_write;
    ++counts[OwnerOf(key)];
  }
  NodeId best = active_nodes_.empty() ? 0 : active_nodes_.front();
  int best_count = -1;
  for (const auto& [node, count] : counts) {
    if (count > best_count) {
      best = node;
      best_count = count;
    }
  }
  // Tie-break on the *home* of the transaction's first read key (its
  // "anchor"). Breaking ties by node id would deterministically funnel
  // every tied transaction's records toward low-numbered nodes; anchoring
  // on the drifting current owner creates a positive-feedback collapse
  // onto whichever node got ahead. The static home is neutral.
  const NodeId anchor =
      ownership_->Home(txn.read_set.empty()
                           ? (txn.write_set.empty() ? 0 : txn.write_set.front())
                           : txn.read_set.front());
  if (counts.contains(anchor) && counts.at(anchor) == best_count) {
    return anchor;
  }
  return best;
}

namespace {

/// Scheduler cost per transaction-pair interaction in a batch: the
/// quadratic term that makes oversized batches clog the scheduler,
/// reproducing the Fig. 10 trade-off.
constexpr double kRouteQuadraticUs = 0.04;

}  // namespace

SimTime Router::LinearCost(size_t batch_size) const {
  return costs_->route_linear_us * batch_size;
}

SimTime Router::AnalysisCost(size_t batch_size) const {
  const double quad = kRouteQuadraticUs * static_cast<double>(batch_size) *
                      static_cast<double>(batch_size);
  return LinearCost(batch_size) + static_cast<SimTime>(std::llround(quad));
}

RoutedTxn Router::PlanChunkMigrationDefault(const TxnRequest& txn) {
  RoutedTxn rt;
  rt.txn = txn;
  const NodeId dst = txn.migration_target();
  rt.masters = {dst};
  bool first = true;
  Key lo = 0, hi = 0;
  for (Key k : txn.write_set) {
    if (first) {
      lo = hi = k;
      first = false;
    } else {
      lo = std::min(lo, k);
      hi = std::max(hi, k);
    }
    const NodeId cur = ownership_->Owner(k);
    if (cur == dst) continue;
    rt.accesses.push_back(Access{k, cur, /*is_write=*/true,
                                 /*ship_to_master=*/true,
                                 /*new_owner=*/dst});
  }
  if (!first) ownership_->SetRangeOwner(lo, hi, dst);
  return rt;
}

RoutedTxn Router::PlanProvisioningDefault(const TxnRequest& txn) {
  RoutedTxn rt;
  rt.txn = txn;
  if (txn.kind == TxnKind::kAddNode) {
    OnAddNode(txn.migration_target());
  } else {
    OnRemoveNode(txn.migration_target());
  }
  // Master the marker on the first *live* active node so a marker routed
  // during a degraded window never lands on a crashed node (identical to
  // active_nodes_.front() whenever every node is alive).
  const std::vector<NodeId>& live = candidate_nodes();
  rt.masters = {live.empty() ? (active_nodes_.empty() ? 0 : active_nodes_.front())
                             : live.front()};
  return rt;
}

}  // namespace hermes::routing
