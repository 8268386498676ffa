#ifndef HERMES_ROUTING_CALVIN_ROUTER_H_
#define HERMES_ROUTING_CALVIN_ROUTER_H_

#include <string>
#include <utility>
#include <vector>

#include "routing/router.h"

namespace hermes::routing {

/// Vanilla Calvin routing (paper §2, §5.2.1): a transaction is routed to
/// every node that owns a record it writes (the multi-master scheme); all
/// participants ship their read records to every master; data never
/// migrates. Batch order is preserved verbatim.
class CalvinRouter : public Router {
 public:
  CalvinRouter(partition::OwnershipMap* ownership, const CostModel* costs,
               int num_nodes);

  RoutePlan RouteBatch(const Batch& batch) override;
  std::string name() const override { return "calvin"; }

 private:
  RoutedTxn RouteOne(const TxnRequest& txn);

  // RouteOne scratch, reused across transactions: the merged access set,
  // the transaction's masters, and its read keys sorted for lookup.
  std::vector<std::pair<Key, bool>> merged_;
  std::vector<NodeId> masters_;
  std::vector<Key> read_keys_;
};

}  // namespace hermes::routing

#endif  // HERMES_ROUTING_CALVIN_ROUTER_H_
