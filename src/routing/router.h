#ifndef HERMES_ROUTING_ROUTER_H_
#define HERMES_ROUTING_ROUTER_H_

#include <string>
#include <vector>

#include "common/config.h"
#include "common/inline_vec.h"
#include "common/membership.h"
#include "common/types.h"
#include "partition/partition_map.h"
#include "txn/transaction.h"

namespace hermes::routing {

/// One key touched by a routed transaction, with fully resolved data
/// placement so executors need no further ownership lookups.
///
/// Semantics (executed by txn::Executor):
///  - A shared (read) or exclusive (write/migration) lock is taken at
///    `owner`, in total order.
///  - If `ship_to_master`, the owner reads the record and sends it to the
///    executing master once its local locks are granted.
///  - If `new_owner` != kInvalidNode, the record physically moves from
///    `owner` to `new_owner` (extract on send, insert on delivery); the
///    transaction also takes an exclusive lock at `new_owner` to fence
///    later transactions routed there.
struct Access {
  Key key = 0;
  NodeId owner = kInvalidNode;
  bool is_write = false;
  bool ship_to_master = false;
  NodeId new_owner = kInvalidNode;
  /// Read served from the executing node's local replica-lease copy
  /// (owner == the master in that case): no participant, no shipment. The
  /// primary record is untouched, so record singularity is unaffected.
  bool replica_read = false;
};

/// One replica-lease maintenance action decided at routing time and
/// executed by the engine's lease manager in dispatch (= total) order.
enum class ReplicaOpKind : uint8_t {
  kInstall = 0,  ///< ship a read-only copy of `key` from `source` to `node`
  kRevoke = 1,   ///< drop node's copy (write-heavy or lapse)
};

struct ReplicaOp {
  Key key = 0;
  NodeId node = kInvalidNode;    ///< lease holder the op targets
  NodeId source = kInvalidNode;  ///< copy source (installs; owner at routing)
  ReplicaOpKind kind = ReplicaOpKind::kInstall;
};

/// A record shipped home when the transaction commits (G-Store returns its
/// group on commit; T-Part returns borrowed records after the last in-batch
/// user commits, attached to that last user's plan).
struct ReturnShipment {
  Key key;
  NodeId from;
  NodeId to;
};

/// A transaction with its route(s) and data-movement plan.
struct RoutedTxn {
  TxnRequest txn;
  /// Nodes that run the transaction logic. Exactly one for single-master
  /// schemes (Hermes, G-Store, LEAP, T-Part); every write-owning node for
  /// vanilla Calvin's multi-master scheme. Inline up to four nodes.
  InlineVec<NodeId> masters;
  std::vector<Access> accesses;
  std::vector<ReturnShipment> on_commit_returns;
  /// Lease grants/revokes decided while routing this transaction's batch
  /// (batch-boundary decisions ride the first routed transaction). Folded
  /// into both digests by the scheduler and replayed deterministically.
  std::vector<ReplicaOp> replica_ops;
};

/// Output of routing one totally ordered batch: the (possibly reordered)
/// transactions with placements, plus the modeled scheduler CPU cost of
/// the analysis itself.
struct RoutePlan {
  std::vector<RoutedTxn> txns;
  SimTime routing_cost_us = 0;
};

/// A transaction-routing algorithm. One instance exists per cluster in the
/// simulation; conceptually every node runs an identical replica, which is
/// sound because implementations must be deterministic functions of
/// (constructor config, sequence of RouteBatch/provisioning calls).
///
/// The router reads and updates the shared OwnershipMap: placements it
/// decides (fusion migrations) become visible to subsequent batches.
class Router {
 public:
  Router(partition::OwnershipMap* ownership, const CostModel* costs,
         int num_nodes);
  virtual ~Router() = default;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Routes one batch. Called once per sequenced batch, in order.
  virtual RoutePlan RouteBatch(const Batch& batch) = 0;

  virtual std::string name() const = 0;

  /// Provisioning notifications (§3.3), delivered in total order via the
  /// special marker transactions. Default: adjust the active node set.
  virtual void OnAddNode(NodeId node);
  virtual void OnRemoveNode(NodeId node);

  const std::vector<NodeId>& active_nodes() const { return active_nodes_; }
  int num_active_nodes() const { return static_cast<int>(active_nodes_.size()); }

  /// Restores the active node set from a checkpoint.
  void RestoreActiveNodes(std::vector<NodeId> nodes) {
    active_nodes_ = std::move(nodes);
    candidate_epoch_valid_ = false;
  }

  /// Installs the degraded-mode liveness view (nullptr = everything
  /// alive). Candidate sets shrink to the alive subset of active nodes
  /// while any node is down; the view's epoch counter invalidates the
  /// cached subset.
  void set_membership(const MembershipView* membership) {
    membership_ = membership;
    candidate_epoch_valid_ = false;
  }
  const MembershipView* membership() const { return membership_; }

  bool NodeAlive(NodeId node) const {
    return membership_ == nullptr || membership_->alive(node);
  }

 protected:
  /// Deduplicates a txn's key sets into per-key lock modes: keys in the
  /// write-set are exclusive; read-only keys shared. Returned pairs are
  /// sorted by key (deterministic iteration).
  static std::vector<std::pair<Key, bool>> MergedAccessSet(
      const TxnRequest& txn);

  /// MergedAccessSet into caller-owned storage (cleared, then filled), so
  /// per-batch hot loops can reuse one scratch vector instead of
  /// allocating a fresh one per transaction.
  static void MergedAccessSetInto(const TxnRequest& txn,
                                  std::vector<std::pair<Key, bool>>* out);

  /// Owner of `key` in the live ownership view.
  NodeId OwnerOf(Key key) const;

  /// Node owning the most keys of `txn`'s combined access set (ties to the
  /// lowest node id) — the "majority" master used by G-Store and LEAP.
  NodeId MajorityOwner(const TxnRequest& txn) const;

  /// Linear-cost routing model: cost = route_linear_us * b.
  SimTime LinearCost(size_t batch_size) const;

  /// Analysis-heavy routing model: linear + quadratic term (Hermes,
  /// T-Part); reproduces the Fig. 10 large-batch penalty.
  SimTime AnalysisCost(size_t batch_size) const;

  /// Default plan for a kChunkMigration transaction: exclusive-locks every
  /// chunk key at its current owner, ships it to the target, and re-homes
  /// the chunk's range. Baselines without a fusion table use this directly
  /// (it blocks any concurrent access to the chunk — Squall's documented
  /// interference).
  RoutedTxn PlanChunkMigrationDefault(const TxnRequest& txn);

  /// Default plan for provisioning markers: adjusts the active node set
  /// and emits a no-op plan.
  RoutedTxn PlanProvisioningDefault(const TxnRequest& txn);

  /// Active nodes filtered to the alive subset (== active_nodes_ when no
  /// membership view is installed or nothing is down). Cached per
  /// membership epoch; provisioning invalidates via the mutators above.
  const std::vector<NodeId>& candidate_nodes() const;

  partition::OwnershipMap* ownership_;
  const CostModel* costs_;
  std::vector<NodeId> active_nodes_;

 private:
  const MembershipView* membership_ = nullptr;
  mutable std::vector<NodeId> candidate_cache_;
  mutable uint32_t candidate_epoch_ = 0;
  mutable bool candidate_epoch_valid_ = false;
};

}  // namespace hermes::routing

#endif  // HERMES_ROUTING_ROUTER_H_
