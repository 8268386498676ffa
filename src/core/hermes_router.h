#ifndef HERMES_CORE_HERMES_ROUTER_H_
#define HERMES_CORE_HERMES_ROUTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/digest.h"
#include "core/fusion_table.h"
#include "core/lease_table.h"
#include "obs/trace.h"
#include "routing/batch_scratch.h"
#include "routing/router.h"

namespace hermes::core {

/// Upper bound on delta relaxation rounds in step 3 before giving up (the
/// trivial even split always exists, so this is a safety valve).
inline constexpr int kMaxDelta = 64;

/// The prescient transaction routing algorithm (paper §3.2, Algorithm 1)
/// plus fusion-table maintenance (§3.1, §4.1) and provisioning support
/// (§3.3).
///
/// Per batch:
///  1. Greedily reorders and routes transactions, picking at each step the
///     (transaction, node) pair with the fewest remote read-set records
///     under the evolving placement P_i (write-set keys move to the chosen
///     route — data fusion).
///  2. Computes theta = ceil(b/n * (1+alpha)) and the overloaded /
///     underloaded node sets.
///  3. Walks the reordered batch backward, rerouting transactions off
///     overloaded nodes when the move adds at most delta remote edges
///     (the txn's own remote reads plus reads of its write-set by later
///     transactions not on the new node), relaxing delta until the load
///     constraint holds.
///
/// Determinism: all ties break on (fewest remote reads, most local write
/// keys, lowest node id) and candidate scans use original batch order, so
/// every scheduler replica computes the identical plan.
class HermesRouter : public routing::Router {
 public:
  HermesRouter(partition::OwnershipMap* ownership, const CostModel* costs,
               int num_nodes, const HermesConfig& config);

  routing::RoutePlan RouteBatch(const Batch& batch) override;
  std::string name() const override { return "hermes"; }

  const FusionTable& fusion_table() const { return fusion_table_; }

  /// Rebuilds the fusion table from a checkpoint's recency order, after
  /// the ownership overlay it refers to has been restored. Throws
  /// std::out_of_range if a key has no overlay entry.
  void RestoreFusionTable(const std::vector<Key>& order);

  /// Order-insensitive digest of the fused keys and their owners; used by
  /// determinism tests to compare scheduler replicas.
  uint64_t FusionChecksum() const;

  /// Attaches a decision digest: every fusion-table eviction victim is
  /// mixed in, in eviction order (evictions are routing decisions — they
  /// append migration accesses to the current transaction's plan).
  void set_digest(DecisionDigest* digest) { digest_ = digest; }

  /// Enables replica-lease decisions (DESIGN.md §5 "Replica leases").
  /// `config` must outlive the router; decisions stay a pure function of
  /// (batch stream, membership schedule, config).
  void EnableReplication(const ReplicationConfig* config) {
    lease_table_.Configure(config);
  }
  const LeaseTable& lease_table() const { return lease_table_; }
  /// Drops all lease bookkeeping (leases + hotness counters) but keeps the
  /// configuration; a checkpoint restore starts replay from this state.
  void ResetReplication() { lease_table_.Reset(); }

  /// Cumulative counters for tests and benches.
  struct Stats {
    uint64_t routed_txns = 0;
    uint64_t remote_reads = 0;   ///< accesses shipped to a remote master
    uint64_t migrations = 0;     ///< records that changed owner
    uint64_t evictions = 0;      ///< fusion-table evictions
    uint64_t reroutes = 0;       ///< step-3 load-balancing moves
    uint64_t reorders = 0;       ///< txns whose position changed in step 1
    uint64_t replica_reads = 0;  ///< reads served from a local lease copy
  };
  const Stats& stats() const { return stats_; }

  /// Installs the passive tracer: fusion-table evictions, chunk
  /// migrations and provisioning markers emit events. Strictly write-only
  /// — no routing decision reads tracer state (the detlint obs-decision
  /// rule audits this directory for exactly that).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 protected:
  /// Steps 1–3 of Algorithm 1 for one non-empty segment of regular
  /// transactions: writes `order_out` (candidate index by B' position)
  /// and `route_out` (route per candidate index) and returns the number
  /// of Step-3 reroutes. Reads the pre-batch placement from ownership_
  /// and changes no routing state (only scratch), so RouteSegment can
  /// materialize the result.
  ///
  /// The shipped placement is O(b log b + R·n): keys interned to dense
  /// ids, Step 1 selection via a lazy bucket queue, all per-batch state in
  /// scratch_ (cleared, not freed, between batches — zero steady-state
  /// allocation). hermes_equivalence_test overrides it with the direct
  /// O(b²·n) transcription of Algorithm 1 and checks the two agree.
  virtual uint64_t PlaceSegment(const std::vector<const TxnRequest*>& txns,
                                std::vector<int32_t>* order_out,
                                std::vector<NodeId>* route_out);

  const HermesConfig& config() const { return config_; }

 private:
  /// Routes one run of regular transactions (special transactions act as
  /// segment barriers) and appends the plans: PlaceSegment, then
  /// Materialize in B' order.
  void RouteSegment(const std::vector<const TxnRequest*>& txns,
                    std::vector<routing::RoutedTxn>* out);

  /// Materializes the plan for one placed transaction against the live
  /// ownership map and applies its fusion-table updates (including
  /// evictions, which append extra migration accesses).
  routing::RoutedTxn Materialize(const TxnRequest& txn, NodeId route);

  /// Chunk migrations ship cold records to the target and re-home the
  /// chunk's range; keys currently in the fusion table are skipped (§3.3).
  routing::RoutedTxn PlanChunkMigration(const TxnRequest& txn);

  /// Provisioning markers: adjusts the active set; on removal, evicts
  /// every fusion entry on the leaving node so its hot records migrate
  /// out with normal traffic.
  routing::RoutedTxn PlanProvisioning(const TxnRequest& txn);

  HermesConfig config_;
  FusionTable fusion_table_;
  LeaseTable lease_table_;
  Stats stats_;
  DecisionDigest* digest_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  /// Batch-boundary lease ops, attached to the batch's first routed txn
  /// (scratch; cleared per batch).
  std::vector<routing::ReplicaOp> lease_ops_;

  /// Per-batch working set of PlaceSegment and Materialize, owned by the
  /// router so capacity persists across batches. Every container is reset
  /// with clear()/assign() — steady-state routing does no heap allocation
  /// on the hot path.
  struct RouterScratch {
    routing::KeyInterner interner;
    // Per-candidate key sets as arena spans (reads, then writes).
    std::vector<routing::Span> read_span;
    std::vector<routing::Span> write_span;
    // Per-key (dense id) ownership view: the pre-batch owner and the
    // evolving Step-1 placement P_i, as NodeId and as dense node index
    // (-1 when the owner is not an active node).
    std::vector<NodeId> base_owner;
    std::vector<int32_t> base_owner_idx;
    std::vector<NodeId> cur_owner;
    std::vector<int32_t> cur_owner_idx;
    // key id -> candidate indexes reading / writing it.
    routing::Csr readers_of;
    routing::Csr writers_of;
    // Per-candidate local-key counts per node, flattened to b*n.
    std::vector<int32_t> read_cnt;
    std::vector<int32_t> write_cnt;
    std::vector<int32_t> best_idx;
    std::vector<int32_t> best_remote;
    std::vector<uint8_t> placed;
    routing::BucketQueue bucket_queue;
    // Placement output: candidate index by B' position; route per
    // candidate (and its dense node index).
    std::vector<int32_t> order;
    std::vector<NodeId> route;
    std::vector<int32_t> route_idx;
    // Step 2/3 state.
    std::vector<int64_t> load;
    routing::Csr pos_readers;
    routing::Csr pos_writers;
    std::vector<int32_t> edge_hist;
    // Materialize scratch.
    std::vector<std::pair<Key, bool>> merged;
    std::vector<Key> pinned;
    std::vector<Key> evicted;
  };
  RouterScratch scratch_;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_HERMES_ROUTER_H_
