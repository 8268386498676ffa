#ifndef HERMES_ENGINE_EXECUTOR_H_
#define HERMES_ENGINE_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/id_ring.h"
#include "common/membership.h"
#include "common/slot_pool.h"
#include "common/types.h"
#include "common/vector_pool.h"
#include "engine/degraded.h"
#include "engine/metrics.h"
#include "engine/node.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "replication/lease_manager.h"
#include "routing/router.h"
#include "sim/callback.h"
#include "sim/key_waits.h"
#include "sim/simulator.h"
#include "txn/transaction.h"

namespace hermes::engine {

/// Outcome of one transaction, delivered to the submitting client.
struct TxnResult {
  TxnId id = kInvalidTxn;
  bool aborted = false;
  bool distributed = false;
  LatencyBreakdown latency;
};

/// Executes routed transactions across the simulated nodes, implementing
/// the deterministic transaction processing flow of §2.1 extended with
/// on-the-fly data fusion (§3.1):
///
///  1. Each involved node enqueues the transaction's local lock requests
///     in total order (conservative ordered locking). A node involved as
///     a migration destination takes an exclusive "fence" lock so later
///     transactions routed there cannot observe the record before this
///     transaction's writes commit.
///  2. Participant nodes, once their local locks are granted and their
///     records physically present, read the records on a worker and ship
///     them to the master(s); records that migrate are shipped from the
///     source when sent (the record table marks them in flight) and land
///     at the destination when the message arrives. Participants then
///     release their locks (early release).
///  3. A master executes the transaction logic on a worker once its local
///     locks are granted and every shipped record has arrived, applies its
///     writes (with UNDO pre-images; user aborts roll back but still honor
///     the migration plan, §4.2), releases its locks, and commits.
///  4. On full commit, checked-out records ship home (G-Store / T-Part
///     return shipments) and the client is acknowledged.
///
/// Record presence is first-class: any action touching a record waits
/// until the record has physically arrived at the node, which is how
/// remote-data stalls — and the clogging they cause behind conservative
/// locks — emerge in the simulation.
class TxnExecutor {
 public:
  using CommitCallback = std::function<void(const TxnResult&)>;

  /// All cross-node shipments go through the wire substrate (`wire`): it
  /// tags each message foreground (transaction-critical participant
  /// shipments) or bulk (migration write-backs, replica traffic, reships)
  /// and, when config.net.enabled, applies bounded-bandwidth queueing,
  /// coalescing and backpressure before the message reaches the fabric.
  TxnExecutor(sim::Simulator* sim, net::Wire* wire, Metrics* metrics,
              const CostModel* costs,
              std::vector<std::unique_ptr<Node>>* nodes);

  ~TxnExecutor();

  TxnExecutor(const TxnExecutor&) = delete;
  TxnExecutor& operator=(const TxnExecutor&) = delete;

  /// Dispatches one routed transaction. Must be called in total order.
  /// Scheduled from the scheduler's dispatch events only (control lane):
  /// it enqueues locks at every involved node and applies replica-lease
  /// ops, both cross-node work. The plan is moved into the transaction
  /// state.
  void Dispatch(routing::RoutedTxn&& plan, CommitCallback&& on_commit);

  /// Wires the replica-lease mechanism (null = leases off). Dispatch
  /// applies the plan's replica ops through it, masters wait on lease
  /// copies for replica reads, and commits fan out write snapshots to
  /// holders.
  void set_lease_manager(replication::LeaseManager* mgr) {
    lease_mgr_ = mgr;
  }

  // --- Degraded mode (no-stall crash handling; see DESIGN.md §5). ---

  /// Receives every watchdog-aborted transaction: the original request,
  /// its client callback, and the keys left physically at a dead node
  /// while the ownership map points elsewhere. The cluster reclassifies
  /// it (deterministic retry, UNAVAILABLE abort, or chunk-chain
  /// continuation).
  using DegradedAbortHandler = std::function<void(
      TxnRequest txn, CommitCallback cb, std::vector<Key> stranded)>;

  /// Installs the degraded-mode wiring. `membership` drives the
  /// dead-node gate (null = every node alive, the gate inert);
  /// `ledger` records watchdog/reclaim/reship bookkeeping.
  void EnableDegraded(const MembershipView* membership,
                      DegradedLedger* ledger, DegradedAbortHandler on_abort);

  /// Arms the watchdog after the cluster marks `node` down. Transactions
  /// freeze lazily as their events reach the dead node; the watchdog
  /// sweeps frozen, un-acknowledged transactions on a deterministic
  /// virtual-time schedule and UNDO-aborts them.
  void OnNodeDown(NodeId node);

  /// Flushes records that were suppressed mid-flight toward `node` while
  /// it was down (their delivery resumes now; pending reclaim timers
  /// no-op), then re-runs the steps the dead-node gate stalled there.
  /// Called by the cluster at rejoin, before reconciliation.
  void OnNodeUp(NodeId node);

  /// Moves a record whose physical location diverged from the ownership
  /// map (stranded by a watchdog abort or reclaimed mid-flight) to where
  /// ownership says it lives: ship from `from`, one network hop, land at
  /// `to`, waking presence waiters. Record singularity holds throughout
  /// (the record table marks it in flight toward `to` while it moves).
  void ReshipRecord(Key key, NodeId from, NodeId to);

  /// Keys whose physical location diverged from the ownership map during
  /// an outage, keyed by record key, valued with the node the record
  /// actually sits on. The cluster drains this at rejoin and reships
  /// every divergent key; returns the map and clears the member.
  std::map<Key, NodeId> TakeDisplaced() {
    return std::exchange(displaced_, {});
  }
  const std::map<Key, NodeId>& displaced() const { return displaced_; }

  /// Number of transactions currently in flight.
  size_t inflight() const { return actives_.size(); }

  /// Transaction-state shells parked in the free list, ready for reuse.
  size_t idle_shells() const { return idle_shells_.size(); }

  /// Presence waits on several keys still counting down; none once the
  /// simulator drains.
  size_t pending_countdowns() const { return presence_.pending_countdowns(); }

  uint64_t committed() const { return committed_; }
  uint64_t aborted() const { return aborted_; }

  /// Installs the passive tracer (null = tracing off). The executor only
  /// ever writes events into it; no execution decision reads it back.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Diagnostic rendering of in-flight transactions and what they wait on
  /// (lock grants, remote messages, record presence), plus every record
  /// the table shows in flight with its destination (and, for a suppressed
  /// shipment, its source and carrier).
  std::string DebugString() const;

 private:
  /// The steps of one involved node's machine (§2.1). Participants go
  /// kGrant → kRead → kShip: once their locks are granted and the records
  /// they ship are present, they read them on a worker, then ship and
  /// release. Masters go kGrant → kMasterReady → kCommit: once their locks
  /// are granted, their own records (or lease copies) are present and
  /// every shipment has arrived, they execute on a worker, then commit. A
  /// node that is both runs both.
  enum class Phase : uint8_t { kGrant, kRead, kShip, kMasterReady, kCommit };

  /// One involved node's slice of a transaction: it took `locks`
  /// deduplicated lock requests at dispatch, and the accesses it owns are
  /// `Active::owned[owned_begin, owned_end)`. The master fields stay zero
  /// at a node that is not a master.
  struct NodeState {
    NodeId node = kInvalidNode;
    uint32_t locks = 0;
    uint32_t owned_begin = 0;
    uint32_t owned_end = 0;
    uint16_t pending_messages = 0;   ///< remote shipments not yet arrived
    uint16_t messages_received = 0;  ///< shipments processed (costs CPU)
    /// Presence waits not yet fired: the local records, plus the lease
    /// copies when the master has replica reads.
    uint8_t presence_waits = 0;
    bool is_master = false;
    bool granted = false;
    bool started = false;
    SimTime grant_time = 0;
  };
  /// A step abandoned at a dead node, re-run when the node rejoins.
  struct Stall {
    NodeId node;
    Phase phase;
  };
  /// One transaction's state from Dispatch to completion. A pooled shell:
  /// completion hands it back to `idle_shells_` (see RetireActive). Its
  /// lock requests are not kept: Dispatch builds each node's in scratch
  /// and the lock manager copies them.
  struct Active {
    routing::RoutedTxn plan;
    CommitCallback on_commit;
    SimTime dispatch_time = 0;
    std::vector<NodeState> nodes;  ///< sorted by node id
    std::vector<Key> write_keys;  ///< plan.txn.write_set, sorted and unique
    /// Indices into plan.accesses, grouped by owner in `nodes` order (plan
    /// order within a node). Keeps its capacity across shell reuse.
    std::vector<uint32_t> owned;
    int masters_done = 0;
    /// Latency summed over the masters (their lanes run one at a time).
    SimTime remote_wait_us = 0;
    SimTime exec_us = 0;
    /// Participant send phases not yet completed. The client ack does not
    /// wait for them (an eviction migrates after the transaction returns,
    /// §4.1), but the transaction state must outlive them.
    int participants_pending = 0;
    bool acked = false;
    bool distributed = false;
    /// Set when a dead node holds this transaction up (the gate stopped
    /// a step, its shipment toward a dead node was suppressed, or a key
    /// it touches was stranded): it cannot complete on its own until the
    /// node rejoins (stalled steps re-run then) or the watchdog
    /// UNDO-aborts it first.
    bool frozen = false;
    /// Steps abandoned at the dead-node gate, in the deterministic order
    /// the freezes fired in; a node's steps are re-run, in sorted txn
    /// order, when it rejoins. A node can stall both its participant and
    /// its master step.
    std::vector<Stall> stalled;
  };
  /// One participant message under construction: keys of the records
  /// moving to the destination (a `key_pool_` vector, given back when the
  /// message is delivered) plus the bytes of any read copies riding along.
  /// The payloads stay in the record table while in flight.
  struct Shipment {
    std::vector<Key> moves;
    uint64_t bytes = 0;
    bool to_master = false;
  };

  Node& NodeAt(NodeId id) { return *(*nodes_)[id]; }
  /// The cluster-wide record table every node's store is a view of: each
  /// key's one location, in flight included.
  const storage::RecordTable& Records() const {
    return nodes_->front()->store().table();
  }
  NodeState* StateFor(Active& a, NodeId node);
  static bool IsMaster(const Active& a, NodeId node);
  /// The indices into `a.plan.accesses` that `state`'s node owns.
  static std::span<const uint32_t> OwnedOf(const Active& a,
                                           const NodeState& state) {
    return std::span<const uint32_t>(a.owned).subspan(
        state.owned_begin, state.owned_end - state.owned_begin);
  }

  /// True iff `acc`, owned by `node`, makes that node ship: the record
  /// migrates away, or a master elsewhere needs a read copy.
  static bool Ships(const Active& a, const routing::Access& acc, NodeId node);

  /// A reset shell from the free list (or a new one).
  std::unique_ptr<Active> TakeShell();
  /// Erases `id` from the transaction table and parks its shell in the
  /// free list. Exclusive context only.
  void RetireActive(TxnId id);
  /// The in-flight transaction `id`, or nullptr once it has retired.
  Active* Live(TxnId id) {
    std::unique_ptr<Active>* a = actives_.Find(id);
    return a != nullptr ? a->get() : nullptr;
  }

  /// The one entry point of every per-node step. A node that is down runs
  /// no step but kCommit (a master that started before the crash still
  /// commits: the rebuilt store replays that commit): the step is parked
  /// in `stalled` and the transaction frozen instead.
  void Run(Active& a, NodeId node, Phase phase);
  /// A callback that runs `phase` at `node` if transaction `id` is still
  /// in flight.
  sim::Callback Resume(TxnId id, NodeId node, Phase phase) {
    return [this, id, node, phase]() {
      if (Active* a = Live(id)) Run(*a, node, phase);
    };
  }
  /// kGrant: waits for the records to ship and, at a master, for its own
  /// records and lease copies.
  void OnGranted(Active& a, NodeState& state);
  /// kRead: reads the records to ship on a worker.
  void StartParticipant(Active& a, NodeState& state);
  /// kShip: ships read copies and moved records, then releases the locks
  /// of a node that is not a master (early release).
  void FinishParticipant(Active& a, NodeState& state);
  /// kMasterReady: starts executing on a worker once everything arrived.
  void CheckMasterReady(Active& a, NodeState& state);
  /// kCommit: applies the writes, fans out lease refreshes, releases.
  void CommitMaster(Active& a, NodeState& state);
  /// Barrier-side tail of CommitMaster: bumps masters_done and, once every
  /// master committed, acknowledges. Runs in exclusive context (Defer) —
  /// masters commit on their own node lanes, so the shared counter and the
  /// cross-node acknowledgment work may not run lane-side.
  void OnMasterDone(TxnId id);
  /// Client acknowledgment + return shipments, fired once when every
  /// master has committed. Exclusive context only.
  void Acknowledge(Active& a);
  /// Retires the transaction state once masters and participants are all
  /// done. Touches cross-node per-txn state, so exclusive context only.
  void MaybeComplete(Active& a);

  /// True when degraded mode is active and `node` is currently down.
  bool NodeDead(NodeId node) const {
    return membership_ != nullptr && !membership_->alive(node);
  }
  /// Marks `a` stuck at a dead node and indexes it for the watchdog.
  /// Defers to the epoch barrier when called lane-side (the flag and the
  /// sorted index are shared across nodes).
  void Freeze(Active& a);
  /// Freeze() plus the step the dead-node gate stopped, so ResumeStalled
  /// can re-run it at rejoin. Defers like Freeze().
  void FreezeStalled(Active& a, NodeId node, Phase phase);
  /// Re-runs every step stalled at `node`, in sorted txn order, and
  /// unfreezes transactions with no remaining stalls.
  /// Touches cross-node per-txn state — exclusive context only (runs
  /// inside the rejoin transition, live and replay).
  void ResumeStalled(NodeId node);
  /// Deterministic periodic sweep: aborts every frozen, un-acknowledged
  /// transaction (sorted by id), re-arming while any node is down.
  /// Scheduled on the control lane only, never called lane-side.
  void WatchdogSweep();
  /// Reclaim timer body: lands a suppressed in-flight record back at its
  /// source once the destination has been down for kReclaimTimeoutUs.
  /// Re-arms itself while the SOURCE is also down (overlapping fault
  /// windows — e.g. a partition suspect while a crashed node is out):
  /// reclaiming to a dead node would drop the payload. Scheduled on the
  /// control lane only, never called lane-side.
  void ReclaimSuppressed(Key key, TxnId carrier);
  /// UNDO-aborts one frozen transaction: classifies its unfinished
  /// migrations (reship / strand / displace), releases its locks
  /// everywhere, and hands (request, callback, stranded keys) to the
  /// cluster's abort handler.
  void AbortActive(Active& a);

  /// Ships a read-only copy of `key` to `holder` for a freshly granted
  /// lease: waits for the record at its source (following an in-flight
  /// migration or a displaced record if needed), snapshots it — the
  /// primary is never extracted — and sends it; the holder's lane applies
  /// it through the lease manager. Dispatch-time (exclusive) entry point.
  void StartReplicaInstall(Key key, NodeId source, NodeId holder, TxnId txn);

  /// Runs `ready` once every key in `keys` is physically present in
  /// `node`'s store (immediately if they already are). `keys` is read
  /// before returning and not kept.
  void WaitPresence(NodeId node, std::span<const Key> keys,
                    sim::Callback ready);
  /// Lands an arriving record at `node` and wakes presence waiters. `from`
  /// is the node that shipped it and `carrier` the transaction whose
  /// shipment carries it (kInvalidTxn for reships, reclaims and rejoin
  /// flushes); a delivery to a dead node is suppressed under both.
  void DeliverRecord(NodeId node, Key key, NodeId from, TxnId carrier);

  void ProcessGrants(NodeId node, const std::vector<TxnId>& granted);

  sim::Simulator* sim_;
  net::Wire* net_;
  Metrics* metrics_;
  const CostModel* costs_;
  std::vector<std::unique_ptr<Node>>* nodes_;

  /// Transaction table, a ring indexed by `id - base` (ids are dense and
  /// dispatched mostly in order; a parked transaction released after an
  /// outage re-enters below the base). Inserted on dispatch and taken on
  /// completion or abort, both in exclusive context. Values are boxed so
  /// an `Active&` survives the ring's growth. A retired transaction's
  /// shell goes to `idle_shells_` and the next Dispatch reuses it, so an
  /// `Active&` is valid only until its transaction retires: every
  /// continuation captures the TxnId and re-finds its transaction with
  /// Live(). Ids are never reused, so a stale continuation finds nothing
  /// and returns.
  IdRing<std::unique_ptr<Active>> actives_;
  /// Retired shells, reset but keeping the capacity of their `nodes`,
  /// `write_keys` and `owned`. Poisoned under ASan while parked.
  std::vector<std::unique_ptr<Active>> idle_shells_;

  /// One client acknowledgment on its network hop, parked in `acks_`
  /// while the ack event (which captures only its slot) is queued.
  struct Ack {
    TxnResult result;
    CommitCallback cb;
    SimTime submit = 0;
    NodeId master = kInvalidNode;
    bool regular = false;
  };
  SlotPool<Ack> acks_;
  /// Ack event body: completes the latency breakdown, records the commit
  /// and runs the client callback.
  void DeliverAck(uint32_t slot);

  /// Per-event scratch. A call takes a buffer out by move and gives it
  /// back when done, so a nested call simply gets a fresh vector. Dispatch
  /// builds each node's lock requests in `lock_pool_`; shipped key lists
  /// ride their message and return to `key_pool_` on delivery.
  VectorPool<TxnId> granted_pool_;
  VectorPool<Key> key_pool_;
  VectorPool<NodeId> node_pool_;
  VectorPool<storage::LockRequest> lock_pool_;
  VectorPool<std::pair<NodeId, Shipment>> shipment_pool_;
  VectorPool<std::pair<NodeId, uint64_t>> work_pool_;

  /// Record presence waiters, per node; DeliverRecord wakes them.
  sim::KeyWaits presence_;

  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
  obs::Tracer* tracer_ = nullptr;
  /// Replica-lease mechanism (null = disabled; see set_lease_manager).
  replication::LeaseManager* lease_mgr_ = nullptr;

  // --- Degraded-mode state (all null/empty unless EnableDegraded ran). ---
  const MembershipView* membership_ = nullptr;
  DegradedLedger* ledger_ = nullptr;
  DegradedAbortHandler degraded_abort_;
  /// A single watchdog chain is armed while any node is down (plus one
  /// final sweep after rejoin to clear stragglers frozen just before it).
  bool watchdog_armed_ = false;
  /// Ids of frozen transactions, maintained by Freeze()/erasure. The
  /// watchdog visits only these, in id order.
  std::set<TxnId> frozen_ids_;
  /// Keys whose physical node diverged from the ownership map during an
  /// outage (reclaimed or stranded records). std::map: the rejoin
  /// reconciliation iterates it in key order.
  std::map<Key, NodeId> displaced_;
  /// A shipment whose delivery was suppressed because its destination
  /// died mid-flight. The record stays in flight toward `to` in the table;
  /// a reclaim timer lands it back at `from`, or the rejoin flush at `to`.
  struct Suppressed {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    TxnId carrier = kInvalidTxn;
  };
  /// Suppressed shipments by key, written in exclusive context only.
  /// std::map: the rejoin flush lands them in key order.
  std::map<Key, Suppressed> suppressed_;
};

}  // namespace hermes::engine

#endif  // HERMES_ENGINE_EXECUTOR_H_
