#ifndef HERMES_ENGINE_CLUSTER_H_
#define HERMES_ENGINE_CLUSTER_H_

#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/digest.h"
#include "common/id_ring.h"
#include "common/membership.h"
#include "common/rng.h"
#include "common/slot_pool.h"
#include "common/types.h"
#include "engine/degraded.h"
#include "engine/failure_detector.h"
#include "core/hermes_router.h"
#include "engine/executor.h"
#include "engine/metrics.h"
#include "engine/node.h"
#include "engine/scheduler.h"
#include "engine/sequencer.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "partition/partition_map.h"
#include "replication/lease_manager.h"
#include "routing/clay_planner.h"
#include "routing/router.h"
#include "sim/simulator.h"
#include "storage/checkpoint.h"
#include "storage/command_log.h"

namespace hermes::engine {

/// Which transaction-routing algorithm the cluster runs.
enum class RouterKind {
  kCalvin,  ///< multi-master, static partitions (baseline system)
  kGStore,  ///< look-present grouping with write-back on commit
  kLeap,    ///< look-present migrate-to-master, no balancing
  kTPart,   ///< routing-only with forward pushing and write-back
  kHermes,  ///< prescient routing + fusion table (this paper)
};

/// The router kinds' names, in enum order: the scenario line format
/// (workload/scenarios.h) parses and prints them, and benches label their
/// columns with them.
inline constexpr const char* kRouterKindNames[] = {"calvin", "gstore",
                                                   "leap", "tpart", "hermes"};
inline const char* RouterKindName(RouterKind kind) {
  return kRouterKindNames[static_cast<int>(kind)];
}

/// The public facade of the library: a full deterministic database
/// cluster — sequencer, scheduler replicas running a routing algorithm,
/// per-node storage/lock/executor stacks — driven by a discrete-event
/// simulation. Typical use:
///
///   ClusterConfig config;
///   config.num_nodes = 4;
///   Cluster cluster(config, RouterKind::kHermes,
///                   std::make_unique<partition::RangePartitionMap>(
///                       config.num_records, config.num_nodes));
///   cluster.Load();
///   cluster.Submit(txn, [](const TxnResult& r) { ... });
///   cluster.RunUntil(SecToSim(60));
class Cluster {
 public:
  Cluster(const ClusterConfig& config, RouterKind kind,
          std::unique_ptr<partition::PartitionMap> initial_partitioning);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Populates every record at its home partition. Call once before
  /// submitting transactions (skip when restoring from a checkpoint).
  void Load();

  /// Submits a client request: it reaches its sequencer one network hop
  /// from now; `on_commit` fires when the client receives the result.
  /// Keys are dense: every key of the request must be below
  /// config.num_records (asserted in Debug builds), because per-key state
  /// is indexed by key.
  ///
  /// Requests with `requires_reconnaissance` first run an OLLP
  /// reconnaissance read against the owners of their read-set (charged as
  /// real work on those nodes) before being sequenced; a stale prediction
  /// (probability config.ollp_stale_prob) deterministically aborts the
  /// first attempt and retries once, as in Calvin.
  void Submit(TxnRequest txn,
              TxnExecutor::CommitCallback on_commit = nullptr);

  uint64_t ollp_reconnaissance_count() const { return ollp_recons_; }
  uint64_t ollp_retry_count() const { return ollp_retries_; }

  // --- Fault-injection hooks (used by fault::FaultInjector). ---

  /// Stops the sequencer from cutting batches: submissions accumulate but
  /// nothing new enters the total order until ResumeIntake(). The fault
  /// injector stalls intake while a crashed node's store is rebuilt, so
  /// the total order never references a store that does not exist.
  void PauseIntake() { sequencer_.Pause(); }
  void ResumeIntake() { sequencer_.Resume(); }
  bool intake_paused() const { return sequencer_.paused(); }

  // --- Degraded mode: non-stalling crash handling (DESIGN.md §5). ---
  //
  // Under kCrashNoStall the cluster keeps sequencing while a node is
  // down: new batches route around it (membership-filtered candidate
  // sets), already-ordered transactions touching it are deterministically
  // parked (chunk migrations, provisioning markers) or retried with a
  // deterministic virtual-time backoff (regular transactions, bounded by
  // kMaxRetries, then an UNAVAILABLE abort to the client), and the
  // executor watchdog UNDO-aborts transactions frozen mid-flight at the
  // dead node. Every decision is a pure function of
  // (fault plan, config, total order): the recorded DegradedSchedule
  // replays the run bit-identically.

  /// Marks `node` dead without pausing intake. The victim's store is
  /// detached in place: the model says it is lost and later rebuilt
  /// bit-identically from checkpoint + log (the injector charges that
  /// virtual time); the simulation reuses the image. Every replica lease
  /// lapses (the holder set can no longer be maintained consistently).
  /// Called between events by the fault injector, never lane-side.
  void CrashNoStall(NodeId node);

  /// Brings `node` back: flushes suppressed in-flight shipments, reships
  /// every record whose physical location diverged from the ownership map
  /// during the outage, clears stranded-key blocks, and re-routes parked
  /// transactions (in FIFO = total order). Replica leases lapse again —
  /// the router re-grants from fresh counters at the next batch boundary.
  void RejoinNoStall(NodeId node);

  // --- Partitions & failure detection (DESIGN.md §5). ---
  //
  // A partition cuts directed links of the wire; payloads sent into the
  // cut park in per-link FIFO holding pens (message existence preserved —
  // see net::Wire). The heartbeat failure detector converts sustained
  // unreachability into the SAME membership-epoch transitions
  // kCrashNoStall uses, so the majority side degrades exactly as it would
  // for a crash, and the heal reconciles through the standard rejoin path.
  // Cuts, heals and detector ticks all run in exclusive context; every
  // transition is a pure function of (fault plan, config, virtual time).

  /// Cuts the links around `node`: inbound severs peer->node, outbound
  /// severs node->peer (both true = two-sided cut). Idempotent per
  /// direction. Arms the failure detector when one is configured. Called
  /// between events by the fault injector, never lane-side.
  void PartitionCut(NodeId node, bool cut_inbound, bool cut_outbound);

  /// Heals every cut link touching `node` and releases the affected
  /// holding pens in FIFO order. The failure detector (if armed) restores
  /// the node's membership after its confirmation hysteresis.
  void PartitionHeal(NodeId node);

  /// Arms the failure detector (no-op without config.detector.enabled):
  /// the heartbeat chain runs at least until `active_until`, and past it
  /// while cuts, suspicions or misses persist. The fault injector arms
  /// gray windows this way, since gray links cut nothing.
  void ArmDetector(SimTime active_until);

  /// The heartbeat failure detector, or nullptr unless
  /// config.detector.enabled.
  FailureDetector* failure_detector() { return detector_.get(); }
  const FailureDetector* failure_detector() const { return detector_.get(); }

  /// Installs a recorded degraded schedule before ReplayBatches: the
  /// replay applies the same membership transitions at the same batch
  /// boundaries and flips recorded watchdog aborts into §4.2 user aborts,
  /// reproducing the live run's placements and committed effects.
  void SetReplayMembershipSchedule(const DegradedSchedule& schedule);

  const MembershipView& membership() const { return membership_; }
  const DegradedSchedule& degraded_schedule() const {
    return degraded_schedule_;
  }
  const DegradedLedger& degraded_ledger() const { return degraded_ledger_; }
  size_t parked_count() const { return parked_.size(); }

  /// Diagnostic rendering of the degraded-mode state: membership view,
  /// retry transcript, parked transactions (FIFO order, with attempt
  /// counts and parking epoch) and stranded keys — all totally ordered,
  /// so the output is identical across hash salts.
  std::string DegradedDebugString() const;

  /// Advances simulated time to `deadline`, sampling resource metrics
  /// every metrics window.
  void RunUntil(SimTime deadline);

  /// Runs until no simulated work remains (requires clients to stop
  /// submitting). Returns the drain completion time.
  SimTime Drain();

  SimTime Now() const { return sim_.Now(); }

  // --- Dynamic machine provisioning (§3.3). ---

  /// Adds a node. `cold_plan` re-homes ranges onto the new node; when
  /// `migrate_cold` is true the ranges move via chunk-migration
  /// transactions (Squall-style), otherwise only hot data moves via the
  /// fusion table. Called between events (control lane), never lane-side.
  NodeId AddNode(const std::vector<RangeMove>& cold_plan, bool migrate_cold);

  /// Removes a node, re-homing its ranges per `cold_plan`.
  void RemoveNode(NodeId node, const std::vector<RangeMove>& cold_plan,
                  bool migrate_cold);

  /// Enqueues chunk-migration transactions for `moves`, submitted one
  /// after another (each chunk waits for the previous chunk's commit).
  /// When `replace_pending` is set, not-yet-submitted chunks from earlier
  /// plans are dropped first (a fresh Clay plan supersedes stale ones).
  void SubmitMigrationPlan(const std::vector<routing::ClumpMove>& moves,
                           bool replace_pending = false);

  /// Attaches a Clay look-back planner: it observes dispatched
  /// transactions and periodically emits migration plans which the
  /// cluster executes via chunk transactions.
  void EnableClay(const routing::ClayConfig& clay_config);

  // --- Recovery (§4.3). ---

  /// Captures a consistent checkpoint. Requires quiescence (no in-flight
  /// transactions, empty sequencer).
  storage::Checkpoint TakeCheckpoint() const;

  /// Restores cluster state from a checkpoint (call instead of Load()).
  void RestoreFromCheckpoint(const storage::Checkpoint& checkpoint);

  /// Replays command-log batches (e.g. after RestoreFromCheckpoint) and
  /// drains. The deterministic routing and execution reproduce the exact
  /// pre-crash state.
  void ReplayBatches(const std::vector<Batch>& batches);

  /// Continues the total order from external counters. Replay does not
  /// run the sequencer, so a cluster rebuilt from another's command log
  /// (a standby taking over from a failed primary) sets the ids the
  /// failed cluster would have assigned next before it takes requests.
  void RestoreSequencerCounters(BatchId next_batch, TxnId next_txn) {
    sequencer_.RestoreCounters(next_batch, next_txn);
  }

  /// Placement-sensitive checksum over all stores (replica equality).
  uint64_t StateChecksum() const;

  /// Placement-INsensitive checksum over record contents only. Two
  /// executions that wrote the same values to the same keys match here
  /// even if records ended up on different nodes — the serializability
  /// tests compare this against a single-store reference execution.
  uint64_t ContentChecksum() const;

  // --- Introspection. ---
  sim::Simulator& simulator() { return sim_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  /// The message fabric (DESIGN.md §5 "Wire substrate"); its bounded path
  /// is inert unless config.net.enabled. network() is an alias of wire()
  /// that ledger/ still calls.
  net::Wire& network() { return wire_; }
  net::Wire& wire() { return wire_; }
  const net::Wire& wire() const { return wire_; }
  routing::Router& router() { return *router_; }
  partition::OwnershipMap& ownership() { return ownership_; }
  TxnExecutor& executor() { return executor_; }
  /// Replica-lease engine state (copies, waiters, counters). Inert unless
  /// config.replication.enabled with the Hermes router.
  replication::LeaseManager& lease_manager() { return lease_mgr_; }
  const replication::LeaseManager& lease_manager() const { return lease_mgr_; }
  bool replication_enabled() const {
    return config_.replication.enabled && kind_ == RouterKind::kHermes;
  }
  /// Order-insensitive checksum over every replica copy; the replica
  /// analogue of StateChecksum (coherence monitoring, determinism tests).
  uint64_t ReplicaChecksum() const { return lease_mgr_.Checksum(); }
  const storage::CommandLog& command_log() const { return command_log_; }
  const ClusterConfig& config() const { return config_; }
  RouterKind kind() const { return kind_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(NodeId id) { return *nodes_[id]; }
  /// The cluster-wide record table: each key's one location (a node, or
  /// kInvalidNode while in flight) and record. Nodes mutate it only
  /// through their RecordStore views.
  const storage::RecordTable& record_table() const { return records_; }
  /// Total executor workers across all nodes (for CPU utilization).
  int total_workers() const;
  /// The Hermes router (its fusion table, stats and fusion checksum), or
  /// nullptr unless running it.
  const core::HermesRouter* hermes_router() const { return hermes_; }

  /// Running digest over the cluster's decision stream: router placements,
  /// fusion-table evictions, and every event-queue pop. Identical seeded
  /// runs must produce identical digests under every HERMES_HASH_SALT —
  /// digest_oracle_test and scripts/check_determinism.sh assert
  /// this, catching hash-iteration-order leaks at runtime.
  const DecisionDigest& decision_digest() const { return digest_; }

  /// Digest over routing decisions ONLY (no event-queue pops, no fusion
  /// evictions): what the scheduler decided for the sequenced batch
  /// stream. Chaos legitimately perturbs event timing, so decision_digest
  /// diverges under faults — but the batch stream survives in the command
  /// log, and replaying it fault-free must reproduce this digest exactly.
  /// fault::InvariantMonitor compares the two.
  const DecisionDigest& placement_digest() const { return placement_digest_; }

  // --- Observability (src/obs/, DESIGN.md "Observability"). ---

  /// The cluster's structured tracer. Enabled via ObsConfig::trace_enabled
  /// or the HERMES_TRACE env var; HERMES_TRACE_KEY mirrors one key's
  /// events to stderr through the same stream. Strictly passive: nothing
  /// in the cluster reads it back into a decision.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// FNV-1a digest over the trace-event stream: each per-node ring keeps
  /// an order-sensitive digest, folded here in node order (same pattern as
  /// decision_digest). Two traced runs match iff they recorded identical
  /// per-node event histories — across hash salts
  /// (trace_determinism_test).
  DecisionDigest trace_digest() const { return tracer_.digest(); }

  /// Renders the trace as Chrome trace_event JSON (Perfetto-loadable).
  std::string TraceJson() const;

 private:
  /// One transaction waiting out an outage in the parking queue.
  struct ParkedTxn {
    TxnRequest txn;
    uint32_t epoch = 0;  ///< membership epoch when parked
  };

  void SubmitWithReconnaissance(TxnRequest&& txn,
                                TxnExecutor::CommitCallback&& on_commit);
  void SubmitSequenced(TxnRequest&& txn,
                       TxnExecutor::CommitCallback&& on_commit);
  /// Hands `txn` to the sequencer `delay` from now and registers
  /// `on_commit` under the id it receives there.
  void SequenceAfter(SimTime delay, TxnRequest&& txn,
                     TxnExecutor::CommitCallback&& on_commit);
  void OnBatchSequenced(Batch&& batch);
  TxnExecutor::CommitCallback ResolveCallback(const TxnRequest& txn);
  void SampleWindow();
  void SubmitNextChunk();
  void ArmClayTick();
  /// AddNode/RemoveNode's shared tail: submits the provisioning marker
  /// and, with `migrate_cold`, the cold plan's chunk migrations.
  void SubmitProvisioning(TxnKind kind, NodeId node,
                          const std::vector<RangeMove>& cold_plan,
                          bool migrate_cold);

  // --- Degraded mode internals. ---
  /// Scheduler batch filter: drops/parks/retries transactions that cannot
  /// run under the current membership. Runs after the command log keeps
  /// the original batch, so a replay fed the schedule refilters
  /// identically.
  void ClassifyBatch(BatchId id, std::vector<TxnRequest>* txns);
  /// True when ClassifyBatch may rewrite a batch: a replay with recorded
  /// aborts to flip, a node down, or stranded keys. Otherwise the
  /// scheduler skips the filter and moves the batch into the command log.
  bool BatchFilterArmed() const;
  bool KeyBlocked(Key key) const;
  bool TxnBlocked(const TxnRequest& txn) const;
  Key BlockingKey(const TxnRequest& txn) const;
  /// Deterministic retry slot: min(base << attempt, cap) plus a jitter
  /// drawn as Mix64(retry_of, attempt) — a pure function of (txn id,
  /// attempt, config), never wall clock or hash order.
  SimTime RetryDelay(TxnId retry_of, uint32_t attempt) const;
  /// Re-enqueues a blocked regular transaction after RetryDelay, or fires
  /// a deterministic UNAVAILABLE abort once attempts are exhausted.
  void ScheduleRetryOrFail(TxnRequest txn, TxnExecutor::CommitCallback cb,
                           uint32_t epoch);
  /// Executor watchdog handler: records the abort for replay, blocks
  /// stranded keys, and reclassifies the transaction (retry or chunk
  /// chain continuation).
  void OnWatchdogAbort(TxnRequest txn, TxnExecutor::CommitCallback cb,
                       std::vector<Key> stranded);
  /// Reships every record whose physical node diverged from the
  /// ownership map during the outage (rejoin reconciliation).
  void ReconcileDisplaced();
  /// The rejoin tail shared by RejoinNoStall and replay's recorded
  /// rejoin, after MarkUp: lapse leases, flush suppressed shipments and
  /// resume stalled machines, reconcile displaced records, unblock
  /// stranded keys, route the parked queue. Replay must run the same
  /// steps, or transactions that froze during replay would wedge instead
  /// of converging to the live run's final state.
  void FinishRejoin(NodeId node);
  /// Routes the parking queue (FIFO); entries re-park if still blocked.
  void ReleaseParked();
  /// Replay cursor: applies scheduled membership events and recorded
  /// stranded sets whose from_batch <= `id`, in recorded order. Runs from
  /// the scheduler's batch filter, which executes between events.
  void ApplyScheduledEventsBefore(BatchId id);

  /// Appends one physical node (lane, trace ring, lease slot and a view of
  /// the record table) after construction; the caller grows the wire.
  NodeId AppendNode();

  ClusterConfig config_;
  RouterKind kind_;
  /// Declared before sim_/scheduler_ so the components it is wired into
  /// outlive none of their digest writes.
  DecisionDigest digest_;
  DecisionDigest placement_digest_;
  /// Declared with the digests, before every component that holds a
  /// pointer into it, for the same lifetime reason.
  obs::Tracer tracer_;
  sim::Simulator sim_;
  Metrics metrics_;
  /// Declared before executor_ (which sends through it).
  net::Wire wire_;
  /// Every record and every lock queue of the cluster; each node's store
  /// and lock manager are views of them.
  storage::RecordTable records_;
  storage::LockTable locks_;
  std::vector<std::unique_ptr<Node>> nodes_;
  partition::OwnershipMap ownership_;
  std::unique_ptr<routing::Router> router_;
  /// router_ as the Hermes router, or nullptr for the other kinds.
  core::HermesRouter* hermes_;
  storage::CommandLog command_log_;
  /// Declared before executor_ (which holds a pointer into it when
  /// replication is enabled) so copies outlive executor teardown.
  replication::LeaseManager lease_mgr_;
  TxnExecutor executor_;
  Sequencer sequencer_;
  Scheduler scheduler_;

  /// A request on its way to the sequencer, parked in `hops_` while the
  /// hop event (which captures only its slot) is queued.
  struct Hop {
    TxnRequest txn;
    TxnExecutor::CommitCallback cb;
  };
  SlotPool<Hop> hops_;
  /// Client callbacks by transaction id, registered when the sequencer
  /// assigns the id and taken when the scheduler dispatches the
  /// transaction. Ids are dense and increasing, so this is a ring indexed
  /// by `id - base`; a parked chunk migration keeps its old id's slot
  /// until the rejoin releases it.
  IdRing<TxnExecutor::CommitCallback> pending_callbacks_;

  std::deque<TxnRequest> chunk_queue_;
  bool chunk_in_flight_ = false;

  std::unique_ptr<routing::ClayPlanner> clay_;
  routing::ClayConfig clay_config_;

  uint64_t sampled_net_bytes_ = 0;
  uint64_t sampled_net_recv_bytes_ = 0;
  uint64_t sampled_net_class_bytes_[kNumTrafficClasses] = {0, 0};
  bool replaying_ = false;

  /// Seeded source for OLLP staleness draws (deterministic per cluster).
  std::unique_ptr<Rng> ollp_rng_;
  uint64_t ollp_recons_ = 0;
  uint64_t ollp_retries_ = 0;

  // --- Partition & detector state. ---
  /// Null unless config.detector.enabled. Declared after sim_/wire_ (it
  /// schedules ticks and reads link reachability).
  std::unique_ptr<FailureDetector> detector_;
  uint64_t partitions_cut_ = 0;
  uint64_t partitions_healed_ = 0;

  // --- Degraded-mode state. All quiescent while every node is alive. ---
  MembershipView membership_;
  DegradedLedger degraded_ledger_;
  /// Live: transitions/aborts recorded as they happen. Replay: the
  /// installed schedule, applied by cursor at batch boundaries.
  DegradedSchedule degraded_schedule_;
  std::vector<ParkedTxn> parked_;  ///< FIFO parking queue
  /// Keys physically left at a dead node while ownership points at a live
  /// one; touchers are blocked until rejoin reconciliation. Ordered set:
  /// diagnostics iterate it.
  std::set<Key> stranded_;
  /// Next batch id the scheduler will route; membership transitions and
  /// abort records anchor to it so the replay cursor applies them at the
  /// same point in the total order.
  BatchId next_expected_batch_ = 0;
  /// Stamps MembershipEvent/AbortRecord seq fields: the merged recording
  /// order of the two schedule streams, so replay can interleave events
  /// and aborts sharing one from_batch exactly as they happened live.
  uint64_t degraded_seq_ = 0;
  size_t replay_event_cursor_ = 0;
  size_t replay_abort_cursor_ = 0;
  /// Transactions the replay must flip to §4.2 user aborts, sorted.
  std::vector<TxnId> replay_abort_ids_;
};

}  // namespace hermes::engine

#endif  // HERMES_ENGINE_CLUSTER_H_
