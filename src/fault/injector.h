#ifndef HERMES_FAULT_INJECTOR_H_
#define HERMES_FAULT_INJECTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "engine/cluster.h"
#include "fault/fault_plan.h"
#include "fault/invariant_monitor.h"
#include "fault/link_chaos.h"
#include "partition/partition_map.h"
#include "storage/checkpoint.h"

namespace hermes::fault {

/// What one crash/rejoin cycle cost, in virtual time.
struct RecoveryStats {
  NodeId node = kInvalidNode;
  bool no_stall = false;   ///< kCrashNoStall cycle (degraded mode)
  SimTime crash_at = 0;    ///< fault fired
  SimTime drained_at = 0;  ///< cluster quiesced (== crash_at for no-stall)
  SimTime rejoin_at = 0;   ///< scheduled rejoin point
  SimTime replay_us = 0;   ///< virtual cost of checkpoint+log replay
  SimTime resumed_at = 0;  ///< node serving again
  /// When cluster-wide intake accepted new work again: the stall model
  /// pauses the sequencer until the node is rebuilt, so this equals
  /// resumed_at; degraded mode never pauses, so it equals crash_at.
  SimTime intake_resumed_at = 0;
  size_t replayed_batches = 0;

  /// Virtual time the cluster could not accept new work. NOT the same
  /// thing as time_to_recover_us(): the stall ends when cluster-wide
  /// intake resumes (zero in degraded mode), recovery ends when the
  /// crashed node serves again.
  SimTime stall_us() const { return intake_resumed_at - crash_at; }
  /// Virtual time from the fault to the node serving again.
  SimTime time_to_recover_us() const { return resumed_at - crash_at; }
};

/// What one partition cut/heal cycle looked like, in virtual time.
struct PartitionStats {
  NodeId node = kInvalidNode;
  PartitionMode mode = PartitionMode::kTwoSided;
  SimTime cut_at = 0;
  SimTime healed_at = 0;       ///< 0 while the cut is still up
  uint64_t held_released = 0;  ///< messages parked during this cut
};

/// Drives a Cluster through a FaultPlan in virtual time.
///
/// Crash model — stall-and-rebuild: this prototype hosts exactly one
/// partition per node with no intra-group partition replication (replicas
/// are whole-cluster copies in other data centers), so a node crash makes
/// its partition unavailable and the cluster stalls:
///   1. kCrash: pause sequencer intake (submissions accumulate but nothing
///      new enters the total order), drain in-flight work to quiescence —
///      records in flight TOWARD the dead node still land first, modeling
///      the receiver's transport buffer surviving into the rebuild — then
///      discard the node's volatile store.
///   2. kRejoin: rebuild the node's store by running §4.3 recovery in a
///      SHADOW cluster (restore latest checkpoint, replay the live command
///      log's suffix — determinism makes the shadow's store bit-identical
///      to what the live node held at the drain point), copy the rebuilt
///      store back, refresh the checkpoint, and resume intake at
///      max(rejoin time, drain time) + replay cost.
///   3. kCrashNoStall (degraded mode, DESIGN.md §5): the victim's store is
///      lost mid-flight but the cluster keeps sequencing — new batches
///      route around the dead node, already-ordered touchers are parked or
///      UNDO-aborted and retried on a deterministic backoff, and the
///      matching kRejoin charges the background replay cost before the
///      node serves again (no drain, no intake pause at any point).
///   4. kPartitionStart/kPartitionHeal (DESIGN.md §5 "Partitions & failure
///      detection"): the victim's links are cut in the network's
///      reachability matrix (two-sided or one-way per the event's mode);
///      payloads sent into the cut park in per-link FIFO pens and release
///      on heal. The cluster's heartbeat failure detector — required for
///      partition plans — converts sustained unreachability into the same
///      membership epochs kCrashNoStall uses, and restores membership
///      after the heal via its confirmation hysteresis. Drain() then runs
///      the partition oracle: pens drained, nothing crossed a live cut,
///      and the command log replays to the same placements and state.
/// Link chaos (drops/duplicates/jitter) is installed for the whole run; a
/// gray window (plan.link.gray_*) additionally degrades one node's links —
/// slower, lossier, heartbeats eaten with high probability — without
/// cutting anything; the injector arms the detector across the window.
///
/// Everything is a pure function of (config, workload seed, plan seed):
/// the chaos property test reruns plans under several hash salts and
/// asserts bit-identical digests, commit counts and recovery times.
class FaultInjector {
 public:
  using MapFactory =
      std::function<std::unique_ptr<partition::PartitionMap>()>;

  /// The cluster must be Load()ed and idle: the constructor takes the
  /// initial checkpoint recovery rebuilds from.
  FaultInjector(engine::Cluster* cluster, const FaultPlan& plan,
                MapFactory map_factory);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Advances virtual time to `deadline`, applying every fault event due
  /// on the way. A rejoin whose replay cost pushes the resume point past
  /// `deadline` overshoots it (time never runs backwards); Now() reports
  /// the actual position.
  void RunUntil(SimTime deadline);

  /// Applies any remaining events (a crashed node is always rejoined so
  /// the run ends whole), then drains the cluster.
  SimTime Drain();

  /// Runs the monitor's record-singularity check at every whole-state
  /// point: after a crash's drain (before the store is discarded) and
  /// after a rejoin's rebuild.
  void set_monitor(InvariantMonitor* monitor) { monitor_ = monitor; }

  SimTime Now() const { return cluster_->Now(); }
  const std::vector<RecoveryStats>& recoveries() const { return recoveries_; }
  const std::vector<PartitionStats>& partitions() const { return partitions_; }
  size_t events_applied() const { return next_event_; }
  const FaultPlan& plan() const { return plan_; }

  /// Deferred-refresh observability.
  bool refresh_pending() const { return refresh_pending_; }
  int checkpoint_refreshes() const { return checkpoint_refreshes_; }
  /// First batch the next replay would have to process: a refreshed
  /// checkpoint pushes this forward, shortening that replay.
  BatchId baseline_next_batch() const { return checkpoint_.next_batch; }

 private:
  void Apply(const FaultEvent& event);
  void RunMonitor(const char* what);
  void ApplyCrash(const FaultEvent& event);
  void ApplyRejoin(const FaultEvent& event);
  void ApplyCrashNoStall(const FaultEvent& event);
  void ApplyRejoinNoStall(const FaultEvent& event);
  void ApplyPartitionStart(const FaultEvent& event);
  void ApplyPartitionHeal(const FaultEvent& event);
  void AdvanceTo(SimTime t);
  void MaybeRefreshCheckpoint();

  engine::Cluster* cluster_;
  FaultPlan plan_;
  MapFactory map_factory_;
  std::unique_ptr<LinkChaos> chaos_;
  storage::Checkpoint checkpoint_;
  InvariantMonitor* monitor_ = nullptr;

  size_t next_event_ = 0;
  NodeId down_node_ = kInvalidNode;
  bool down_no_stall_ = false;
  SimTime drained_at_ = 0;
  std::vector<RecoveryStats> recoveries_;
  /// Deferred checkpoint refresh (degraded mode): a no-stall rejoin under
  /// load has no quiescent point to snapshot at, so the refresh is armed
  /// and retaken at the next quiescent window instead of silently keeping
  /// the stale baseline (which would lengthen every later replay).
  bool refresh_pending_ = false;
  int checkpoint_refreshes_ = 0;
  bool had_no_stall_ = false;

  // --- Partition state. ---
  NodeId partitioned_node_ = kInvalidNode;
  uint64_t held_at_cut_ = 0;  ///< Wire::total_held() when the cut landed
  std::vector<PartitionStats> partitions_;
  bool had_partition_ = false;
};

/// The factory every range-partitioned fault run hands the injector and
/// the oracles: a fresh RangePartitionMap over config's records and nodes.
FaultInjector::MapFactory RangeMapFactory(const ClusterConfig& config);

}  // namespace hermes::fault

#endif  // HERMES_FAULT_INJECTOR_H_
