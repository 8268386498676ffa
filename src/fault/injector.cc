#include "fault/injector.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "engine/recovery.h"

namespace hermes::fault {
namespace {

bool HasLinkChaos(const LinkChaosConfig& link) {
  return link.drop_prob > 0.0 || link.duplicate_prob > 0.0 ||
         link.max_jitter_us > 0 || link.has_gray();
}

bool HasPartitions(const FaultPlan& plan) {
  for (const FaultEvent& e : plan.events) {
    if (e.kind == FaultEvent::Kind::kPartitionStart ||
        e.kind == FaultEvent::Kind::kPartitionHeal) {
      return true;
    }
  }
  return false;
}

}  // namespace

FaultInjector::FaultInjector(engine::Cluster* cluster, const FaultPlan& plan,
                             MapFactory map_factory)
    : cluster_(cluster), plan_(plan), map_factory_(std::move(map_factory)) {
  if (HasLinkChaos(plan_.link)) {
    chaos_ = std::make_unique<LinkChaos>(plan_.link, plan_.seed);
    chaos_->Install(&cluster_->wire());
  }
  if (HasPartitions(plan_)) {
    assert(cluster_->config().detector.enabled &&
           "partition plans need the heartbeat failure detector "
           "(config.detector.enabled) to degrade membership");
    for (const FaultEvent& e : plan_.events) {
      (void)e;
      // A stall-crash drains to quiescence; with a cut up the drain waits
      // on parked payloads forever. Generate() enforces no_stall for
      // mixed plans — re-checked here for hand-built ones.
      assert(e.kind != FaultEvent::Kind::kCrash &&
             "stall-crash cycles cannot coexist with partitions");
    }
  }
  // The rebuild baseline. Requires the cluster Load()ed and not yet
  // running (TakeCheckpoint asserts quiescence), so it is taken before
  // the gray-window arming below schedules its first event.
  checkpoint_ = cluster_->TakeCheckpoint();
  if (cluster_->failure_detector() != nullptr) {
    // The detector's heartbeat stream shares the chaos seed: a gray link
    // eats heartbeats with gray_heartbeat_drop_prob, keyed by (seed, link,
    // tick) — a pure function, so detector epochs replay exactly.
    if (chaos_ != nullptr) {
      LinkChaos* chaos = chaos_.get();
      cluster_->failure_detector()->set_heartbeat_loss(
          [chaos](NodeId src, NodeId dst, uint64_t tick, SimTime now) {
            return chaos->HeartbeatDropped(src, dst, tick, now);
          });
    }
    // Gray windows cut nothing, so no PartitionCut arms the detector;
    // schedule the arming across the window (plus slack for the detector
    // to notice the recovery and restore membership).
    if (plan_.link.has_gray()) {
      engine::Cluster* cluster = cluster_;
      const SimTime until =
          plan_.link.gray_until_us +
          static_cast<SimTime>(engine::kMissThreshold +
                               engine::kConfirmThreshold + 2) *
              engine::kHeartbeatPeriodUs;
      cluster_->simulator().Schedule(
          plan_.link.gray_from_us,
          [cluster, until] { cluster->ArmDetector(until); });
    }
  }
}

FaultInjector::MapFactory RangeMapFactory(const ClusterConfig& config) {
  const uint64_t records = config.num_records;
  const int nodes = config.num_nodes;
  return [records, nodes] {
    return std::make_unique<partition::RangePartitionMap>(records, nodes);
  };
}

void FaultInjector::AdvanceTo(SimTime t) {
  // While a deferred checkpoint refresh is armed, step in metrics windows
  // so a quiescent gap between submission waves is noticed and
  // snapshotted instead of being leapt over in one RunUntil call.
  if (refresh_pending_) {
    const SimTime window =
        std::max<SimTime>(1, cluster_->metrics().window_us());
    while (refresh_pending_ && cluster_->Now() < t) {
      const SimTime next =
          std::min(t, ((cluster_->Now() / window) + 1) * window);
      cluster_->RunUntil(next);
      MaybeRefreshCheckpoint();
    }
  }
  if (cluster_->Now() < t) cluster_->RunUntil(t);
}

void FaultInjector::MaybeRefreshCheckpoint() {
  if (!refresh_pending_) return;
  if (down_node_ != kInvalidNode) return;
  // Quiescent means nothing in flight and no scheduled event. With intake
  // unpaused that also implies no pending submissions (a pending
  // submission always has its batch-cut event scheduled), so
  // TakeCheckpoint's quiescence assertion holds.
  if (cluster_->executor().inflight() != 0 || !cluster_->simulator().idle()) {
    return;
  }
  checkpoint_ = cluster_->TakeCheckpoint();
  refresh_pending_ = false;
  ++checkpoint_refreshes_;
}

void FaultInjector::RunUntil(SimTime deadline) {
  while (next_event_ < plan_.events.size() &&
         plan_.events[next_event_].at <= deadline) {
    const FaultEvent event = plan_.events[next_event_];
    AdvanceTo(event.at);
    Apply(event);
    ++next_event_;
  }
  AdvanceTo(deadline);
}

SimTime FaultInjector::Drain() {
  while (next_event_ < plan_.events.size()) {
    const FaultEvent event = plan_.events[next_event_];
    AdvanceTo(event.at);
    Apply(event);
    ++next_event_;
  }
  const SimTime t = cluster_->Drain();
  MaybeRefreshCheckpoint();
  if (monitor_ != nullptr && (had_partition_ || plan_.link.has_gray())) {
    // Subsumes the degraded oracle: the partition check delegates to it
    // whenever the run recorded membership transitions (detector fired or
    // scripted no-stall crashes rode along).
    monitor_->CheckPartitionOracle(*cluster_, cluster_->kind(), map_factory_,
                                   "post-drain partition oracle");
  } else if (monitor_ != nullptr && had_no_stall_) {
    monitor_->CheckDegradedOracle(*cluster_, cluster_->kind(), map_factory_,
                                  "post-drain degraded oracle");
  }
  return t;
}

void FaultInjector::Apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultEvent::Kind::kCrash:
      ApplyCrash(event);
      break;
    case FaultEvent::Kind::kRejoin:
      if (down_no_stall_) {
        ApplyRejoinNoStall(event);
      } else {
        ApplyRejoin(event);
      }
      break;
    case FaultEvent::Kind::kCrashNoStall:
      ApplyCrashNoStall(event);
      break;
    case FaultEvent::Kind::kPartitionStart:
      ApplyPartitionStart(event);
      break;
    case FaultEvent::Kind::kPartitionHeal:
      ApplyPartitionHeal(event);
      break;
  }
}

void FaultInjector::RunMonitor(const char* what) {
  if (monitor_ == nullptr) return;
  char context[64];
  std::snprintf(context, sizeof(context), "%s t=%llu", what,
                static_cast<unsigned long long>(Now()));
  monitor_->CheckRecordSingularity(*cluster_, context);
}

void FaultInjector::ApplyCrash(const FaultEvent& event) {
  assert(down_node_ == kInvalidNode && "overlapping crash cycles");
  assert(event.node >= 0 && event.node < cluster_->num_nodes());
  RecoveryStats stats;
  stats.node = event.node;
  stats.crash_at = Now();
  HERMES_TRACE(&cluster_->tracer(), obs::EventKind::kCrash, event.node,
               kInvalidTxn);

  // Stall intake and let in-flight work finish. Records already riding a
  // message toward the dying node land first (its transport buffer
  // outlives the process), so at the drain point nothing is in flight and
  // the discarded store's contents are exactly what replay reproduces.
  cluster_->PauseIntake();
  drained_at_ = cluster_->Drain();
  stats.drained_at = drained_at_;
  // The monitor sees the drained-but-whole state: everything must be
  // singular BEFORE the store is discarded (afterwards the dead node's
  // keys are legitimately absent until the rebuild).
  RunMonitor("crash drain");
  cluster_->node(event.node).store().Clear();
  down_node_ = event.node;
  recoveries_.push_back(stats);
}

void FaultInjector::ApplyRejoin(const FaultEvent& event) {
  assert(down_node_ == event.node && "rejoin for a node that is not down");
  RecoveryStats& stats = recoveries_.back();
  stats.rejoin_at = Now();

  // §4.3 recovery in a shadow cluster: checkpoint + command-log suffix.
  // Determinism makes the shadow's post-replay state bit-identical to the
  // live cluster's state at the drain point, so the crashed node's store
  // can be copied out of it wholesale. The shadow's virtual clock is the
  // replay cost the rejoining node would really pay.
  for (const Batch& b : cluster_->command_log().batches()) {
    if (b.id >= checkpoint_.next_batch) ++stats.replayed_batches;
  }
  std::unique_ptr<engine::Cluster> shadow = engine::RecoverCluster(
      cluster_->config(), cluster_->kind(), map_factory_(), checkpoint_,
      cluster_->command_log());
  stats.replay_us = shadow->Now();

  const storage::RecordStore& rebuilt = shadow->node(event.node).store();
  storage::RecordStore& live = cluster_->node(event.node).store();
  assert(live.size() == 0 && "rejoining node's store must still be empty");
  for (const auto& [k, rec] : rebuilt.records()) live.Insert(k, rec);

  // The node serves again once the replay cost has elapsed — never before
  // the drain finished, never before the scheduled rejoin.
  const SimTime resume_at =
      std::max(stats.rejoin_at, drained_at_) + stats.replay_us;
  AdvanceTo(resume_at);
  stats.resumed_at = Now();
  stats.intake_resumed_at = stats.resumed_at;  // intake was paused until now
  HERMES_TRACE(&cluster_->tracer(), obs::EventKind::kRejoin, event.node,
               kInvalidTxn, static_cast<Key>(-1), stats.replayed_batches);

  // Refresh the rebuild baseline so the next cycle replays a short
  // suffix. Submissions can trickle in during the stall; if one is mid
  // network-hop right now the cluster is not quiescent, so the refresh is
  // deferred to the next quiescent window instead of silently keeping the
  // stale baseline (which would lengthen every later replay).
  down_node_ = kInvalidNode;
  refresh_pending_ = true;
  MaybeRefreshCheckpoint();
  RunMonitor("rejoin");
  cluster_->ResumeIntake();
}

void FaultInjector::ApplyCrashNoStall(const FaultEvent& event) {
  assert(down_node_ == kInvalidNode && "overlapping crash cycles");
  assert(event.node >= 0 && event.node < cluster_->num_nodes());
  RecoveryStats stats;
  stats.node = event.node;
  stats.no_stall = true;
  stats.crash_at = Now();
  // Degraded mode: no pause, no drain. The cluster keeps sequencing and
  // routes new batches around the victim, so crash_at doubles as the
  // drain point and intake never stops.
  stats.drained_at = stats.crash_at;
  stats.intake_resumed_at = stats.crash_at;
  RunMonitor("crash-nostall");
  // The victim's store is lost; the rebuild replays checkpoint + log,
  // which determinism makes bit-identical to what the node held. The
  // simulation models that by detaching the image in place (CrashNoStall
  // freezes every consumer at the node) and charging the replay cost at
  // rejoin; the degraded oracle proves a from-scratch replay told the
  // same membership schedule reproduces the same bits.
  cluster_->CrashNoStall(event.node);
  down_node_ = event.node;
  down_no_stall_ = true;
  had_no_stall_ = true;
  recoveries_.push_back(stats);
}

void FaultInjector::ApplyRejoinNoStall(const FaultEvent& event) {
  assert(down_node_ == event.node && "rejoin for a node that is not down");
  RecoveryStats& stats = recoveries_.back();
  stats.rejoin_at = Now();

  // The node replays checkpoint + log in the background while the cluster
  // keeps running degraded; it serves again once that cost has elapsed.
  // No shadow cluster here — the live image was never discarded (see
  // ApplyCrashNoStall), so only the virtual replay cost is charged.
  for (const Batch& b : cluster_->command_log().batches()) {
    if (b.id >= checkpoint_.next_batch) ++stats.replayed_batches;
  }
  stats.replay_us = static_cast<SimTime>(stats.replayed_batches) *
                    engine::kReplayUsPerBatch;
  AdvanceTo(stats.rejoin_at + stats.replay_us);
  stats.resumed_at = Now();

  cluster_->RejoinNoStall(event.node);
  down_node_ = kInvalidNode;
  down_no_stall_ = false;
  // A no-stall rejoin happens under load: there is no quiescent point to
  // snapshot at, so arm the deferred refresh for the next quiescent
  // window.
  refresh_pending_ = true;
  MaybeRefreshCheckpoint();
  RunMonitor("rejoin-nostall");
}

void FaultInjector::ApplyPartitionStart(const FaultEvent& event) {
  assert(partitioned_node_ == kInvalidNode && "overlapping partitions");
  assert(event.node != down_node_ && "victim is already crashed");
  assert(event.node >= 0 && event.node < cluster_->num_nodes());
  PartitionStats stats;
  stats.node = event.node;
  stats.mode = event.mode;
  stats.cut_at = Now();
  held_at_cut_ = cluster_->wire().total_held();
  const bool in = event.mode != PartitionMode::kOutbound;
  const bool out = event.mode != PartitionMode::kInbound;
  RunMonitor("partition cut");
  cluster_->PartitionCut(event.node, in, out);
  partitioned_node_ = event.node;
  had_partition_ = true;
  partitions_.push_back(stats);
}

void FaultInjector::ApplyPartitionHeal(const FaultEvent& event) {
  assert(partitioned_node_ == event.node &&
         "heal for a node that is not partitioned");
  PartitionStats& stats = partitions_.back();
  stats.healed_at = Now();
  stats.held_released = cluster_->wire().total_held() - held_at_cut_;
  cluster_->PartitionHeal(event.node);
  partitioned_node_ = kInvalidNode;
  RunMonitor("partition heal");
}

}  // namespace hermes::fault
