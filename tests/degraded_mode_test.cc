// Degraded-mode (kCrashNoStall) tests: the cluster keeps sequencing while
// a node is down — new batches route around it, blocked transactions are
// deterministically retried or parked, frozen ones are watchdog-aborted —
// and after the final rejoin a replay told the same membership schedule
// reproduces the same placements, state and commit/abort counts.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/invariant_monitor.h"
#include "migration/provisioning.h"
#include "obs/trace.h"
#include "workload/client.h"
#include "workload/scenarios.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultPlanConfig;
using fault::InvariantMonitor;
using fault::RangeMapFactory;

/// The lowest key the record table shows in flight, or kNoKey.
constexpr Key kNoKey = static_cast<Key>(-1);
Key LowestInFlightKey(const storage::RecordTable& table) {
  for (Key k = 0; k < table.num_keys(); ++k) {
    if (table.in_flight_to(k) != kInvalidNode) return k;
  }
  return kNoKey;
}

TEST(DegradedModeTest, ClusterStaysAvailableDuringNoStallOutage) {
  const ClusterConfig config = workload::Registered("degraded_retry").config;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  workload::Scenario outage = workload::Registered("degraded_retry");
  outage.plan_seed = 7;
  const FaultPlan plan = outage.Plan();
  FaultInjector injector(&cluster, plan, RangeMapFactory(config));
  InvariantMonitor monitor;
  injector.set_monitor(&monitor);

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 1234;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 12, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(300));
  driver.Start();

  const SimTime crash_at = plan.events[0].at;
  injector.RunUntil(crash_at + MsToSim(1));
  // Mid-outage: intake never paused, membership knows who is down.
  ASSERT_FALSE(cluster.intake_paused());
  ASSERT_TRUE(cluster.membership().any_down());
  const uint64_t commits_mid_outage = cluster.metrics().total_commits();

  injector.RunUntil(crash_at + MsToSim(20));
  // The surviving nodes kept committing while the victim was down.
  EXPECT_GT(cluster.metrics().total_commits(), commits_mid_outage);
  ASSERT_FALSE(cluster.intake_paused());

  injector.RunUntil(MsToSim(300));
  injector.Drain();

  ASSERT_EQ(injector.recoveries().size(), 1u);
  const fault::RecoveryStats& rec = injector.recoveries()[0];
  EXPECT_TRUE(rec.no_stall);
  EXPECT_EQ(rec.stall_us(), 0u) << "degraded mode must not stall intake";
  EXPECT_GT(rec.time_to_recover_us(), 0u);
  EXPECT_GT(rec.replayed_batches, 0u);
  EXPECT_FALSE(cluster.membership().any_down());
  EXPECT_EQ(cluster.parked_count(), 0u);

  monitor.CheckQuiescent(cluster, RangeMapFactory(config), "final");
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

TEST(DegradedModeTest, BlockedTransactionsRetryThenCommitAfterRejoin) {
  // Every submission eventually resolves: blocked ones either commit via
  // a deterministic retry or come back as an UNAVAILABLE abort — nothing
  // hangs and nothing is silently dropped.
  const ClusterConfig config = workload::Registered("degraded_retry").config;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  cluster.CrashNoStall(2);
  uint64_t resolved = 0, aborted = 0;
  // Node 2 owns [4000, 6000) under the range map: these hit the outage.
  for (int i = 0; i < 10; ++i) {
    TxnRequest txn;
    txn.write_set = {static_cast<Key>(4000 + i)};
    cluster.Submit(txn, [&](const engine::TxnResult& r) {
      ++resolved;
      if (r.aborted) ++aborted;
    });
  }
  cluster.RunUntil(MsToSim(60));  // outage outlives every retry slot
  EXPECT_GT(cluster.degraded_ledger().retries_scheduled(), 0u);
  EXPECT_EQ(cluster.degraded_ledger().unavailable_aborts(), 10u)
      << cluster.DegradedDebugString();
  EXPECT_EQ(resolved, 10u);
  EXPECT_EQ(aborted, 10u);

  // A short second wave rejoins before the retries exhaust: they commit.
  cluster.RejoinNoStall(2);
  cluster.RunUntil(MsToSim(62));
  cluster.CrashNoStall(2);
  resolved = aborted = 0;
  for (int i = 0; i < 10; ++i) {
    TxnRequest txn;
    txn.write_set = {static_cast<Key>(4100 + i)};
    cluster.Submit(txn, [&](const engine::TxnResult& r) {
      ++resolved;
      if (r.aborted) ++aborted;
    });
  }
  cluster.RunUntil(MsToSim(65));
  cluster.RejoinNoStall(2);
  cluster.Drain();
  EXPECT_EQ(resolved, 10u);
  EXPECT_EQ(aborted, 0u) << cluster.DegradedDebugString();

  InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                     "final"))
      << monitor.FailureReport();
}

TEST(DegradedModeTest, ChunkMigrationTowardDeadNodeParksUntilRejoin) {
  // A consolidation is cut short by a crash: chunks whose target (or
  // source range) is down park in FIFO order and resume at rejoin; the
  // drain still completes and every record lands where ownership says.
  const ClusterConfig config = workload::Registered("degraded_retry").config;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  cluster.CrashNoStall(1);
  // Chunks toward the dead node: classified blocked pre-routing, parked.
  cluster.SubmitMigrationPlan({{100, 899, 1}});
  cluster.RunUntil(MsToSim(20));
  EXPECT_GT(cluster.parked_count(), 0u) << cluster.DegradedDebugString();
  EXPECT_GT(cluster.degraded_ledger().parked_total(), 0u);
  const std::string debug = cluster.DegradedDebugString();
  EXPECT_NE(debug.find("parked txn="), std::string::npos) << debug;
  EXPECT_NE(debug.find("membership epoch="), std::string::npos) << debug;

  cluster.RejoinNoStall(1);
  cluster.Drain();
  EXPECT_EQ(cluster.parked_count(), 0u);
  for (Key k = 100; k <= 899; ++k) {
    ASSERT_TRUE(cluster.node(1).store().Contains(k))
        << "chunk key " << k << " never reached its migration target";
  }

  InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                     "final"))
      << monitor.FailureReport();
}

TEST(DegradedModeTest, CrashMidConsolidationParksRemainingChunks) {
  // The inverse interleaving: the consolidation starts first, the crash
  // lands while its chunk stream is mid-flight (satellite: chaos plans
  // with crash mid-consolidation — this is the deterministic unit case).
  const ClusterConfig config = workload::Registered("degraded_retry").config;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 77;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 8, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(120));
  driver.Start();

  cluster.RunUntil(MsToSim(10));
  const auto plan = migration::PlanDrainNode(
      cluster.ownership(), config.num_records, /*leaving=*/3, {0, 1, 2});
  cluster.RemoveNode(3, plan, /*migrate_cold=*/true);
  cluster.RunUntil(MsToSim(12));
  cluster.CrashNoStall(0);  // a chunk target dies mid-stream
  cluster.RunUntil(MsToSim(60));
  cluster.RejoinNoStall(0);
  cluster.RunUntil(MsToSim(120));
  cluster.Drain();

  // The consolidation finished despite the outage.
  EXPECT_EQ(cluster.node(3).store().size(), 0u);
  EXPECT_EQ(cluster.parked_count(), 0u) << cluster.DegradedDebugString();

  InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                     "final"))
      << monitor.FailureReport();
}

TEST(DegradedModeTest, LockGrantedAtDeadNodeIsReleasedByCommitAndAbort) {
  // Three writers of one key queue on its owner's lock. The owner dies
  // while the first executes: a started master still commits, and its
  // release grants the lock to the second at the dead node, which freezes
  // there ungranted. The watchdog aborts the second; that release grants
  // the lock to the third, again at the dead node, and the next sweep
  // aborts it. Both releases free the lock, so after the rejoin the two
  // retries commit and the node's lock table is empty.
  const ClusterConfig config = workload::Registered("degraded_retry").config;
  Cluster cluster(config, RouterKind::kCalvin, RangeMapFactory(config)());
  cluster.Load();
  constexpr NodeId kOwner = 2;  // owns [4000, 6000) under the range map
  std::vector<bool> aborted;
  for (int i = 0; i < 3; ++i) {
    TxnRequest txn;
    txn.write_set = {4500};
    cluster.Submit(txn, [&aborted](const engine::TxnResult& r) {
      aborted.push_back(r.aborted);
    });
  }
  SimTime t = 0;
  while (cluster.executor().inflight() < 3) {
    ASSERT_LT(t, MsToSim(50)) << "the three writers were never dispatched";
    cluster.RunUntil(++t);
  }
  cluster.CrashNoStall(kOwner);
  cluster.RunUntil(t + engine::kWatchdogDeadlineUs +
                   engine::kWatchdogPeriodUs + MsToSim(1));
  EXPECT_EQ(cluster.executor().committed(), 1u);
  EXPECT_EQ(cluster.degraded_ledger().watchdog_aborts(), 2u)
      << cluster.executor().DebugString();

  cluster.RejoinNoStall(kOwner);
  cluster.Drain();
  EXPECT_EQ(aborted, (std::vector<bool>{false, false, false}))
      << cluster.DegradedDebugString();
  EXPECT_EQ(cluster.executor().inflight(), 0u);
  EXPECT_EQ(cluster.node(kOwner).locks().num_txns(), 0u);

  InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                     "final"))
      << monitor.FailureReport();
}

TEST(DegradedModeTest, AcknowledgedEvictionStalledAtDeadNodeResumesAtRejoin) {
  // With room for one fused key, a transaction that fuses a second key
  // evicts the first: its plan ships that record home from the node it
  // was fused to, a participant the master does not wait for. That node
  // dies before it ships, so the transaction commits and is acknowledged
  // while its send step stays stalled at the dead node (the watchdog never
  // aborts an acknowledged transaction). The rejoin resumes the step, and
  // the record lands at its planned owner.
  ClusterConfig config = workload::Registered("degraded_retry").config;
  config.hermes.fusion_table_capacity = 1;
  config.obs.trace_enabled = true;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();
  const partition::OwnershipMap& owners = cluster.ownership();

  TxnRequest fuse;
  fuse.write_set = {2500, 4500};  // homes: node 1 and node 2
  cluster.Submit(fuse, [](const engine::TxnResult&) {});
  cluster.Drain();
  const Key fused = owners.Owner(2500) != owners.Home(2500) ? 2500 : 4500;
  const NodeId holder = owners.Owner(fused);
  const NodeId home = owners.Home(fused);
  ASSERT_NE(holder, home) << "the first transaction fused no key";

  TxnRequest evict;
  evict.write_set = {500, 6500};  // homes: node 0 and node 3
  TxnId evict_id = kInvalidTxn;
  bool committed = false;
  cluster.Submit(evict, [&](const engine::TxnResult& r) {
    evict_id = r.id;
    committed = !r.aborted;
  });
  SimTime t = cluster.Now();
  while (cluster.executor().inflight() == 0) {
    ASSERT_LT(t, MsToSim(100)) << "the evicting transaction never dispatched";
    cluster.RunUntil(++t);
  }
  ASSERT_EQ(owners.Owner(fused), home) << "no eviction was planned";
  cluster.CrashNoStall(holder);
  cluster.RunUntil(t + MsToSim(10));
  EXPECT_TRUE(committed);
  EXPECT_EQ(cluster.executor().inflight(), 1u);
  EXPECT_EQ(cluster.record_table().location(fused), holder);
  const std::string frozen = cluster.executor().DebugString();
  EXPECT_NE(frozen.find("FROZEN stalled=1"), std::string::npos) << frozen;

  cluster.RejoinNoStall(holder);
  cluster.Drain();
  EXPECT_EQ(cluster.executor().inflight(), 0u);
  EXPECT_EQ(cluster.executor().pending_countdowns(), 0u);
  EXPECT_EQ(cluster.record_table().location(fused), home);
  EXPECT_EQ(owners.Owner(fused), home);
  size_t resumes = 0;
  const obs::TraceRing& ring =
      cluster.tracer().ring(static_cast<size_t>(holder) + 1);
  for (const obs::TraceEvent& e : ring.InOrder()) {
    if (e.kind != obs::EventKind::kTxnResume) continue;
    ++resumes;
    EXPECT_EQ(e.txn, evict_id);
    EXPECT_EQ(e.arg, 1u) << "one stalled step";
  }
  EXPECT_EQ(resumes, 1u);

  InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                     "final"))
      << monitor.FailureReport();
}

/// What CrashShippedRecordDestination observed.
struct VictimRun {
  Key key = kNoKey;  ///< the lowest in-flight key when the victim died
  NodeId victim = kInvalidNode;
  NodeId in_flight_to_before_rejoin = kInvalidNode;
  NodeId location_after_rejoin = kInvalidNode;
  std::string debug_before_rejoin;
  uint64_t reclaims = 0;
};

/// Steps a skewed YCSB run until a record is mid-wire, crashes (no-stall)
/// the destination of the lowest in-flight key, and rejoins it
/// `outage_us` later. Record singularity runs on `monitor` throughout, and
/// the quiescent check at the drained end.
VictimRun CrashShippedRecordDestination(SimTime outage_us,
                                        InvariantMonitor* monitor) {
  const ClusterConfig config = workload::Registered("degraded_retry").config;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 808;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 12, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(150));
  driver.Start();

  VictimRun run;
  const storage::RecordTable& table = cluster.record_table();
  for (SimTime t = 100; t <= MsToSim(100) && run.key == kNoKey; t += 100) {
    cluster.RunUntil(t);
    run.key = LowestInFlightKey(table);
  }
  if (run.key == kNoKey) return run;
  run.victim = table.in_flight_to(run.key);
  cluster.CrashNoStall(run.victim);

  monitor->CheckRecordSingularity(cluster, "mid-outage");
  cluster.RunUntil(cluster.Now() + outage_us);
  monitor->CheckRecordSingularity(cluster, "before rejoin");
  run.in_flight_to_before_rejoin = table.in_flight_to(run.key);
  run.debug_before_rejoin = cluster.executor().DebugString();

  cluster.RejoinNoStall(run.victim);
  run.location_after_rejoin = table.location(run.key);
  monitor->CheckRecordSingularity(cluster, "rejoined");
  cluster.RunUntil(MsToSim(150));
  cluster.Drain();
  run.reclaims = cluster.degraded_ledger().reclaims();
  monitor->CheckQuiescent(cluster, RangeMapFactory(config), "final");
  return run;
}

TEST(DegradedModeTest, ShippedRecordTowardVictimIsReclaimed) {
  // A record shipped toward the victim before the crash is suppressed on
  // delivery and reclaimed by the source after the deterministic
  // timeout — record singularity holds throughout.
  InvariantMonitor monitor;
  const VictimRun run = CrashShippedRecordDestination(
      engine::kReclaimTimeoutUs * 4, &monitor);
  ASSERT_NE(run.key, kNoKey) << "no record was ever mid-wire";
  EXPECT_GT(run.reclaims, 0u);
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

TEST(DegradedModeTest, ShippedRecordTowardVictimLandsWhenItRejoinsFirst) {
  // The victim rejoins before kReclaimTimeoutUs: the suppressed shipment
  // stays in flight toward it, and the rejoin flush lands the record at
  // its destination, so no reclaim ever fires.
  InvariantMonitor monitor;
  const VictimRun run = CrashShippedRecordDestination(
      engine::kReclaimTimeoutUs / 2, &monitor);
  ASSERT_NE(run.key, kNoKey) << "no record was ever mid-wire";
  EXPECT_EQ(run.in_flight_to_before_rejoin, run.victim);
  EXPECT_NE(run.debug_before_rejoin.find("SUPPRESSED"), std::string::npos)
      << run.debug_before_rejoin;
  EXPECT_EQ(run.location_after_rejoin, run.victim)
      << "the rejoin flush lands it";
  EXPECT_EQ(run.reclaims, 0u);
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

TEST(DegradedModeTest, DebugStringsExposeDegradedState) {
  // Satellite: HERMES_TRACE_KEY / DebugString extensions. The degraded
  // rendering lists the retry transcript and frozen/suppressed state in
  // total order.
  const ClusterConfig config = workload::Registered("degraded_retry").config;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  cluster.CrashNoStall(2);
  TxnRequest txn;
  txn.write_set = {4500};  // owned by the dead node
  uint64_t resolved = 0;
  cluster.Submit(txn, [&resolved](const engine::TxnResult&) { ++resolved; });
  cluster.RunUntil(MsToSim(5));

  const std::string debug = cluster.DegradedDebugString();
  EXPECT_NE(debug.find("membership epoch=1"), std::string::npos) << debug;
  EXPECT_NE(debug.find("down=[2]"), std::string::npos) << debug;
  EXPECT_NE(debug.find("degraded:"), std::string::npos) << debug;
  EXPECT_NE(debug.find("retry"), std::string::npos) << debug;

  cluster.RejoinNoStall(2);
  cluster.Drain();
  EXPECT_EQ(resolved, 1u);
  EXPECT_NE(cluster.DegradedDebugString().find("down=[]"), std::string::npos);
}

TEST(DegradedModeTest, DeferredCheckpointRefreshShortensNextReplay) {
  // Satellite: a no-stall rejoin happens under load with no quiescent
  // point; the injector arms a deferred refresh and takes it at the next
  // quiescent window, so a second outage replays a short suffix.
  const ClusterConfig config = workload::Registered("degraded_retry").config;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  FaultPlanConfig pc;
  pc.horizon_us = MsToSim(500);
  pc.num_nodes = config.num_nodes;
  pc.crash_cycles = 2;
  pc.min_outage_us = MsToSim(20);
  pc.max_outage_us = MsToSim(60);
  pc.no_stall = true;
  const FaultPlan plan = FaultPlan::Generate(pc, 21);
  FaultInjector injector(&cluster, plan, RangeMapFactory(config));
  InvariantMonitor monitor;
  injector.set_monitor(&monitor);

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 4242;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 12, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(400));
  driver.Start();

  injector.RunUntil(MsToSim(500));
  injector.Drain();

  ASSERT_EQ(injector.recoveries().size(), 2u);
  EXPECT_GE(injector.checkpoint_refreshes(), 1)
      << "the deferred refresh never fired";
  EXPECT_FALSE(injector.refresh_pending());
  EXPECT_GT(injector.baseline_next_batch(), 0u);
  // The refresh between the cycles means the second replay covers only
  // the suffix sequenced since — not the whole history.
  EXPECT_LT(injector.recoveries()[1].replayed_batches,
            cluster.command_log().size());
  monitor.CheckQuiescent(cluster, RangeMapFactory(config), "final");
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

}  // namespace
}  // namespace hermes
