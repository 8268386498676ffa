// Degraded-mode (kCrashNoStall) tests: the cluster keeps sequencing while
// a node is down — new batches route around it, blocked transactions are
// deterministically retried or parked, frozen ones are watchdog-aborted —
// and after the final rejoin a replay told the same membership schedule
// reproduces the same placements, state and commit/abort counts.

#include <string>

#include <gtest/gtest.h>

#include "digest_oracle.h"
#include "engine/cluster.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/invariant_monitor.h"
#include "migration/provisioning.h"
#include "workload/client.h"
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

TEST(DegradedModeTest, ClusterStaysAvailableDuringNoStallOutage) {
  const ClusterConfig config = oracle::DegradedConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  const FaultPlan plan = oracle::NoStallPlan(config, 7);
  FaultInjector injector(&cluster, plan, RangeMapFactory(config));
  InvariantMonitor monitor(config.num_records);
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

  EXPECT_TRUE(monitor.CheckRecordSingularity(cluster, "final"));
  EXPECT_TRUE(monitor.CheckNoLostRecords(cluster, "final"));
  // injector.Drain() already ran the degraded oracle; run it again
  // explicitly so a failure points here.
  EXPECT_TRUE(monitor.CheckDegradedOracle(cluster, RouterKind::kHermes,
                                          RangeMapFactory(config), "final"));
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

TEST(DegradedModeTest, BlockedTransactionsRetryThenCommitAfterRejoin) {
  // Every submission eventually resolves: blocked ones either commit via
  // a deterministic retry or come back as an UNAVAILABLE abort — nothing
  // hangs and nothing is silently dropped.
  const ClusterConfig config = oracle::DegradedConfig();
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

  InvariantMonitor monitor(config.num_records);
  EXPECT_TRUE(monitor.CheckNoLostRecords(cluster, "final"));
  EXPECT_TRUE(monitor.CheckDegradedOracle(cluster, RouterKind::kHermes,
                                          RangeMapFactory(config), "final"));
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

TEST(DegradedModeTest, ChunkMigrationTowardDeadNodeParksUntilRejoin) {
  // A consolidation is cut short by a crash: chunks whose target (or
  // source range) is down park in FIFO order and resume at rejoin; the
  // drain still completes and every record lands where ownership says.
  const ClusterConfig config = oracle::DegradedConfig();
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

  InvariantMonitor monitor(config.num_records);
  EXPECT_TRUE(monitor.CheckNoLostRecords(cluster, "final"));
  EXPECT_TRUE(monitor.CheckDegradedOracle(cluster, RouterKind::kHermes,
                                          RangeMapFactory(config), "final"));
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

TEST(DegradedModeTest, CrashMidConsolidationParksRemainingChunks) {
  // The inverse interleaving: the consolidation starts first, the crash
  // lands while its chunk stream is mid-flight (satellite: chaos plans
  // with crash mid-consolidation — this is the deterministic unit case).
  const ClusterConfig config = oracle::DegradedConfig();
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

  InvariantMonitor monitor(config.num_records);
  EXPECT_TRUE(monitor.CheckRecordSingularity(cluster, "final"));
  EXPECT_TRUE(monitor.CheckDegradedOracle(cluster, RouterKind::kHermes,
                                          RangeMapFactory(config), "final"));
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

TEST(DegradedModeTest, InFlightRecordTowardVictimIsReclaimed) {
  // A record extracted toward the victim before the crash is suppressed
  // on delivery and reclaimed by the source after the deterministic
  // timeout — record singularity holds throughout.
  const ClusterConfig config = oracle::DegradedConfig();
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

  // Step until a record is mid-wire, then kill its destination.
  NodeId victim = kInvalidNode;
  for (SimTime t = 100; t <= MsToSim(100) && victim == kInvalidNode;
       t += 100) {
    cluster.RunUntil(t);
    if (cluster.executor().inflight_records().empty()) continue;
    victim = cluster.executor().inflight_records().begin()->second.to;
  }
  ASSERT_NE(victim, kInvalidNode) << "no record was ever mid-wire";
  cluster.CrashNoStall(victim);

  InvariantMonitor monitor(config.num_records);
  EXPECT_TRUE(monitor.CheckRecordSingularity(cluster, "mid-outage"));
  cluster.RunUntil(cluster.Now() +
                   config.degraded.reclaim_timeout_us * 4);
  EXPECT_TRUE(monitor.CheckRecordSingularity(cluster, "post-reclaim"));

  cluster.RejoinNoStall(victim);
  cluster.RunUntil(MsToSim(150));
  cluster.Drain();
  EXPECT_TRUE(monitor.CheckNoLostRecords(cluster, "final"));
  EXPECT_TRUE(monitor.CheckDegradedOracle(cluster, RouterKind::kHermes,
                                          RangeMapFactory(config), "final"));
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

TEST(DegradedModeTest, DebugStringsExposeDegradedState) {
  // Satellite: HERMES_TRACE_KEY / DebugString extensions. The degraded
  // rendering lists the retry transcript and frozen/suppressed state in
  // total order.
  const ClusterConfig config = oracle::DegradedConfig();
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
  const ClusterConfig config = oracle::DegradedConfig();
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
  InvariantMonitor monitor(config.num_records);
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
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

}  // namespace
}  // namespace hermes
