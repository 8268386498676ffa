// Fault-injection integration tests: seeded crash/rejoin cycles and link
// chaos, with the invariant monitor's quiescent check (command-log replay
// included) asserting nothing was lost or invented. Mid-flight failover to
// a standby is a command-log replay; replication_test covers it.

#include <string>

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/invariant_monitor.h"
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

ClusterConfig ChaosClusterConfig() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 8'000;
  config.hermes.fusion_table_capacity = 300;
  return config;
}

TEST(FaultInjectionTest, CrashRejoinRebuildsExactState) {
  // A stall-mode crash/rejoin cycle; RunScenario ends with the quiescent
  // check.
  const workload::DrainedRun run = workload::RunScenario(workload::MustParse(
      "degraded_retry clients=12 ycsb.seed=1234 faults.min_outage_us=20ms "
      "faults.no_stall=0 plan_seed=7"));
  EXPECT_GT(run.cluster->metrics().total_commits(), 100u);
  ASSERT_EQ(run.recoveries.size(), 1u);
  const fault::RecoveryStats& rec = run.recoveries[0];
  EXPECT_GE(rec.drained_at, rec.crash_at);
  EXPECT_GE(rec.rejoin_at, rec.drained_at);
  EXPECT_GE(rec.resumed_at, rec.rejoin_at);
  EXPECT_GT(rec.replay_us, 0u) << "the rebuild should cost virtual time";
  EXPECT_GT(rec.replayed_batches, 0u);
  EXPECT_TRUE(run.monitors_ok) << run.report;
}

TEST(FaultInjectionTest, ServiceContinuesAfterRejoin) {
  // Work submitted DURING the outage parks at the paused sequencer and
  // commits after recovery — nothing accepted is dropped.
  const ClusterConfig config = ChaosClusterConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  FaultPlanConfig pc;
  pc.horizon_us = MsToSim(200);
  pc.num_nodes = config.num_nodes;
  pc.crash_cycles = 1;
  pc.min_outage_us = MsToSim(40);
  pc.max_outage_us = MsToSim(60);
  const FaultPlan plan = FaultPlan::Generate(pc, 3);
  FaultInjector injector(&cluster, plan, RangeMapFactory(config));

  const SimTime crash_at = plan.events[0].at;
  injector.RunUntil(crash_at + MsToSim(1));  // mid-outage
  ASSERT_TRUE(cluster.intake_paused());

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 99;
  workload::YcsbWorkload gen(wl, nullptr);
  uint64_t committed = 0;
  for (int i = 0; i < 20; ++i) {
    cluster.Submit(gen.Next(cluster.Now()),
                   [&committed](const engine::TxnResult&) { ++committed; });
  }
  injector.RunUntil(pc.horizon_us);
  injector.Drain();
  EXPECT_FALSE(cluster.intake_paused());
  EXPECT_EQ(committed, 20u);
}

TEST(FaultInjectionTest, LinkChaosPreservesOracleEquality) {
  const workload::DrainedRun run = workload::RunScenario(workload::MustParse(
      "degraded_retry clients=12 horizon=250ms ycsb.seed=555 "
      "faults.crash_cycles=0 faults.link.drop_prob=0.05 "
      "faults.link.duplicate_prob=0.03 faults.link.max_jitter_us=400us "
      "plan_seed=11"));
  const net::Wire& wire = run.cluster->wire();
  EXPECT_GT(run.cluster->metrics().total_commits(), 100u);
  EXPECT_GT(wire.messages_dropped(), 0u);
  EXPECT_GT(wire.messages_duplicated(), 0u);
  // Dropped attempts cost the sender bytes that never arrive; duplicates
  // cost both sides. Either way sent != received under chaos.
  EXPECT_NE(wire.total_bytes(), wire.total_bytes_received());
  EXPECT_TRUE(run.monitors_ok) << run.report;
}

TEST(FaultInjectionTest, CheckpointRefreshShortensSecondReplay) {
  const ClusterConfig config = ChaosClusterConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  FaultPlanConfig pc;
  pc.horizon_us = MsToSim(500);
  pc.num_nodes = config.num_nodes;
  pc.crash_cycles = 2;
  pc.min_outage_us = MsToSim(20);
  pc.max_outage_us = MsToSim(60);
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
  driver.set_stop_time(pc.horizon_us);
  driver.Start();

  injector.RunUntil(pc.horizon_us);
  injector.Drain();

  ASSERT_EQ(injector.recoveries().size(), 2u);
  // The first rejoin refreshed the checkpoint, so the second replay only
  // covers batches sequenced since — not the whole history.
  EXPECT_LT(injector.recoveries()[1].replayed_batches,
            cluster.command_log().size());
  monitor.CheckQuiescent(cluster, RangeMapFactory(config), "final");
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

TEST(FaultInjectionTest, ShippedRecordsAppearInExecutorDebugString) {
  // TxnExecutor::DebugString lists shipped-but-undelivered records with
  // their destination nodes. Step the simulation in small increments until
  // a migration is mid-wire (the lowest in-flight key) and check both the
  // record table and the rendering.
  const ClusterConfig config = ChaosClusterConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 808;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 12, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(200));
  driver.Start();

  const storage::RecordTable& table = cluster.record_table();
  auto lowest_in_flight = [&table]() {
    for (Key k = 0; k < table.num_keys(); ++k) {
      if (table.in_flight_to(k) != kInvalidNode) return k;
    }
    return static_cast<Key>(-1);
  };
  bool seen = false;
  for (SimTime t = 100; t <= MsToSim(200) && !seen; t += 100) {
    cluster.RunUntil(t);
    const Key key = lowest_in_flight();
    if (key == static_cast<Key>(-1)) continue;
    seen = true;
    const NodeId to = table.in_flight_to(key);
    EXPECT_GE(to, 0);
    EXPECT_LT(to, cluster.num_nodes());
    EXPECT_EQ(table.location(key), kInvalidNode);
    for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
      EXPECT_FALSE(cluster.node(n).store().Contains(key))
          << "in-flight record present at node " << n;
    }
    const std::string debug = cluster.executor().DebugString();
    EXPECT_NE(debug.find("in flight: key=" + std::to_string(key) +
                         " -> node " + std::to_string(to)),
              std::string::npos)
        << debug;
  }
  EXPECT_TRUE(seen) << "the skewed YCSB run never had a record mid-wire";
  cluster.Drain();
  EXPECT_EQ(lowest_in_flight(), static_cast<Key>(-1));
}

// The monitors catch what they check for: on a drained cluster, a record
// extracted from its store behind the executor's back is located nowhere
// and not in flight, so singularity and the quiescent check both name the
// key, and the replay, which still holds the record, disagrees on state.
TEST(FaultInjectionTest, MonitorsReportARecordExtractedBehindTheExecutor) {
  const ClusterConfig config = ChaosClusterConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 99;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 8, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(50));
  driver.Start();
  cluster.RunUntil(MsToSim(50));
  cluster.Drain();
  ASSERT_GT(cluster.metrics().total_commits(), 0u);

  InvariantMonitor monitor;
  ASSERT_TRUE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                     "drained"))
      << monitor.FailureReport();

  const Key victim = 4321;
  const NodeId at = cluster.record_table().location(victim);
  ASSERT_NE(at, kInvalidNode);
  ASSERT_TRUE(cluster.node(at).store().Extract(victim).has_value());

  EXPECT_FALSE(monitor.CheckRecordSingularity(cluster, "extracted"));
  EXPECT_FALSE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                      "extracted"));
  EXPECT_EQ(monitor.FailureReport(),
            "[extracted] singularity: key 4321 absent everywhere and not in "
            "flight\n"
            "[extracted] key 4321 is on no node at quiescence (lost record)\n"
            "[extracted] state checksum diverged: live=288c6788f7f69003 "
            "replay=94419a1461571894 (a committed write was lost or "
            "invented)\n");
}

}  // namespace
}  // namespace hermes
