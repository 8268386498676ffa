// Fault-injection integration tests: seeded crash/rejoin cycles, link
// chaos, and mid-flight replica failover, with the invariant monitor and
// the fault-free oracle asserting nothing was lost or invented.

#include <string>

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "engine/replication.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/invariant_monitor.h"
#include "workload/client.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::ReplicaGroup;
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
  const ClusterConfig config = ChaosClusterConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  FaultPlanConfig pc;
  pc.horizon_us = MsToSim(300);
  pc.num_nodes = config.num_nodes;
  pc.crash_cycles = 1;
  pc.min_outage_us = MsToSim(20);
  pc.max_outage_us = MsToSim(80);
  const FaultPlan plan = FaultPlan::Generate(pc, 7);

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
  driver.set_stop_time(pc.horizon_us);
  driver.Start();

  injector.RunUntil(pc.horizon_us);
  injector.Drain();

  EXPECT_GT(cluster.metrics().total_commits(), 100u);
  ASSERT_EQ(injector.recoveries().size(), 1u);
  const fault::RecoveryStats& rec = injector.recoveries()[0];
  EXPECT_GE(rec.drained_at, rec.crash_at);
  EXPECT_GE(rec.rejoin_at, rec.drained_at);
  EXPECT_GE(rec.resumed_at, rec.rejoin_at);
  EXPECT_GT(rec.replay_us, 0u) << "the rebuild should cost virtual time";
  EXPECT_GT(rec.replayed_batches, 0u);

  EXPECT_TRUE(monitor.CheckNoLostRecords(cluster, "final"));
  EXPECT_TRUE(monitor.CheckAgainstOracle(cluster, RouterKind::kHermes,
                                         RangeMapFactory(config), "final"));
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
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
  const ClusterConfig config = ChaosClusterConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  FaultPlanConfig pc;
  pc.horizon_us = MsToSim(250);
  pc.num_nodes = config.num_nodes;
  pc.crash_cycles = 0;
  pc.link.drop_prob = 0.05;
  pc.link.duplicate_prob = 0.03;
  pc.link.max_jitter_us = 400;
  const FaultPlan plan = FaultPlan::Generate(pc, 11);
  FaultInjector injector(&cluster, plan, RangeMapFactory(config));

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 555;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 12, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(pc.horizon_us);
  driver.Start();

  injector.RunUntil(pc.horizon_us);
  injector.Drain();

  EXPECT_GT(cluster.metrics().total_commits(), 100u);
  EXPECT_GT(cluster.network().messages_dropped(), 0u);
  EXPECT_GT(cluster.network().messages_duplicated(), 0u);
  // Dropped attempts cost the sender bytes that never arrive; duplicates
  // cost both sides. Either way sent != received under chaos.
  EXPECT_NE(cluster.network().total_bytes(),
            cluster.network().total_bytes_received());

  InvariantMonitor monitor(config.num_records);
  EXPECT_TRUE(monitor.CheckRecordSingularity(cluster, "final"));
  EXPECT_TRUE(monitor.CheckNoLostRecords(cluster, "final"));
  EXPECT_TRUE(monitor.CheckAgainstOracle(cluster, RouterKind::kHermes,
                                         RangeMapFactory(config), "final"));
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
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
  InvariantMonitor monitor(config.num_records);
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
  EXPECT_TRUE(monitor.CheckAgainstOracle(cluster, RouterKind::kHermes,
                                         RangeMapFactory(config), "final"));
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

TEST(FaultInjectionTest, MidFlightFailoverKeepsReplicasConsistent) {
  const ClusterConfig config = ChaosClusterConfig();
  const int replicas = 3;
  ReplicaGroup group(config, RouterKind::kHermes, RangeMapFactory(config),
                     replicas);
  group.Load();

  // Hand-built plan: the primary dies at t=22ms — 1.6ms after a large
  // burst is sequenced (epoch cut at 20ms + 400us total order), while the
  // batch is still mid-pipeline (routing, logging, execution).
  FaultPlan plan;
  plan.seed = 17;
  plan.events.push_back(
      {MsToSim(22), fault::FaultEvent::Kind::kFailover, kInvalidNode});
  FaultInjector injector(&group, plan);

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 31337;
  workload::YcsbWorkload gen(wl, nullptr);
  injector.RunUntil(MsToSim(19));
  for (int i = 0; i < 400; ++i) group.Submit(gen.Next(MsToSim(19)));

  injector.RunUntil(MsToSim(100));
  ASSERT_EQ(injector.failovers_applied(), 1);
  EXPECT_EQ(group.primary_index(), 1);
  // The old primary really died mid-batch: it is frozen with work it
  // never finished (its commit counter stopped short of the burst).
  EXPECT_LT(group.replica(0).metrics().total_commits(), 400u);

  // Service continues on the promoted standby.
  uint64_t committed = 0;
  for (int i = 0; i < 30; ++i) {
    group.Submit(gen.Next(group.replica(1).Now()),
                 [&committed](const engine::TxnResult&) { ++committed; });
  }
  injector.Drain();
  EXPECT_EQ(committed, 30u);
  // Every sequenced transaction reached the standby through the tap
  // before the primary died, so none of the 400 is lost.
  EXPECT_EQ(group.replica(1).metrics().total_commits(), 430u);

  InvariantMonitor monitor(config.num_records);
  EXPECT_TRUE(monitor.CheckReplicaChecksums(group, "final"))
      << monitor.FailureReport();
}

TEST(FaultInjectionTest, InFlightRecordsAppearInExecutorDebugString) {
  // Satellite: TxnExecutor::DebugString lists extracted-but-undelivered
  // records with their source and destination nodes. Step the simulation
  // in small increments until a migration is mid-wire and check both the
  // table and its rendering.
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

  bool seen = false;
  for (SimTime t = 100; t <= MsToSim(200) && !seen; t += 100) {
    cluster.RunUntil(t);
    if (cluster.executor().inflight_records().empty()) continue;
    seen = true;
    const auto& [key, rec] = *cluster.executor().inflight_records().begin();
    EXPECT_NE(rec.from, rec.to);
    EXPECT_FALSE(cluster.node(rec.from).store().Contains(key))
        << "in-flight record still present at its source";
    const std::string debug = cluster.executor().DebugString();
    EXPECT_NE(debug.find("in flight: key="), std::string::npos) << debug;
  }
  EXPECT_TRUE(seen) << "the skewed YCSB run never had a record mid-wire";
  cluster.Drain();
  EXPECT_TRUE(cluster.executor().inflight_records().empty());
}

}  // namespace
}  // namespace hermes
