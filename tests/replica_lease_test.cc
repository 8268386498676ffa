// Replica-lease tests (DESIGN.md §5 "Replica leases"): the lease table
// grants deterministic read leases to remote-read-hot keys, the lease
// manager's copies stay coherent with their primaries, and a crashed
// holder deterministically lapses every lease. The cross-salt digest
// oracle is the digest oracle's `replication` row. Also hosts the Drain()
// footgun regression: draining with a node still down never terminates
// (the watchdog keeps rescheduling), so rejoin first; the stuck state is
// visible in DegradedDebugString().

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hermes_router.h"
#include "digest_oracle.h"
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

const uint64_t kRecords = oracle::LeaseConfig().num_records;
const int kNodes = oracle::LeaseConfig().num_nodes;

const core::HermesRouter& Router(Cluster& cluster) {
  return *static_cast<const core::HermesRouter*>(&cluster.router());
}

void DriveReadHeavy(Cluster& cluster, double write_fraction, SimTime horizon,
                    int clients = 24, uint64_t seed = 11) {
  workload::YcsbConfig wl =
      workload::ReadHeavySkewedYcsb(kRecords, kNodes, write_fraction, seed);
  workload::YcsbWorkload gen(wl, /*trace=*/nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, clients, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(horizon);
  driver.Start();
  cluster.RunUntil(horizon);
  cluster.Drain();
}

// A read-mostly skewed workload earns leases, absorbs remote reads into
// local copies, and quiesces with every copy bit-identical to its primary.
TEST(ReplicaLeaseTest, LeasesGrantAndAbsorbReads) {
  ClusterConfig config = oracle::LeaseConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();
  DriveReadHeavy(cluster, /*write_fraction=*/0.05, MsToSim(600));

  const auto& stats = Router(cluster).stats();
  const auto& lease_stats = Router(cluster).lease_table().stats();
  EXPECT_GT(cluster.metrics().total_commits(), 500u);
  EXPECT_GT(lease_stats.grants, 10u);
  EXPECT_GT(stats.replica_reads, 100u);
  EXPECT_GT(cluster.lease_manager().installs(), 0u);
  EXPECT_GT(cluster.lease_manager().num_copies(), 0u);

  InvariantMonitor monitor(kRecords);
  EXPECT_TRUE(monitor.CheckRecordSingularity(cluster, "read-heavy"));
  EXPECT_TRUE(monitor.CheckNoLostRecords(cluster, "read-heavy"));
  EXPECT_TRUE(monitor.CheckReplicaCoherence(cluster, "read-heavy"));
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

// The global read-mostly gate: a write-heavy workload grants nothing, so
// the replication-enabled run routes exactly like the disabled one.
TEST(ReplicaLeaseTest, WriteHeavyWorkloadGrantsNothing) {
  ClusterConfig on_config = oracle::LeaseConfig();
  Cluster on(on_config, RouterKind::kHermes, RangeMapFactory(on_config)());
  on.Load();
  DriveReadHeavy(on, /*write_fraction=*/0.6, MsToSim(400));

  EXPECT_EQ(Router(on).lease_table().stats().grants, 0u);
  EXPECT_EQ(Router(on).stats().replica_reads, 0u);
  EXPECT_EQ(on.lease_manager().num_copies(), 0u);

  ClusterConfig off_config = on_config;
  off_config.replication.enabled = false;
  Cluster off(off_config, RouterKind::kHermes, RangeMapFactory(off_config)());
  off.Load();
  DriveReadHeavy(off, /*write_fraction=*/0.6, MsToSim(400));

  EXPECT_EQ(on.decision_digest().value(), off.decision_digest().value());
  EXPECT_EQ(on.placement_digest().value(), off.placement_digest().value());
  EXPECT_EQ(on.StateChecksum(), off.StateChecksum());
}

// Satellite: the replica-coherence monitor. A clean quiesced run reports
// nothing; a deliberately corrupted copy is caught and named.
TEST(ReplicaLeaseTest, CoherenceMonitorCatchesCorruptedCopy) {
  ClusterConfig config = oracle::LeaseConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();
  DriveReadHeavy(cluster, /*write_fraction=*/0.05, MsToSim(400));

  const auto copies = cluster.lease_manager().SnapshotCopies();
  ASSERT_FALSE(copies.empty());

  InvariantMonitor clean(kRecords);
  EXPECT_TRUE(clean.CheckReplicaCoherence(cluster, "pre-corruption"));
  EXPECT_TRUE(clean.ok()) << clean.FailureReport();

  const auto& [node, key, record] = copies.front();
  (void)record;
  cluster.lease_manager().CorruptCopyForTest(node, key);

  InvariantMonitor corrupted(kRecords);
  EXPECT_FALSE(corrupted.CheckReplicaCoherence(cluster, "post-corruption"));
  ASSERT_FALSE(corrupted.failures().empty());
  EXPECT_NE(corrupted.failures().front().find("replica coherence"),
            std::string::npos)
      << corrupted.FailureReport();
}

// A crashed holder deterministically lapses every lease: engine copies
// clear at the crash itself, the router's table lapses at the next batch
// boundary (membership epoch moved), and no new lease starts while the
// node is down. After rejoin the table re-grants and the run quiesces
// coherent.
TEST(ReplicaLeaseTest, CrashedHolderLapsesLeases) {
  ClusterConfig config = oracle::LeaseConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  workload::YcsbConfig wl =
      workload::ReadHeavySkewedYcsb(kRecords, kNodes, 0.05, /*seed=*/13);
  workload::YcsbWorkload gen(wl, /*trace=*/nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 24, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(500));
  driver.Start();

  cluster.RunUntil(MsToSim(200));
  ASSERT_GT(Router(cluster).lease_table().num_leases(), 0u);
  ASSERT_GT(cluster.lease_manager().num_copies(), 0u);

  cluster.CrashNoStall(2);
  EXPECT_EQ(cluster.lease_manager().num_copies(), 0u);
  EXPECT_GT(cluster.lease_manager().lapses(), 0u);

  cluster.RunUntil(MsToSim(260));
  // The epoch moved: the router lapsed its whole table and grants stay
  // suppressed while a node is down.
  EXPECT_GT(Router(cluster).lease_table().stats().lapses, 0u);
  EXPECT_EQ(Router(cluster).lease_table().num_leases(), 0u);

  cluster.RejoinNoStall(2);
  cluster.RunUntil(MsToSim(500));
  cluster.Drain();

  InvariantMonitor monitor(kRecords);
  EXPECT_TRUE(monitor.CheckRecordSingularity(cluster, "post-rejoin"));
  EXPECT_TRUE(monitor.CheckNoLostRecords(cluster, "post-rejoin"));
  EXPECT_TRUE(monitor.CheckReplicaCoherence(cluster, "post-rejoin"));
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

// Chaos with replication enabled: link chaos plus a stalling crash/rejoin
// cycle must leave routing (and thus leasing) chaos-invariant — the
// placement digest equals a fault-free command-log replay, and the
// quiesced copies match their primaries.
TEST(ReplicaLeaseTest, ChaosPlanStaysCoherentAndReplayable) {
  ClusterConfig config = oracle::LeaseConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  FaultPlanConfig pc;
  pc.horizon_us = MsToSim(400);
  pc.num_nodes = kNodes;
  pc.crash_cycles = 1;
  pc.min_outage_us = MsToSim(20);
  pc.max_outage_us = MsToSim(60);
  pc.link.drop_prob = 0.05;
  pc.link.duplicate_prob = 0.03;
  pc.link.max_jitter_us = 300;
  const FaultPlan plan = FaultPlan::Generate(pc, 29);
  FaultInjector injector(&cluster, plan, RangeMapFactory(config));

  workload::YcsbConfig wl =
      workload::ReadHeavySkewedYcsb(kRecords, kNodes, 0.05, /*seed=*/17);
  workload::YcsbWorkload gen(wl, /*trace=*/nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 16, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(pc.horizon_us);
  driver.Start();

  injector.RunUntil(pc.horizon_us);
  injector.Drain();

  EXPECT_GT(Router(cluster).lease_table().stats().grants, 0u);

  InvariantMonitor monitor(kRecords);
  EXPECT_TRUE(monitor.CheckRecordSingularity(cluster, "chaos"));
  EXPECT_TRUE(monitor.CheckNoLostRecords(cluster, "chaos"));
  EXPECT_TRUE(monitor.CheckReplicaCoherence(cluster, "chaos"));
  EXPECT_TRUE(monitor.CheckAgainstOracle(cluster, RouterKind::kHermes,
                                         RangeMapFactory(config), "chaos"));
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

// Satellite: the Drain() footgun. Work aimed at a node that is down
// under kCrashNoStall parks until the rejoin epoch, so calling Drain()
// with the node still down never finishes that work — the invariant is
// "rejoin first, then drain". The bounded proxy: run far past every
// retry slot with intake stopped and assert the parked set is still
// non-empty (the state Drain() would spin on forever) and readable in
// DegradedDebugString(); after the rejoin the same Drain() completes,
// the parked set empties, and every migrated record lands.
TEST(DrainFootgunTest, DrainRequiresRejoinFirst) {
  ClusterConfig config = oracle::LeaseConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  workload::YcsbConfig wl =
      workload::ReadHeavySkewedYcsb(kRecords, kNodes, 0.3, /*seed=*/19);
  workload::YcsbWorkload gen(wl, /*trace=*/nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 24, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(60));
  driver.Start();

  cluster.RunUntil(MsToSim(20));
  cluster.CrashNoStall(1);
  // A consolidation whose target is the dead node: classified blocked
  // pre-routing and parked until the rejoin epoch.
  cluster.SubmitMigrationPlan({{100, 400, 1}});

  // Intake stops at 60ms; run far past every retry slot. The parked
  // chunk never becomes runnable, so a Drain() here would never see the
  // quiesced state it waits for.
  cluster.RunUntil(MsToSim(400));
  EXPECT_GT(cluster.parked_count(), 0u) << cluster.DegradedDebugString();
  const std::string stuck = cluster.DegradedDebugString();
  EXPECT_NE(stuck.find("parked txn="), std::string::npos) << stuck;
  EXPECT_NE(stuck.find("down=[1]"), std::string::npos) << stuck;

  cluster.RejoinNoStall(1);
  const SimTime drained_at = cluster.Drain();
  EXPECT_GE(drained_at, MsToSim(400));
  EXPECT_EQ(cluster.parked_count(), 0u) << cluster.DegradedDebugString();
  // The live workload keeps migrating keys after the consolidation lands,
  // so no fixed final home is asserted — record singularity below checks
  // every record sits exactly where ownership says.

  InvariantMonitor monitor(kRecords);
  EXPECT_TRUE(monitor.CheckRecordSingularity(cluster, "post-drain"));
  EXPECT_TRUE(monitor.CheckNoLostRecords(cluster, "post-drain"));
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

}  // namespace
}  // namespace hermes
