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
#include "replication/lease_manager.h"
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
  // Every wait on several copies or records has counted down and freed
  // its slot.
  EXPECT_EQ(cluster.executor().pending_countdowns(), 0u);
  EXPECT_EQ(cluster.lease_manager().pending_countdowns(), 0u);
}

// A master waiting on several missing copies runs once, when the last one
// lands or stops being leased to it (revoke or lapse), and the countdown's
// slot is freed then.
TEST(LeaseManagerTest, WaitCopiesCountsDownSeveralMissingCopies) {
  replication::LeaseManager mgr(/*num_nodes=*/2);
  for (Key k : {1, 2, 3, 4, 5}) mgr.BeginInstall(k, /*holder=*/1, /*source=*/0);
  const storage::Record rec{.value = 9, .version = 1};

  int ready = 0;
  mgr.WaitCopies(1, {1, 2, 3}, [&ready]() { ++ready; });
  EXPECT_EQ(mgr.pending_countdowns(), 1u);
  mgr.ApplyCopy(1, 1, rec, /*install=*/true, /*txn=*/0);
  mgr.ApplyCopy(1, 2, rec, /*install=*/true, /*txn=*/0);
  EXPECT_EQ(ready, 0);
  mgr.Revoke(3, 1);  // the last one is revoked, not installed
  EXPECT_EQ(ready, 1);
  EXPECT_EQ(mgr.pending_countdowns(), 0u);

  // Copies already present do not count; a lapse wakes the rest at once.
  mgr.WaitCopies(1, {1, 4, 5}, [&ready]() { ++ready; });
  EXPECT_EQ(mgr.pending_countdowns(), 1u);
  mgr.LapseAll();
  EXPECT_EQ(ready, 2);
  EXPECT_EQ(mgr.pending_countdowns(), 0u);

  // Nothing is leased any more: runs immediately, no countdown.
  mgr.WaitCopies(1, {1, 2}, [&ready]() { ++ready; });
  EXPECT_EQ(ready, 3);
  EXPECT_EQ(mgr.pending_countdowns(), 0u);
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

  InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                     "read-heavy"))
      << monitor.FailureReport();
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

// At capacity the table churns: revokes free slots that later batches
// re-grant in key order. With every remote read hot and only eight slots,
// which keys hold leases is decided almost entirely by that churn, so the
// decisions — and with them the placement digest and every copy — must
// not depend on the hash salt.
TEST(ReplicaLeaseTest, CapacityChurnIsSaltInvariant) {
  struct Outcome {
    uint64_t placement = 0;
    uint64_t replicas = 0;
    uint64_t grants = 0;
    size_t leases = 0;
  };
  const auto run = [](uint64_t salt) {
    oracle::SaltGuard guard(salt);
    ClusterConfig config = oracle::LeaseConfig();
    config.replication.max_leases = 8;
    config.replication.read_hot_threshold = 1;
    config.replication.write_revoke_threshold = 2;  // hot keys do revoke
    Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
    cluster.Load();
    DriveReadHeavy(cluster, /*write_fraction=*/0.15, MsToSim(400),
                   /*clients=*/64);
    Outcome out;
    out.placement = cluster.placement_digest().value();
    out.replicas = cluster.lease_manager().Checksum();
    out.grants = Router(cluster).lease_table().stats().grants;
    out.leases = Router(cluster).lease_table().num_leases();
    return out;
  };
  const Outcome a = run(12345);
  const Outcome b = run(0xdeadbeef);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.replicas, b.replicas);
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_GT(a.grants, 8u);  // slots really freed and re-granted
  EXPECT_LE(a.leases, 8u);
  EXPECT_LE(b.leases, 8u);
}

// Replica coherence in the quiescent check: a clean quiesced run reports
// nothing; a deliberately corrupted copy is caught and named.
TEST(ReplicaLeaseTest, CoherenceMonitorCatchesCorruptedCopy) {
  ClusterConfig config = oracle::LeaseConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();
  DriveReadHeavy(cluster, /*write_fraction=*/0.05, MsToSim(400));

  const auto copies = cluster.lease_manager().SnapshotCopies();
  ASSERT_FALSE(copies.empty());

  InvariantMonitor clean;
  EXPECT_TRUE(clean.CheckQuiescent(cluster, RangeMapFactory(config),
                                   "pre-corruption"))
      << clean.FailureReport();

  const auto& [node, key, record] = copies.front();
  cluster.lease_manager().CorruptCopyForTest(node, key);

  // Only the copy is wrong: the primaries, and so the replay, still agree.
  InvariantMonitor corrupted;
  EXPECT_FALSE(corrupted.CheckQuiescent(cluster, RangeMapFactory(config),
                                        "post-corruption"));
  ASSERT_EQ(corrupted.failures().size(), 1u) << corrupted.FailureReport();
  EXPECT_EQ(corrupted.failures().front(),
            "[post-corruption] replica coherence: key 0 copy on node 0 is "
            "(value=7c8151e87004bd0d v12) but primary is "
            "(value=7c8151e8aea903e2 v12)");
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

  InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                     "post-rejoin"))
      << monitor.FailureReport();
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

  InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                     "chaos"))
      << monitor.FailureReport();
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

  InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                     "post-drain"))
      << monitor.FailureReport();
}

}  // namespace
}  // namespace hermes
