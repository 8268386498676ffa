// Replica-lease tests (DESIGN.md §5 "Replica leases"): the lease table
// grants deterministic read leases to remote-read-hot keys, the lease
// manager's copies stay coherent with their primaries, and a crashed
// holder deterministically lapses every lease. The LeaseManagerTest cases
// drive the manager directly: revokes, stale copies, waits, and the key
// order of lapses, snapshots and diagnostics. The cross-salt digest
// oracle is the digest oracle's `replication` row. Also hosts the Drain()
// footgun regression: draining with a node still down never terminates
// (the watchdog keeps rescheduling), so rejoin first; the stuck state is
// visible in DegradedDebugString().

#include <string>
#include <tuple>
#include <utility>
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
using fault::InvariantMonitor;
using fault::RangeMapFactory;

const uint64_t kRecords =
    workload::Registered("replication").config.num_records;
const int kNodes = workload::Registered("replication").config.num_nodes;

const core::HermesRouter& Router(Cluster& cluster) {
  return *static_cast<const core::HermesRouter*>(&cluster.router());
}

// The `replication` lifetime without its crash, plus `keys`.
workload::DrainedRun DriveReadHeavy(const std::string& keys) {
  workload::DrainedRun run = workload::RunScenario(workload::MustParse(
      "replication clients=24 ycsb.seed=11 steps= " + keys));
  // Every wait on several copies or records has counted down and freed
  // its slot.
  EXPECT_EQ(run.cluster->executor().pending_countdowns(), 0u);
  EXPECT_EQ(run.cluster->lease_manager().pending_countdowns(), 0u);
  return run;
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

// A revoke of a node that holds no lease on the key counts nothing and
// leaves the holder set alone; the last holder's revoke unleases the key
// and drops its copy, and the key can then be leased again.
TEST(LeaseManagerTest, RevokeNonHolderAndLastHolder) {
  replication::LeaseManager mgr(/*num_nodes=*/3);
  mgr.Revoke(/*key=*/9, /*holder=*/1);  // never leased at all
  EXPECT_EQ(mgr.revokes(), 0u);
  EXPECT_EQ(mgr.HoldersOf(9), nullptr);

  mgr.BeginInstall(9, 0, 0);
  mgr.BeginInstall(9, 2, 0);
  mgr.BeginInstall(9, 2, 0);  // already a holder: no second entry
  ASSERT_NE(mgr.HoldersOf(9), nullptr);
  EXPECT_EQ(*mgr.HoldersOf(9), (std::vector<NodeId>{0, 2}));
  mgr.Revoke(9, 1);
  EXPECT_EQ(mgr.revokes(), 0u);
  EXPECT_EQ(*mgr.HoldersOf(9), (std::vector<NodeId>{0, 2}));

  mgr.ApplyCopy(2, 9, {.value = 5, .version = 3}, /*install=*/true, 0);
  EXPECT_EQ(mgr.num_copies(), 1u);
  mgr.Revoke(9, 0);
  EXPECT_EQ(*mgr.HoldersOf(9), std::vector<NodeId>{2});
  EXPECT_EQ(mgr.num_copies(), 1u);  // node 2's copy stays
  mgr.Revoke(9, 2);
  EXPECT_EQ(mgr.revokes(), 2u);
  EXPECT_EQ(mgr.HoldersOf(9), nullptr);
  EXPECT_EQ(mgr.num_copies(), 0u);
  EXPECT_EQ(mgr.Checksum(), 0u);
  EXPECT_EQ(mgr.DebugString(), "");

  mgr.BeginInstall(4, 1, 0);
  mgr.BeginInstall(9, 1, 0);  // leased again after its last revoke
  EXPECT_EQ(*mgr.HoldersOf(4), std::vector<NodeId>{1});
  EXPECT_EQ(*mgr.HoldersOf(9), std::vector<NodeId>{1});
  EXPECT_EQ(mgr.HoldersOf(5), nullptr);
  EXPECT_EQ(mgr.DebugString(),
            "lease: key=4 holders=[1]\nlease: key=9 holders=[1]\n");
}

// A copy that lands after its lease was revoked, or on a node that never
// held the lease, is dropped uncounted; a newer version replaces an older
// copy and an older one does not.
TEST(LeaseManagerTest, StaleApplyCopyAfterRevokeIsDropped) {
  replication::LeaseManager mgr(/*num_nodes=*/2);
  mgr.BeginInstall(70, 1, 0);
  mgr.Revoke(70, 1);
  mgr.ApplyCopy(1, 70, {.value = 1, .version = 1}, /*install=*/true, 0);
  mgr.ApplyCopy(0, 70, {.value = 1, .version = 1}, /*install=*/true, 0);
  EXPECT_EQ(mgr.num_copies(), 0u);
  EXPECT_EQ(mgr.installs(), 0u);

  mgr.BeginInstall(70, 1, 0);
  mgr.ApplyCopy(1, 70, {.value = 2, .version = 4}, /*install=*/true, 0);
  mgr.ApplyCopy(1, 70, {.value = 3, .version = 2}, /*install=*/false, 0);
  mgr.ApplyCopy(1, 70, {.value = 4, .version = 4}, /*install=*/false, 0);
  EXPECT_EQ(mgr.installs(), 1u);
  EXPECT_EQ(mgr.updates(), 2u);
  const auto copies = mgr.SnapshotCopies();
  ASSERT_EQ(copies.size(), 1u);
  EXPECT_EQ(std::get<2>(copies[0]).value, 4u);
  EXPECT_EQ(std::get<2>(copies[0]).version, 4u);
}

// A wait on keys the node does not hold, or holds a copy of already,
// runs at once and leaves no countdown.
TEST(LeaseManagerTest, WaitCopiesOnUnleasedKeyFiresAtOnce) {
  replication::LeaseManager mgr(/*num_nodes=*/2);
  int ready = 0;
  mgr.WaitCopies(0, {3, 1u << 20}, [&ready]() { ++ready; });
  EXPECT_EQ(ready, 1);
  mgr.BeginInstall(3, 1, 0);  // leased to node 1, not node 0
  mgr.WaitCopies(0, {3}, [&ready]() { ++ready; });
  EXPECT_EQ(ready, 2);
  mgr.ApplyCopy(1, 3, {.value = 1, .version = 1}, /*install=*/true, 0);
  mgr.WaitCopies(1, {3}, [&ready]() { ++ready; });
  EXPECT_EQ(ready, 3);
  EXPECT_EQ(mgr.pending_countdowns(), 0u);
}

// A lapse wakes node by node and, within a node, in key order, whatever
// order the leases and waits arrived in; each (key, holder) counts once.
TEST(LeaseManagerTest, LapseAllWakesByNodeThenKey) {
  replication::LeaseManager mgr(/*num_nodes=*/3);
  for (Key k : {130u, 5u, 64u, 63u}) {
    mgr.BeginInstall(k, 2, 0);
    mgr.BeginInstall(k, 1, 0);
  }
  std::vector<std::pair<NodeId, Key>> woken;
  for (const auto& [node, key] : std::vector<std::pair<NodeId, Key>>{
           {2, 64}, {1, 130}, {2, 5}, {1, 63}, {2, 130}, {1, 5}}) {
    mgr.WaitCopies(node, {key}, [&woken, node = node, key = key]() {
      woken.emplace_back(node, key);
    });
  }
  EXPECT_TRUE(woken.empty());
  mgr.LapseAll();
  EXPECT_EQ(woken, (std::vector<std::pair<NodeId, Key>>{
                       {1, 5}, {1, 63}, {1, 130}, {2, 5}, {2, 64}, {2, 130}}));
  EXPECT_EQ(mgr.lapses(), 8u);
  EXPECT_EQ(mgr.HoldersOf(5), nullptr);
  EXPECT_EQ(mgr.DebugString(), "");
  EXPECT_EQ(mgr.pending_countdowns(), 0u);
}

// Snapshots and diagnostics list leases and copies in key order (copies
// grouped by node), across word boundaries of the leased-key set.
TEST(LeaseManagerTest, SnapshotAndDebugStringAreKeyOrdered) {
  replication::LeaseManager mgr(/*num_nodes=*/2);
  for (Key k : {200u, 3u, 64u, 63u}) {
    mgr.BeginInstall(k, 1, 0);
    mgr.BeginInstall(k, 0, 0);
  }
  for (Key k : {200u, 63u, 3u}) {
    mgr.ApplyCopy(1, k, {.value = k, .version = 1}, /*install=*/true, 0);
  }
  mgr.ApplyCopy(0, 64, {.value = 64, .version = 2}, /*install=*/true, 0);
  mgr.WaitCopies(0, {200}, []() {});

  std::vector<std::pair<NodeId, Key>> order;
  for (const auto& [node, key, copy] : mgr.SnapshotCopies()) {
    EXPECT_EQ(copy.value, key);
    order.emplace_back(node, key);
  }
  EXPECT_EQ(order, (std::vector<std::pair<NodeId, Key>>{
                       {0, 64}, {1, 3}, {1, 63}, {1, 200}}));
  EXPECT_EQ(mgr.DebugString(),
            "lease: key=3 holders=[0 1]\n"
            "lease: key=63 holders=[0 1]\n"
            "lease: key=64 holders=[0 1]\n"
            "lease: key=200 holders=[0 1]\n"
            "copy: node=0 key=64 version=2\n"
            "copy wait: node=0 key=200 (1)\n"
            "copy: node=1 key=3 version=1\n"
            "copy: node=1 key=63 version=1\n"
            "copy: node=1 key=200 version=1\n");
  mgr.LapseAll();  // wakes the parked wait
}

// A read-mostly skewed workload earns leases, absorbs remote reads into
// local copies, and quiesces with every copy bit-identical to its primary.
TEST(ReplicaLeaseTest, LeasesGrantAndAbsorbReads) {
  const workload::DrainedRun run = DriveReadHeavy("horizon=600ms");
  Cluster& cluster = *run.cluster;

  const auto& stats = Router(cluster).stats();
  const auto& lease_stats = Router(cluster).lease_table().stats();
  EXPECT_GT(cluster.metrics().total_commits(), 500u);
  EXPECT_GT(lease_stats.grants, 10u);
  EXPECT_GT(stats.replica_reads, 100u);
  EXPECT_GT(cluster.lease_manager().installs(), 0u);
  EXPECT_GT(cluster.lease_manager().num_copies(), 0u);

  InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(
      cluster, RangeMapFactory(cluster.config()), "read-heavy"))
      << monitor.FailureReport();
}

// The global read-mostly gate: a write-heavy workload grants nothing, so
// the replication-enabled run routes exactly like the disabled one.
TEST(ReplicaLeaseTest, WriteHeavyWorkloadGrantsNothing) {
  const workload::DrainedRun on_run =
      DriveReadHeavy("horizon=400ms ycsb.rw_ratio=0.6");
  Cluster& on = *on_run.cluster;
  EXPECT_EQ(Router(on).lease_table().stats().grants, 0u);
  EXPECT_EQ(Router(on).stats().replica_reads, 0u);
  EXPECT_EQ(on.lease_manager().num_copies(), 0u);

  const workload::DrainedRun off_run =
      DriveReadHeavy("horizon=400ms replication.enabled=0 ycsb.rw_ratio=0.6");
  Cluster& off = *off_run.cluster;
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
    // Hot keys do revoke (write_revoke_threshold=2).
    const workload::DrainedRun run = DriveReadHeavy(
        "clients=64 horizon=400ms replication.read_hot_threshold=1 "
        "replication.write_revoke_threshold=2 replication.max_leases=8 "
        "ycsb.rw_ratio=0.15");
    Cluster& cluster = *run.cluster;
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
  const workload::DrainedRun run = DriveReadHeavy("horizon=400ms");
  Cluster& cluster = *run.cluster;
  const fault::MapFactory range = RangeMapFactory(cluster.config());

  const auto copies = cluster.lease_manager().SnapshotCopies();
  ASSERT_FALSE(copies.empty());

  InvariantMonitor clean;
  EXPECT_TRUE(clean.CheckQuiescent(cluster, range, "pre-corruption"))
      << clean.FailureReport();

  const auto& [node, key, record] = copies.front();
  cluster.lease_manager().CorruptCopyForTest(node, key);

  // Only the copy is wrong: the primaries, and so the replay, still agree.
  InvariantMonitor corrupted;
  EXPECT_FALSE(corrupted.CheckQuiescent(cluster, range, "post-corruption"));
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
  ClusterConfig config = workload::Registered("replication").config;
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
  const workload::DrainedRun run = workload::RunScenario(workload::MustParse(
      "replication horizon=400ms ycsb.seed=17 faults.crash_cycles=1 "
      "faults.min_outage_us=20ms faults.max_outage_us=60ms "
      "faults.link.drop_prob=0.05 faults.link.duplicate_prob=0.03 "
      "faults.link.max_jitter_us=300us plan_seed=29 steps="));
  EXPECT_GT(Router(*run.cluster).lease_table().stats().grants, 0u);
  EXPECT_TRUE(run.monitors_ok) << run.report;
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
  ClusterConfig config = workload::Registered("replication").config;
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
