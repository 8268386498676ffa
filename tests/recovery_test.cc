// Recovery (§4.3): a crashed cluster is rebuilt from a consistent
// checkpoint plus a replay of the command-log suffix; determinism
// guarantees the rebuilt cluster matches the pre-crash state bit for bit.

#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "engine/recovery.h"
#include "fault/invariant_monitor.h"
#include "partition/partition_map.h"
#include "storage/serialization.h"
#include "workload/client.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;

ClusterConfig RecoveryConfig() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 10'000;
  config.hermes.fusion_table_capacity = 300;
  return config;
}

std::unique_ptr<partition::PartitionMap> BaseMap(const ClusterConfig& c) {
  return std::make_unique<partition::RangePartitionMap>(c.num_records,
                                                        c.num_nodes);
}

void RunPhase(Cluster* cluster, workload::YcsbWorkload* gen, SimTime until) {
  workload::ClosedLoopDriver driver(
      cluster, 16, [gen](int, SimTime now) { return gen->Next(now); });
  driver.set_stop_time(until);
  driver.Start();
  cluster->RunUntil(until);
  cluster->Drain();
}

TEST(RecoveryTest, ReplayFromCheckpointReproducesState) {
  const ClusterConfig config = RecoveryConfig();
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 777;

  // Primary: run phase 1, checkpoint at quiescence, run phase 2, "crash".
  Cluster primary(config, RouterKind::kHermes, BaseMap(config));
  primary.Load();
  workload::YcsbWorkload gen(wl, nullptr);
  RunPhase(&primary, &gen, MsToSim(300));
  const storage::Checkpoint checkpoint = primary.TakeCheckpoint();
  RunPhase(&primary, &gen, MsToSim(600));
  const uint64_t pre_crash = primary.StateChecksum();
  const uint64_t pre_crash_fusion = primary.hermes_router()->FusionChecksum();

  // Replacement: restore + replay the suffix of the command log.
  auto recovered =
      engine::RecoverCluster(config, RouterKind::kHermes, BaseMap(config),
                             checkpoint, primary.command_log());
  EXPECT_EQ(recovered->StateChecksum(), pre_crash);
  EXPECT_EQ(recovered->hermes_router()->FusionChecksum(), pre_crash_fusion);
}

// The fusion table holds keys only; their owners come from the restored
// ownership overlay, so a checkpoint naming a fused key the overlay lacks
// is corrupt and must be rejected rather than silently restored.
TEST(RecoveryTest, RestoreRejectsFusedKeyMissingFromOverlay) {
  const ClusterConfig config = RecoveryConfig();
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 777;
  Cluster primary(config, RouterKind::kHermes, BaseMap(config));
  primary.Load();
  workload::YcsbWorkload gen(wl, nullptr);
  RunPhase(&primary, &gen, MsToSim(300));
  storage::Checkpoint checkpoint = primary.TakeCheckpoint();
  ASSERT_FALSE(checkpoint.fusion_order.empty());

  // The overlay is in ascending key order: the first gap is a key with no
  // overlay entry.
  Key orphan = 0;
  for (const auto& [key, node] : checkpoint.ownership_overlay) {
    (void)node;
    if (key != orphan) break;
    ++orphan;
  }
  checkpoint.fusion_order.push_back(orphan);
  Cluster restored(config, RouterKind::kHermes, BaseMap(config));
  EXPECT_THROW(restored.RestoreFromCheckpoint(checkpoint), std::out_of_range);
}

TEST(RecoveryTest, CheckpointAloneIsNotEnough) {
  // Sanity: the phase-2 workload actually changes state, so replay is
  // doing real work in the test above.
  const ClusterConfig config = RecoveryConfig();
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 777;

  Cluster primary(config, RouterKind::kHermes, BaseMap(config));
  primary.Load();
  workload::YcsbWorkload gen(wl, nullptr);
  RunPhase(&primary, &gen, MsToSim(300));
  const storage::Checkpoint checkpoint = primary.TakeCheckpoint();
  RunPhase(&primary, &gen, MsToSim(600));

  Cluster restored_only(config, RouterKind::kHermes, BaseMap(config));
  restored_only.RestoreFromCheckpoint(checkpoint);
  EXPECT_NE(restored_only.StateChecksum(), primary.StateChecksum());
}

TEST(RecoveryTest, RecoveryWorksForCalvinToo) {
  ClusterConfig config = RecoveryConfig();
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 31;

  Cluster primary(config, RouterKind::kCalvin, BaseMap(config));
  primary.Load();
  workload::YcsbWorkload gen(wl, nullptr);
  RunPhase(&primary, &gen, MsToSim(200));
  const storage::Checkpoint checkpoint = primary.TakeCheckpoint();
  RunPhase(&primary, &gen, MsToSim(400));

  auto recovered =
      engine::RecoverCluster(config, RouterKind::kCalvin, BaseMap(config),
                             checkpoint, primary.command_log());
  EXPECT_EQ(recovered->StateChecksum(), primary.StateChecksum());
}

TEST(RecoveryTest, FreshCheckpointRoundTrips) {
  // Checkpoint immediately after Load: restore must equal the original.
  const ClusterConfig config = RecoveryConfig();
  Cluster primary(config, RouterKind::kHermes, BaseMap(config));
  primary.Load();
  const storage::Checkpoint checkpoint = primary.TakeCheckpoint();

  Cluster restored(config, RouterKind::kHermes, BaseMap(config));
  restored.RestoreFromCheckpoint(checkpoint);
  EXPECT_EQ(restored.StateChecksum(), primary.StateChecksum());
}

TEST(RecoveryTest, DurableRecoveryThroughFiles) {
  // Full durability loop: checkpoint and command log go to disk, a fresh
  // process-equivalent reads them back and recovers the exact state.
  const ClusterConfig config = RecoveryConfig();
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 91;

  Cluster primary(config, RouterKind::kHermes, BaseMap(config));
  primary.Load();
  workload::YcsbWorkload gen(wl, nullptr);
  RunPhase(&primary, &gen, MsToSim(250));
  const storage::Checkpoint checkpoint = primary.TakeCheckpoint();
  RunPhase(&primary, &gen, MsToSim(500));

  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(
      storage::WriteCheckpoint(checkpoint, dir + "/recovery_ckpt.bin").ok());
  ASSERT_TRUE(storage::WriteCommandLog(primary.command_log(),
                                       dir + "/recovery_log.bin")
                  .ok());

  storage::Checkpoint restored_ckpt;
  storage::CommandLog restored_log;
  ASSERT_TRUE(
      storage::ReadCheckpoint(dir + "/recovery_ckpt.bin", &restored_ckpt)
          .ok());
  ASSERT_TRUE(
      storage::ReadCommandLog(dir + "/recovery_log.bin", &restored_log).ok());

  auto recovered =
      engine::RecoverCluster(config, RouterKind::kHermes, BaseMap(config),
                             restored_ckpt, restored_log);
  EXPECT_EQ(recovered->StateChecksum(), primary.StateChecksum());
}

TEST(RecoveryTest, MidElasticCheckpointReplaysInFlightMigration) {
  // A checkpoint taken at a batch boundary in the MIDDLE of a scale-out —
  // cold chunk migrations half done, the rest still queued or parked at
  // the paused sequencer — plus a replay of the suffix must reproduce the
  // final state exactly. The queued-but-unsequenced chunks are absent from
  // the checkpoint by design: they enter the total order after the
  // boundary, so the suffix covers them.
  ClusterConfig config = RecoveryConfig();
  config.migration_chunk_records = 500;
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 4711;

  Cluster primary(config, RouterKind::kHermes, BaseMap(config));
  primary.Load();
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &primary, 16, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(300));
  driver.Start();
  primary.RunUntil(MsToSim(200));

  // Scale out: 2500 records re-home onto the new node in 500-record
  // chunks, interleaved with the regular workload.
  ASSERT_EQ(primary.AddNode({{0, 2499, 4}}, /*migrate_cold=*/true), 4);
  primary.RunUntil(MsToSim(225));

  // Checkpoint at the next batch boundary: pause intake, drain to
  // quiescence. The migration must genuinely be mid-flight here.
  primary.PauseIntake();
  primary.Drain();
  const size_t moved = primary.node(4).store().size();
  ASSERT_GT(moved, 0u) << "no chunk landed yet - checkpoint too early";
  ASSERT_LT(moved, 2500u) << "migration already done - checkpoint too late";
  const storage::Checkpoint checkpoint = primary.TakeCheckpoint();
  EXPECT_EQ(checkpoint.stores.size(), 5u);
  primary.ResumeIntake();

  // Finish the elastic phase and the workload. The new node ends up with
  // the cold part of the range; hot keys promoted to the fusion table are
  // placed by the router and may live elsewhere, so < 2500 is expected.
  primary.RunUntil(MsToSim(450));
  primary.Drain();
  EXPECT_GT(primary.node(4).store().size(), 2000u);

  // The replacement restores the mid-elastic checkpoint and replays the
  // suffix - including the chunks that were still queued at the boundary.
  auto recovered =
      engine::RecoverCluster(config, RouterKind::kHermes, BaseMap(config),
                             checkpoint, primary.command_log());
  EXPECT_EQ(recovered->num_nodes(), 5);
  EXPECT_EQ(recovered->StateChecksum(), primary.StateChecksum());
  EXPECT_EQ(recovered->hermes_router()->FusionChecksum(),
            primary.hermes_router()->FusionChecksum());

  // Digest equality vs a full-replay oracle: the routing-decision stream
  // of the live elastic run is reproduced bit for bit from the log alone.
  fault::InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(
      primary, [&config] { return BaseMap(config); }, "mid-elastic"))
      << monitor.FailureReport();
}

TEST(RecoveryTest, ReplayIncludesColdMigrations) {
  // Scale-out happens in phase 2; replaying the log must reproduce the
  // migrated placement (markers and chunk transactions are all logged).
  ClusterConfig config = RecoveryConfig();
  config.migration_chunk_records = 500;
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 55;

  Cluster primary(config, RouterKind::kHermes, BaseMap(config));
  primary.Load();
  workload::YcsbWorkload gen(wl, nullptr);
  RunPhase(&primary, &gen, MsToSim(200));
  const storage::Checkpoint checkpoint = primary.TakeCheckpoint();

  primary.AddNode({{0, 2499, 4}}, /*migrate_cold=*/true);
  RunPhase(&primary, &gen, MsToSim(500));

  auto recovered =
      engine::RecoverCluster(config, RouterKind::kHermes, BaseMap(config),
                             checkpoint, primary.command_log());
  EXPECT_EQ(recovered->num_nodes(), 5);
  EXPECT_EQ(recovered->StateChecksum(), primary.StateChecksum());
}

}  // namespace
}  // namespace hermes
