// Tests for deterministic replication (§2.1): a standby fed the primary's
// totally ordered input is a command-log replay. A cluster rebuilt by
// RecoverCluster from the primary's base checkpoint and command log holds
// the primary's exact state, and once RestoreSequencerCounters continues
// the total order it serves in the failed primary's place.

#include <memory>

#include <gtest/gtest.h>

#include "engine/recovery.h"
#include "partition/partition_map.h"
#include "workload/client.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;

ClusterConfig SmallConfig() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 10'000;
  config.hermes.fusion_table_capacity = 500;
  return config;
}

std::unique_ptr<partition::PartitionMap> RangeMap(const ClusterConfig& config) {
  return std::make_unique<partition::RangePartitionMap>(config.num_records,
                                                        config.num_nodes);
}

std::unique_ptr<Cluster> LoadedCluster(const ClusterConfig& config,
                                       RouterKind kind) {
  auto cluster = std::make_unique<Cluster>(config, kind, RangeMap(config));
  cluster->Load();
  return cluster;
}

workload::YcsbWorkload Ycsb(const ClusterConfig& config, uint64_t seed) {
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = seed;
  return workload::YcsbWorkload(wl, nullptr);
}

/// The standby of `primary`, ready to take over: the base checkpoint
/// replayed with every batch the primary sequenced, its sequencer
/// continuing after the last of them.
std::unique_ptr<Cluster> Standby(const Cluster& primary,
                                 const storage::Checkpoint& base) {
  std::unique_ptr<Cluster> standby = engine::RecoverCluster(
      primary.config(), primary.kind(), RangeMap(primary.config()), base,
      primary.command_log());
  const Batch& last = primary.command_log().batches().back();
  standby->RestoreSequencerCounters(last.id + 1, last.txns.back().id + 1);
  return standby;
}

TEST(ReplicationTest, StandbyConvergesToPrimaryState) {
  const ClusterConfig config = SmallConfig();
  std::unique_ptr<Cluster> primary = LoadedCluster(config, RouterKind::kHermes);
  const storage::Checkpoint base = primary->TakeCheckpoint();

  workload::YcsbWorkload gen = Ycsb(config, 101);
  workload::ClosedLoopDriver driver(
      primary.get(), 16, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(SecToSim(1));
  driver.Start();
  primary->RunUntil(SecToSim(1));
  primary->Drain();

  const std::unique_ptr<Cluster> standby = Standby(*primary, base);
  EXPECT_GT(primary->metrics().total_commits(), 100u);
  // The standby executed the same stream and holds bit-identical state.
  EXPECT_EQ(standby->metrics().total_commits(),
            primary->metrics().total_commits());
  EXPECT_EQ(standby->StateChecksum(), primary->StateChecksum());
}

TEST(ReplicationTest, FailoverContinuesService) {
  const ClusterConfig config = SmallConfig();
  std::unique_ptr<Cluster> primary = LoadedCluster(config, RouterKind::kHermes);
  const storage::Checkpoint base = primary->TakeCheckpoint();
  workload::YcsbWorkload gen = Ycsb(config, 103);

  // Phase 1 on the original primary.
  for (int i = 0; i < 50; ++i) primary->Submit(gen.Next(0));
  primary->RunUntil(MsToSim(300));
  primary->Drain();

  // Phase 2 on the promoted standby: service continues.
  const std::unique_ptr<Cluster> standby = Standby(*primary, base);
  uint64_t committed = 0;
  for (int i = 0; i < 50; ++i) {
    standby->Submit(gen.Next(standby->Now()),
                    [&committed](const engine::TxnResult&) { ++committed; });
  }
  standby->RunUntil(standby->Now() + MsToSim(500));
  standby->Drain();
  EXPECT_EQ(committed, 50u);
  EXPECT_EQ(standby->metrics().total_commits(), 100u);
}

TEST(ReplicationTest, ThreeReplicasAllConverge) {
  const ClusterConfig config = SmallConfig();
  std::unique_ptr<Cluster> primary = LoadedCluster(config, RouterKind::kLeap);
  const storage::Checkpoint base = primary->TakeCheckpoint();
  workload::YcsbWorkload gen = Ycsb(config, 107);
  for (int i = 0; i < 200; ++i) primary->Submit(gen.Next(0));
  primary->RunUntil(SecToSim(1));
  primary->Drain();

  // The third copy replays the second's log, as a standby of a standby.
  const std::unique_ptr<Cluster> second = Standby(*primary, base);
  const std::unique_ptr<Cluster> third = Standby(*second, base);
  EXPECT_EQ(second->StateChecksum(), primary->StateChecksum());
  EXPECT_EQ(third->StateChecksum(), primary->StateChecksum());
  EXPECT_EQ(third->metrics().total_commits(), 200u);
}

TEST(ReplicationTest, FailoverPreservesDataState) {
  const ClusterConfig config = SmallConfig();
  std::unique_ptr<Cluster> primary = LoadedCluster(config, RouterKind::kHermes);
  const storage::Checkpoint base = primary->TakeCheckpoint();

  TxnRequest txn;
  txn.read_set = {1, 9999};
  txn.write_set = {1, 9999};
  primary->Submit(txn);
  primary->RunUntil(MsToSim(100));
  primary->Drain();

  // The promoted standby holds exactly the failed primary's state.
  EXPECT_EQ(Standby(*primary, base)->StateChecksum(),
            primary->StateChecksum());
}

TEST(ReplicationTest, MidFlightFailoverLosesNoSequencedTransaction) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 8'000;
  config.hermes.fusion_table_capacity = 300;
  std::unique_ptr<Cluster> primary = LoadedCluster(config, RouterKind::kHermes);
  const storage::Checkpoint base = primary->TakeCheckpoint();
  workload::YcsbWorkload gen = Ycsb(config, 31337);

  // The primary dies at t=22ms, 1.6ms after a large burst is sequenced
  // (epoch cut at 20ms + 400us total order), while the batch is still
  // mid-pipeline (routing, logging, execution): it never finishes it.
  primary->RunUntil(MsToSim(19));
  for (int i = 0; i < 400; ++i) primary->Submit(gen.Next(MsToSim(19)));
  primary->RunUntil(MsToSim(22));
  EXPECT_LT(primary->metrics().total_commits(), 400u);

  // The batch was logged when it was sequenced, so the standby replays
  // all 400 and then serves 30 more.
  const std::unique_ptr<Cluster> standby = Standby(*primary, base);
  EXPECT_EQ(standby->metrics().total_commits(), 400u);
  uint64_t committed = 0;
  for (int i = 0; i < 30; ++i) {
    standby->Submit(gen.Next(standby->Now()),
                    [&committed](const engine::TxnResult&) { ++committed; });
  }
  standby->Drain();
  EXPECT_EQ(committed, 30u);
  EXPECT_EQ(standby->metrics().total_commits(), 430u);

  // A standby of the promoted standby holds the same state.
  const std::unique_ptr<Cluster> next = Standby(*standby, base);
  EXPECT_EQ(next->metrics().total_commits(), 430u);
  EXPECT_EQ(next->StateChecksum(), standby->StateChecksum());
}

}  // namespace
}  // namespace hermes
