#include "engine/cluster.h"

#include <memory>

#include <gtest/gtest.h>

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
  config.workers_per_node = 2;
  config.epoch_us = MsToSim(10);
  config.hermes.fusion_table_capacity = 1'000;
  return config;
}

std::unique_ptr<Cluster> MakeCluster(const ClusterConfig& config,
                                     RouterKind kind) {
  auto cluster = std::make_unique<Cluster>(
      config, kind,
      std::make_unique<partition::RangePartitionMap>(config.num_records,
                                                     config.num_nodes));
  cluster->Load();
  return cluster;
}

class ClusterRouterTest : public ::testing::TestWithParam<RouterKind> {};

TEST_P(ClusterRouterTest, RunsYcsbToCompletion) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, GetParam());

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 99;
  workload::YcsbWorkload gen(wl, nullptr);

  workload::ClosedLoopDriver driver(
      cluster.get(), 32,
      [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(SecToSim(2));
  driver.Start();
  cluster->RunUntil(SecToSim(2));
  cluster->Drain();

  EXPECT_EQ(cluster->executor().inflight(), 0u);
  EXPECT_GT(cluster->metrics().total_commits(), 100u);
  EXPECT_EQ(driver.completed(), cluster->metrics().total_commits() +
                                    cluster->metrics().total_aborts());

  // Record conservation: every key lives on exactly one node.
  uint64_t total = 0;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    total += cluster->node(n).store().size();
  }
  EXPECT_EQ(total, config.num_records);
}

TEST_P(ClusterRouterTest, IdenticalRunsProduceIdenticalState) {
  const ClusterConfig config = SmallConfig();
  uint64_t checksums[2];
  uint64_t commits[2];
  for (int run = 0; run < 2; ++run) {
    auto cluster = MakeCluster(config, GetParam());
    workload::YcsbConfig wl;
    wl.num_records = config.num_records;
    wl.num_partitions = config.num_nodes;
    wl.seed = 4242;
    workload::YcsbWorkload gen(wl, nullptr);
    workload::ClosedLoopDriver driver(
        cluster.get(), 16,
        [&gen](int, SimTime now) { return gen.Next(now); });
    driver.set_stop_time(SecToSim(1));
    driver.Start();
    cluster->RunUntil(SecToSim(1));
    cluster->Drain();
    checksums[run] = cluster->StateChecksum();
    commits[run] = cluster->metrics().total_commits();
  }
  EXPECT_EQ(checksums[0], checksums[1]);
  EXPECT_EQ(commits[0], commits[1]);
}

INSTANTIATE_TEST_SUITE_P(AllRouters, ClusterRouterTest,
                         ::testing::Values(RouterKind::kCalvin,
                                           RouterKind::kGStore,
                                           RouterKind::kLeap,
                                           RouterKind::kTPart,
                                           RouterKind::kHermes),
                         [](const auto& info) {
                           switch (info.param) {
                             case RouterKind::kCalvin: return "Calvin";
                             case RouterKind::kGStore: return "GStore";
                             case RouterKind::kLeap: return "Leap";
                             case RouterKind::kTPart: return "TPart";
                             case RouterKind::kHermes: return "Hermes";
                           }
                           return "Unknown";
                         });

TEST(ClusterTest, LoadPlacesRecordsAtHome) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, RouterKind::kCalvin);
  for (Key k = 0; k < config.num_records; k += 997) {
    const NodeId home = cluster->ownership().Home(k);
    EXPECT_TRUE(cluster->node(home).store().Contains(k));
  }
}

TEST(ClusterTest, SingleTxnCommitsAndWrites) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, RouterKind::kHermes);
  TxnRequest txn;
  txn.read_set = {1, 9999};  // spans two partitions
  txn.write_set = {1, 9999};
  bool done = false;
  cluster->Submit(txn, [&done](const engine::TxnResult& r) {
    EXPECT_FALSE(r.aborted);
    EXPECT_TRUE(r.distributed);
    done = true;
  });
  cluster->Drain();
  ASSERT_TRUE(done);

  // Both records fused on one node with version 1.
  const NodeId owner1 = cluster->ownership().Owner(1);
  const NodeId owner2 = cluster->ownership().Owner(9999);
  EXPECT_EQ(owner1, owner2);
  const storage::Record* r1 = cluster->node(owner1).store().Get(1);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->version, 1u);
}

TEST(ClusterTest, EmptyAccessSetTxnCommits) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, RouterKind::kHermes);
  TxnRequest txn;  // no reads, no writes (e.g. a pure logic ping)
  bool done = false;
  cluster->Submit(txn, [&done](const engine::TxnResult& r) {
    EXPECT_FALSE(r.aborted);
    done = true;
  });
  cluster->Drain();
  EXPECT_TRUE(done);
}

TEST(ClusterTest, FusionTableOnlyForHermes) {
  const ClusterConfig config = SmallConfig();
  auto calvin = MakeCluster(config, RouterKind::kCalvin);
  EXPECT_EQ(calvin->hermes_router(), nullptr);
  auto hermes = MakeCluster(config, RouterKind::kHermes);
  EXPECT_NE(hermes->hermes_router(), nullptr);
}

TEST(ClusterTest, MaxBatchSizeSplitsLoad) {
  ClusterConfig config = SmallConfig();
  config.max_batch_size = 5;
  auto cluster = MakeCluster(config, RouterKind::kHermes);
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 5;
  workload::YcsbWorkload gen(wl, nullptr);
  for (int i = 0; i < 50; ++i) cluster->Submit(gen.Next(0));
  cluster->Drain();
  EXPECT_EQ(cluster->metrics().total_commits() +
                cluster->metrics().total_aborts(),
            50u);
  // 50 submissions with batches capped at 5 -> at least 10 batches.
  EXPECT_GE(cluster->command_log().size(), 10u);
  for (const auto& batch : cluster->command_log().batches()) {
    EXPECT_LE(batch.txns.size(), 5u);
  }
}

TEST(ClusterTest, MetricsWindowsCoverTheRun) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, RouterKind::kCalvin);
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 6;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      cluster.get(), 8, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(SecToSim(3));
  driver.Start();
  cluster->RunUntil(SecToSim(3));
  cluster->Drain();
  ASSERT_GE(cluster->metrics().windows().size(), 3u);
  // Every covered window saw commits and busy CPU.
  for (size_t w = 0; w < 3; ++w) {
    EXPECT_GT(cluster->metrics().windows()[w].commits, 0u) << "window " << w;
    EXPECT_GT(cluster->metrics().windows()[w].busy_us, 0u) << "window " << w;
  }
}

TEST(ClusterTest, UserAbortRollsBackButStillMigrates) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, RouterKind::kHermes);
  const storage::Record before = *cluster->node(0).store().Get(5);

  TxnRequest txn;
  txn.read_set = {5, 9000};
  txn.write_set = {5, 9000};
  txn.user_abort = true;
  bool done = false;
  cluster->Submit(txn, [&done](const engine::TxnResult& r) {
    EXPECT_TRUE(r.aborted);
    done = true;
  });
  cluster->Drain();
  ASSERT_TRUE(done);
  EXPECT_EQ(cluster->metrics().total_aborts(), 1u);

  // Values rolled back...
  const NodeId owner = cluster->ownership().Owner(5);
  const storage::Record* after = cluster->node(owner).store().Get(5);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->value, before.value);
  // ...but the migration plan still executed (§4.2): both keys fused.
  EXPECT_EQ(cluster->ownership().Owner(5), cluster->ownership().Owner(9000));
}

// SimConfig::threads is a compatibility stub: the simulator only runs
// sequentially, so a nonzero value must abort construction with the field
// named rather than silently run sequentially.
TEST(ClusterDeathTest, NonzeroSimThreadsAborts) {
  ClusterConfig config = SmallConfig();
  config.sim.threads = 1;
  EXPECT_DEATH(MakeCluster(config, RouterKind::kHermes), "sim\\.threads");
}

#ifndef NDEBUG
// Keys are dense: per-key state is indexed by key, so a request naming a
// key at or beyond num_records is refused at Submit in Debug builds.
TEST(ClusterDeathTest, KeyBeyondNumRecordsAborts) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, RouterKind::kHermes);
  TxnRequest txn;
  txn.read_set = {1, config.num_records};
  EXPECT_DEATH(cluster->Submit(txn), "keys are dense");
}
#endif

}  // namespace
}  // namespace hermes
