// Cross-module integration tests: Clay's monitor-plan-migrate loop, the
// Squall chunk pipeline, dynamic provisioning, and end-to-end behavioural
// comparisons between routers that mirror the paper's qualitative claims.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "partition/partition_map.h"
#include "workload/client.h"
#include "workload/scenarios.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;

TEST(IntegrationTest, ClayDetectsHotNodeAndMigrates) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 20'000;
  config.migration_chunk_records = 500;
  Cluster cluster(config, RouterKind::kCalvin,
                  std::make_unique<partition::RangePartitionMap>(
                      config.num_records, config.num_nodes));
  cluster.Load();

  routing::ClayConfig clay;
  clay.monitor_window_us = MsToSim(200);
  clay.range_size = 1000;
  cluster.EnableClay(clay);

  // Heavy skew on node 0's first ranges.
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.distributed_ratio = 0.0;
  wl.zipf_theta = 0.95;
  wl.seed = 21;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(&cluster, 64, [&](int c, SimTime now) {
    TxnRequest txn = gen.Next(now);
    if (c % 4 != 0) {
      // 75% of clients hammer node 0's partition.
      for (Key& k : txn.read_set) k %= 5000;
      txn.write_set = txn.read_set;
    }
    return txn;
  });
  driver.set_stop_time(SecToSim(2));
  driver.Start();
  cluster.RunUntil(SecToSim(2));
  cluster.Drain();

  // Clay produced at least one plan and some of node 0's home ranges moved.
  EXPECT_GT(cluster.ownership().num_interval_entries(), 0u);
  int rehomed = 0;
  for (Key k = 0; k < 5000; k += 1000) {
    if (cluster.ownership().Home(k) != 0) ++rehomed;
  }
  EXPECT_GT(rehomed, 0);
  // Records physically followed the re-homing.
  uint64_t total = 0;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    total += cluster.node(n).store().size();
  }
  EXPECT_EQ(total, config.num_records);
}

TEST(IntegrationTest, ScaleOutSheddsLoadToNewNode) {
  // A static hot node 0; node 3 joins at 1 s and takes the hot tenant.
  const workload::DrainedRun run =
      workload::RunScenario(workload::MustParse(
          "scaleout clients=48 horizon=3s num_nodes=3 workers_per_node=4 "
          "hermes.fusion_table_capacity=1000 mt.tenants_per_node=2 "
          "mt.records_per_tenant=5000 mt.hot_fraction=0.6 "
          "mt.rotation_us=1000s steps=add@1s:0-4999>3"));
  Cluster& cluster = *run.cluster;

  // The new node ended up owning (most of) the hot tenant.
  EXPECT_GT(cluster.node(3).store().size(), 5000u / 2);
  // And it did real work after joining.
  EXPECT_GT(cluster.node(3).workers().busy_us(), 0u);
  // Conservation.
  uint64_t total = 0;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    total += cluster.node(n).store().size();
  }
  EXPECT_EQ(total, cluster.config().num_records);
}

TEST(IntegrationTest, RemoveNodeDrainsIt) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 8000;
  config.migration_chunk_records = 250;
  Cluster cluster(config, RouterKind::kHermes,
                  std::make_unique<partition::RangePartitionMap>(
                      config.num_records, config.num_nodes));
  cluster.Load();

  // Drain node 3: its range re-homes to nodes 0..2 round-robin.
  cluster.RemoveNode(3,
                     {{6000, 7999, 0}},
                     /*migrate_cold=*/true);
  cluster.Drain();

  EXPECT_EQ(cluster.node(3).store().size(), 0u);
  uint64_t total = 0;
  for (int n = 0; n < 3; ++n) total += cluster.node(n).store().size();
  EXPECT_EQ(total, config.num_records);
  EXPECT_EQ(cluster.router().num_active_nodes(), 3);
}

TEST(IntegrationTest, HermesBeatsCalvinOnSkewedDistributedLoad) {
  // The paper's headline claim, in miniature: under a skewed workload with
  // many distributed transactions, prescient routing beats static
  // multi-master routing.
  auto run = [](const std::string& router) {
    const workload::DrainedRun run =
        workload::RunScenario(workload::MustParse(
            "default router=" + router +
            " clients=400 horizon=5s num_records=50000 "
            "hermes.fusion_table_capacity=2000 ycsb.seed=6"));
    return run.cluster->metrics().Throughput(SecToSim(1), SecToSim(5));
  };
  const double calvin = run("calvin");
  const double hermes = run("hermes");
  EXPECT_GT(hermes, calvin * 1.15);
}

TEST(IntegrationTest, FusionTableCapBoundsOverlay) {
  const workload::DrainedRun run = workload::RunScenario(workload::MustParse(
      "default clients=32 horizon=2s num_records=20000 "
      "hermes.fusion_table_capacity=100 ycsb.seed=17"));
  Cluster& cluster = *run.cluster;
  ASSERT_NE(cluster.hermes_router(), nullptr);
  EXPECT_LE(cluster.hermes_router()->fusion_table().size(), 100u);
  // Overlay only holds fusion entries once everything drained.
  EXPECT_LE(cluster.ownership().num_key_overrides(), 100u);
  EXPECT_GT(cluster.metrics().total_commits(), 100u);
}

TEST(IntegrationTest, AbortsDoNotLeakLocksOrRecords) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 10'000;
  config.hermes.fusion_table_capacity = 500;
  Cluster cluster(config, RouterKind::kHermes,
                  std::make_unique<partition::RangePartitionMap>(
                      config.num_records, config.num_nodes));
  cluster.Load();
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 19;
  workload::YcsbWorkload gen(wl, nullptr);
  Rng abort_rng(5);
  workload::ClosedLoopDriver driver(&cluster, 32, [&](int, SimTime now) {
    TxnRequest txn = gen.Next(now);
    txn.user_abort = abort_rng.NextDouble() < 0.2;
    return txn;
  });
  driver.set_stop_time(SecToSim(2));
  driver.Start();
  cluster.RunUntil(SecToSim(2));
  cluster.Drain();

  EXPECT_GT(cluster.metrics().total_aborts(), 50u);
  EXPECT_EQ(cluster.executor().inflight(), 0u);
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_EQ(cluster.node(n).locks().num_txns(), 0u);
    EXPECT_EQ(cluster.node(n).locks().num_active_keys(), 0u);
    EXPECT_EQ(cluster.node(n).undo().active_txns(), 0u);
  }
  uint64_t total = 0;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    total += cluster.node(n).store().size();
  }
  EXPECT_EQ(total, config.num_records);
}

}  // namespace
}  // namespace hermes
