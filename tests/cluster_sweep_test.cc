// Parameterized end-to-end sweep: every router kind on several cluster
// shapes and initial placements must drain cleanly, conserve records,
// hold the no-leak invariants, and stay deterministic.

#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "partition/partition_map.h"
#include "workload/client.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;

enum class Placement { kRange, kHash };

using SweepParam = std::tuple<RouterKind, int /*nodes*/, Placement>;

class ClusterSweepTest : public ::testing::TestWithParam<SweepParam> {};

std::unique_ptr<partition::PartitionMap> MakeMap(Placement placement,
                                                 uint64_t records,
                                                 int nodes) {
  if (placement == Placement::kHash) {
    return std::make_unique<partition::HashPartitionMap>(records, nodes);
  }
  return std::make_unique<partition::RangePartitionMap>(records, nodes);
}

TEST_P(ClusterSweepTest, RunsCleanly) {
  const auto [kind, nodes, placement] = GetParam();
  ClusterConfig config;
  config.num_nodes = nodes;
  config.num_records = 4000u * nodes;
  config.workers_per_node = 2;
  config.hermes.fusion_table_capacity = config.num_records / 20;
  Cluster cluster(config, kind,
                  MakeMap(placement, config.num_records, nodes));
  cluster.Load();

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = nodes;
  wl.seed = 1000 + nodes;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 8 * nodes, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(800));
  driver.Start();
  cluster.RunUntil(MsToSim(800));
  cluster.Drain();

  EXPECT_GT(cluster.metrics().total_commits(), 50u);
  EXPECT_EQ(cluster.executor().inflight(), 0u);
  EXPECT_EQ(cluster.executor().pending_countdowns(), 0u);
  uint64_t total = 0;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    total += cluster.node(n).store().size();
    EXPECT_EQ(cluster.node(n).locks().num_txns(), 0u) << "node " << n;
    EXPECT_EQ(cluster.node(n).locks().num_active_keys(), 0u) << "node " << n;
    EXPECT_EQ(cluster.node(n).undo().active_txns(), 0u) << "node " << n;
  }
  EXPECT_EQ(total, config.num_records);
  // Latency accounting is self-consistent.
  const auto lat = cluster.metrics().AverageLatency();
  EXPECT_GE(lat.total_us, lat.lock_wait_us);
  EXPECT_GT(lat.total_us, 0u);
}

std::string SweepName(
    const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [kind, nodes, placement] = info.param;
  std::string name;
  switch (kind) {
    case RouterKind::kCalvin: name = "Calvin"; break;
    case RouterKind::kGStore: name = "GStore"; break;
    case RouterKind::kLeap: name = "Leap"; break;
    case RouterKind::kTPart: name = "TPart"; break;
    case RouterKind::kHermes: name = "Hermes"; break;
  }
  name += std::to_string(nodes) + "nodes";
  name += placement == Placement::kHash ? "Hash" : "Range";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterSweepTest,
    ::testing::Combine(::testing::Values(RouterKind::kCalvin,
                                         RouterKind::kGStore,
                                         RouterKind::kLeap,
                                         RouterKind::kTPart,
                                         RouterKind::kHermes),
                       ::testing::Values(2, 6),
                       ::testing::Values(Placement::kRange,
                                         Placement::kHash)),
    SweepName);

}  // namespace
}  // namespace hermes
