// Property tests for the central invariant of a deterministic database
// system: identical totally ordered input produces identical final state —
// including record placement and fusion-table contents — on independently
// constructed replicas, for every router and several configurations.

#include <memory>

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "partition/partition_map.h"
#include "workload/client.h"
#include "workload/multitenant.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;

struct Scenario {
  RouterKind kind;
  size_t fusion_capacity;
  EvictionPolicy policy;
  double alpha;
  const char* name;
};

class DeterminismTest : public ::testing::TestWithParam<Scenario> {};

uint64_t RunYcsbOnce(const Scenario& s, uint64_t* commits) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 20'000;
  config.hermes.fusion_table_capacity = s.fusion_capacity;
  config.hermes.eviction_policy = s.policy;
  config.hermes.alpha = s.alpha;
  Cluster cluster(config, s.kind,
                  std::make_unique<partition::RangePartitionMap>(
                      config.num_records, config.num_nodes));
  cluster.Load();

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 1234;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 24, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(SecToSim(1));
  driver.Start();
  cluster.RunUntil(SecToSim(1));
  cluster.Drain();
  *commits = cluster.metrics().total_commits();
  uint64_t checksum = cluster.StateChecksum();
  if (const auto* hermes = cluster.hermes_router()) {
    checksum ^= hermes->FusionChecksum();
  }
  return checksum;
}

TEST_P(DeterminismTest, ReplicasConverge) {
  uint64_t commits1 = 0, commits2 = 0;
  const uint64_t c1 = RunYcsbOnce(GetParam(), &commits1);
  const uint64_t c2 = RunYcsbOnce(GetParam(), &commits2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(commits1, commits2);
  EXPECT_GT(commits1, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, DeterminismTest,
    ::testing::Values(
        Scenario{RouterKind::kCalvin, 0, EvictionPolicy::kLru, 0.0, "calvin"},
        Scenario{RouterKind::kGStore, 0, EvictionPolicy::kLru, 0.0, "gstore"},
        Scenario{RouterKind::kLeap, 0, EvictionPolicy::kLru, 0.0, "leap"},
        Scenario{RouterKind::kTPart, 0, EvictionPolicy::kLru, 0.2, "tpart"},
        Scenario{RouterKind::kHermes, 0, EvictionPolicy::kLru, 0.0,
                 "hermes_unbounded"},
        Scenario{RouterKind::kHermes, 500, EvictionPolicy::kLru, 0.0,
                 "hermes_lru"},
        Scenario{RouterKind::kHermes, 500, EvictionPolicy::kFifo, 0.5,
                 "hermes_fifo_alpha"}),
    [](const auto& info) { return info.param.name; });

TEST(DeterminismTpccTest, TpccReplicasConverge) {
  auto run = [] {
    workload::TpccConfig tc;
    tc.num_warehouses = 4;
    tc.num_nodes = 2;
    tc.hotspot_concentration = 0.5;
    workload::TpccWorkload gen(tc);

    ClusterConfig config;
    config.num_nodes = 2;
    config.num_records = gen.num_records();
    config.hermes.fusion_table_capacity = 2000;
    Cluster cluster(config, RouterKind::kHermes, gen.WarehousePartitioning());
    cluster.Load();
    workload::ClosedLoopDriver driver(
        &cluster, 16, [&gen](int, SimTime now) { return gen.Next(now); });
    driver.set_stop_time(SecToSim(1));
    driver.Start();
    cluster.RunUntil(SecToSim(1));
    cluster.Drain();
    return cluster.StateChecksum() ^ cluster.metrics().total_commits();
  };
  EXPECT_EQ(run(), run());
}

TEST(DeterminismProvisioningTest, ScaleOutReplicasConverge) {
  auto run = [] {
    workload::MultiTenantConfig mt;
    mt.num_nodes = 3;
    mt.tenants_per_node = 2;
    mt.records_per_tenant = 2000;
    workload::MultiTenantWorkload gen(mt);

    ClusterConfig config;
    config.num_nodes = 3;
    config.num_records = gen.num_records();
    config.hermes.fusion_table_capacity = 500;
    config.migration_chunk_records = 200;
    Cluster cluster(config, RouterKind::kHermes, gen.PerfectPartitioning());
    cluster.Load();
    workload::ClosedLoopDriver driver(
        &cluster, 16, [&gen](int, SimTime now) { return gen.Next(now); });
    driver.set_stop_time(SecToSim(2));
    driver.Start();
    cluster.RunUntil(MsToSim(400));
    // Scale out mid-run: move the first tenant to the new node.
    cluster.AddNode({{0, mt.records_per_tenant - 1, 3}},
                    /*migrate_cold=*/true);
    cluster.RunUntil(SecToSim(2));
    cluster.Drain();
    return cluster.StateChecksum() ^
           (cluster.metrics().total_commits() << 1);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace hermes
