// Parameterized end-to-end sweep: every router kind on several cluster
// shapes and initial placements must drain cleanly, conserve records,
// hold the no-leak invariants, and stay deterministic.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "workload/scenarios.h"

namespace hermes {
namespace {

using SweepParam =
    std::tuple<engine::RouterKind, int /*nodes*/, const char* /*placement*/>;

class ClusterSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ClusterSweepTest, RunsCleanly) {
  const auto [kind, nodes, placement] = GetParam();
  const uint64_t records = 4000u * nodes;
  const workload::DrainedRun run = workload::RunScenario(workload::MustParse(
      std::string("default router=") + engine::RouterKindName(kind) +
      " placement=" + placement + " clients=" + std::to_string(8 * nodes) +
      " horizon=800ms num_nodes=" + std::to_string(nodes) +
      " workers_per_node=2 num_records=" +
      std::to_string(records) + " hermes.fusion_table_capacity=" +
      std::to_string(records / 20) + " ycsb.seed=" +
      std::to_string(1000 + nodes)));
  engine::Cluster& cluster = *run.cluster;

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
  EXPECT_EQ(total, records);
  // Latency accounting is self-consistent.
  const auto lat = cluster.metrics().AverageLatency();
  EXPECT_GE(lat.total_us, lat.lock_wait_us);
  EXPECT_GT(lat.total_us, 0u);
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [kind, nodes, placement] = info.param;
  return engine::RouterKindName(kind) + std::to_string(nodes) + "nodes" +
         placement;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterSweepTest,
    ::testing::Combine(::testing::Values(engine::RouterKind::kCalvin,
                                         engine::RouterKind::kGStore,
                                         engine::RouterKind::kLeap,
                                         engine::RouterKind::kTPart,
                                         engine::RouterKind::kHermes),
                       ::testing::Values(2, 6),
                       ::testing::Values("range", "hash")),
    SweepName);

}  // namespace
}  // namespace hermes
