// Property tests for the central invariant of a deterministic database
// system: identical totally ordered input produces identical final state —
// including record placement and fusion-table contents — on independently
// constructed replicas, for every router and several configurations.

#include <gtest/gtest.h>

#include "workload/scenarios.h"

namespace hermes {
namespace {

struct Outcome {
  uint64_t checksum = 0;
  uint64_t commits = 0;
};

// State, placement and fusion-table contents after one run of `line`.
Outcome RunOnce(const char* line) {
  const workload::DrainedRun run =
      workload::RunScenario(workload::MustParse(line));
  const engine::Cluster& cluster = *run.cluster;
  Outcome out{cluster.StateChecksum(), cluster.metrics().total_commits()};
  if (const auto* hermes = cluster.hermes_router()) {
    out.checksum ^= hermes->FusionChecksum();
  }
  return out;
}

struct Case {
  const char* name;
  const char* line;
};

class DeterminismTest : public ::testing::TestWithParam<Case> {};

TEST_P(DeterminismTest, ReplicasConverge) {
  const Outcome a = RunOnce(GetParam().line);
  const Outcome b = RunOnce(GetParam().line);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_GT(a.commits, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, DeterminismTest,
    ::testing::Values(
        Case{"calvin", "determinism router=calvin"},
        Case{"gstore", "determinism router=gstore"},
        Case{"leap", "determinism router=leap"},
        Case{"tpart", "determinism router=tpart hermes.alpha=0.2"},
        Case{"hermes_unbounded", "determinism"},
        Case{"hermes_lru", "determinism hermes.fusion_table_capacity=500"},
        Case{"hermes_fifo_alpha",
             "determinism hermes.alpha=0.5 hermes.fusion_table_capacity=500 "
             "hermes.eviction_policy=fifo"},
        // TPC-C with half the load on node 0's warehouses.
        Case{"tpcc",
             "tpcc clients=16 horizon=1s num_nodes=2 workers_per_node=4 "
             "hermes.fusion_table_capacity=2000 tpcc.num_warehouses=4 "
             "tpcc.hotspot_concentration=0.5"},
        // Scale out mid-run: the first tenant moves to the new node.
        Case{"scaleout",
             "scaleout clients=16 horizon=2s workers_per_node=4 "
             "hermes.fusion_table_capacity=500 migration_chunk_records=200 "
             "mt.tenants_per_node=2 mt.records_per_tenant=2000 "
             "mt.hot_fraction=0.9 mt.rotation_us=500s "
             "steps=add@400ms:0-1999>3"}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace hermes
