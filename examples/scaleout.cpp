// Example: dynamic machine provisioning (§3.3 / §5.4 scenario). A 3-node
// cluster with a hot tenant adds a 4th node at runtime; the hot records
// move with normal traffic via the fusion table while the cold range
// migrates in chunk transactions that skip hot keys. The run is the
// `scaleout` registry entry (workload/scenarios.h) with 600 clients,
// 1000-record chunks and a 40 s horizon.
//
//   ./build/examples/example_scaleout

#include <cstdio>

#include "workload/scenarios.h"

int main() {
  std::printf("t=0s: 3 nodes, hot tenant on node 0 (50%% of load)\n");
  std::printf("t=15s: adding node 3; cold-migrating the hot tenant's "
              "range\n");
  const hermes::workload::DrainedRun run =
      hermes::workload::RunScenario(hermes::workload::MustParse(
          "scaleout clients=600 horizon=40s migration_chunk_records=1000"));
  hermes::engine::Cluster& cluster = *run.cluster;

  std::printf("\nthroughput (txn/s, 5s buckets):\n");
  const auto& windows = cluster.metrics().windows();
  for (size_t w = 0; w + 5 <= windows.size(); w += 5) {
    uint64_t commits = 0;
    for (size_t i = w; i < w + 5; ++i) commits += windows[i].commits;
    std::printf("  t=%2zu..%2zus: %llu\n", w, w + 5,
                static_cast<unsigned long long>(commits / 5));
  }

  std::printf("\nfinal record placement:\n");
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    std::printf("  node %d: %zu records\n", n,
                cluster.node(n).store().size());
  }
  std::printf("\nnode 3 now owns the hot tenant; chunk migrations skipped "
              "the keys the fusion table had already moved.\n");
  return 0;
}
