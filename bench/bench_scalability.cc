// Scalability with cluster size (the §1 claim behind deterministic
// databases: without 2PC, throughput scales with nodes *if* data
// placement keeps distributed-transaction costs down). Runs the Google
// workload at several cluster sizes with clients and database scaled
// proportionally, for Calvin and Hermes.
//
// Expected shape: both scale with node count; Hermes scales steeper
// because prescient routing keeps the added nodes busy even though the
// per-node load distribution is skewed and drifting.

#include <cstdio>
#include <string>

#include "bench_common.h"

int main() {
  std::printf("Scalability: throughput vs cluster size under the Google "
              "workload (txn/s)\n\n");
  std::printf("nodes,calvin,hermes,speedup\n");
  for (int nodes : {2, 5, 10, 20}) {
    // Four trace windows; clients and records scale with the nodes, and
    // the fusion table stays at 2.5% of the database.
    const uint64_t records = 10'000u * nodes;
    const std::string line =
        "google horizon=16s clients=" + std::to_string(250 * nodes) +
        " num_nodes=" + std::to_string(nodes) +
        " num_records=" + std::to_string(records) +
        " hermes.fusion_table_capacity=" +
        std::to_string(static_cast<size_t>(0.025 * records));
    const double calvin =
        hermes::bench::Run(line + " router=calvin").mean_throughput;
    const double hermes = hermes::bench::Run(line).mean_throughput;
    std::printf("%d,%.0f,%.0f,%.2fx\n", nodes, calvin, hermes,
                hermes / calvin);
    std::fflush(stdout);
  }
  std::printf("\nexpected shape: both rise with nodes; hermes holds a "
              "consistent multiple by keeping load balanced\n");
  return 0;
}
