// Quickstart: run a skewed YCSB workload with 50% distributed transactions
// on a 4-node deterministic database cluster, against both vanilla Calvin
// routing and Hermes prescient routing, and compare throughput. Each run
// is one scenario line (workload/scenarios.h): a registry entry plus the
// keys that differ from it.
//
//   ./build/examples/example_quickstart

#include <cstdio>
#include <string>

#include "workload/scenarios.h"

namespace {

double RunSystem(const std::string& router) {
  const hermes::workload::DrainedRun run =
      hermes::workload::RunScenario(hermes::workload::MustParse(
          "default router=" + router +
          " clients=800 horizon=35s num_records=100000 "
          "hermes.fusion_table_capacity=2500 ycsb.seed=7"));
  // Throughput after a 5 s warm-up.
  const auto& metrics = run.cluster->metrics();
  const double tput =
      metrics.Throughput(hermes::SecToSim(5), hermes::SecToSim(35));
  const auto lat = metrics.AverageLatency();
  std::printf(
      "%-8s  throughput: %8.0f txn/s   avg latency: %6.2f ms "
      "(lock wait %.2f ms, remote wait %.2f ms)\n",
      router.c_str(), tput, lat.total_us / 1000.0, lat.lock_wait_us / 1000.0,
      lat.remote_wait_us / 1000.0);
  return tput;
}

}  // namespace

int main() {
  std::printf("Hermes quickstart: 4 nodes, 100k records, YCSB "
              "(50%% distributed, 50%% read-write), 800 closed-loop clients\n\n");
  const double calvin = RunSystem("calvin");
  const double hermes_tput = RunSystem("hermes");
  std::printf("\nHermes / Calvin throughput ratio: %.2fx\n",
              hermes_tput / calvin);
  return 0;
}
