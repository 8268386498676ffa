// Reproduces Fig. 11: average TPC-C throughput (New-Order + Payment) as
// the fraction of requests concentrating on the first node's warehouses
// grows: Normal (uniform), 50%, 80%, 90%.
//
// Expected shape (paper): with the ordinary workload all systems are
// similar (warehouse partitioning is already good; Hermes pays a small
// batch-analysis overhead). As concentration grows, everything degrades,
// but Hermes and Clay — the two systems that can shed hot warehouses off
// the first node — degrade the least.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

int main() {
  std::printf("Fig. 11 reproduction: TPC-C (New-Order+Payment) with a "
              "hot-spot concentration on node 0\n\n");
  const std::vector<std::pair<const char*, const char*>> settings = {
      {"normal", "0"}, {"50%", "0.5"}, {"80%", "0.8"}, {"90%", "0.9"}};

  std::printf("concentration");
  for (const auto& system : hermes::bench::Systems()) {
    std::printf(",%s", system.name.c_str());
  }
  std::printf("  (txn/s)\n");
  for (const auto& [label, concentration] : settings) {
    std::printf("%s", label);
    for (const auto& system : hermes::bench::Systems()) {
      std::printf(",%.0f", hermes::bench::Run("tpcc " + system.keys +
                                              " tpcc.hotspot_concentration=" +
                                              concentration)
                               .mean_throughput);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\npaper shape: parity at normal (hermes slightly lower from "
              "batch analysis); under concentration hermes and clay "
              "degrade least\n");
  return 0;
}
