// Reproduces Fig. 13: robustness to the initial data partitioning on the
// multi-tenant workload — perfect ranges, hash placement (scatters tenants
// and creates distributed transactions), and a skewed placement (the first
// 7 of 16 tenants on one node).
//
// Expected shape (paper): everyone is fine with the perfect placement;
// with hash, the migrating systems (LEAP, Hermes) recover locality; with
// skew, Clay and Hermes rebalance while LEAP preserves the skew; only
// Hermes is strong across all three.

#include <cstdio>
#include <string>
#include <utility>

#include "bench_common.h"

int main() {
  std::printf("Fig. 13 reproduction: impact of initial partitioning "
              "(multi-tenant workload, txn/s)\n\n");
  std::printf("placement");
  for (const auto& system : hermes::bench::Systems()) {
    std::printf(",%s", system.name.c_str());
  }
  std::printf("\n");
  // A static hot spot on half the load, over 12 s after a 4 s warm-up.
  // A perfect placement is each tenant on its own node: the range one.
  const std::pair<const char*, const char*> placements[] = {
      {"perfect", "range"}, {"hash", "hash"}, {"skewed", "skewed"}};
  for (const auto& [label, placement] : placements) {
    std::printf("%s", label);
    for (const auto& system : hermes::bench::Systems()) {
      std::printf(",%.0f",
                  hermes::bench::Run(
                      "multitenant " + system.keys + " placement=" +
                      placement +
                      " clay.monitor_window_us=2s horizon=12s window=4s "
                      "mt.hot_fraction=0.5 mt.rotation_us=10000s")
                      .mean_throughput);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\npaper shape: all fine on perfect; migrating systems "
              "recover on hash; hermes consistently good on all three\n");
  return 0;
}
