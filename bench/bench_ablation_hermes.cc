// Ablation study of the prescient routing's design choices (DESIGN.md §5;
// the paper's supplementary materials discuss several of these):
//
//   reorder      step-1 batch reordering on/off (Fig. 3 ping-pong
//                avoidance comes from reordering)
//   rebalance    step-3 load balancing on/off (off degenerates toward
//                LEAP-like pile-up under skew)
//   pass dir     backward (paper) vs forward step-3 walk
//   alpha        load-imbalance tolerance sweep
//   fusion cap   fusion-table capacity sweep (the §4.1 trade-off)
//   policy       LRU vs FIFO eviction

#include <cstdio>
#include <string>

#include "bench_common.h"

namespace {

// Hermes over five trace windows, with `keys` on top.
double Run(const std::string& keys) {
  return hermes::bench::Run("google horizon=20s " + keys).mean_throughput;
}

std::string Capacity(double fraction_of_db) {
  const double records =
      static_cast<double>(hermes::workload::Registered("google")
                              .config.num_records);
  return "hermes.fusion_table_capacity=" +
         std::to_string(static_cast<size_t>(fraction_of_db * records));
}

}  // namespace

int main() {
  std::printf("Hermes ablations under the Google workload (txn/s)\n\n");

  const double full = Run("");
  std::printf("full algorithm                 %8.0f\n", full);

  std::printf("no step-1 reordering           %8.0f\n",
              Run("hermes.enable_reorder=0"));
  std::printf("no step-3 load balancing       %8.0f\n",
              Run("hermes.enable_rebalance=0"));
  std::printf("forward step-3 pass            %8.0f\n",
              Run("hermes.backward_pass=0"));

  std::printf("\nalpha sweep (load tolerance):\n");
  for (double alpha : {0.0, 0.25, 1.0, 4.0}) {
    std::printf("  alpha=%.2f                   %8.0f\n", alpha,
                Run("hermes.alpha=" + std::to_string(alpha)));
  }

  // The full algorithm runs at 2.5% and LRU, so those rows reuse it.
  std::printf("\nfusion table capacity sweep (fraction of database):\n");
  for (double frac : {0.005, 0.025, 0.10}) {
    std::printf("  capacity=%.1f%%                %8.0f\n", frac * 100,
                frac == 0.025 ? full : Run(Capacity(frac)));
  }
  std::printf("  unbounded                    %8.0f\n",
              Run("hermes.fusion_table_capacity=0"));

  std::printf("\neviction policy:\n");
  std::printf("  LRU                          %8.0f\n", full);
  std::printf("  FIFO                         %8.0f\n",
              Run("hermes.eviction_policy=fifo"));
  std::printf("\nexpected shape: the full algorithm dominates; dropping "
              "rebalancing hurts most under the skewed trace; tiny fusion "
              "tables cost eviction churn; very large alpha trades balance "
              "for locality\n");
  return 0;
}
