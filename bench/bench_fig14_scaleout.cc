// Reproduces Fig. 14: dynamic machine provisioning. A 3-node cluster
// running the multi-tenant workload with a single hot tenant on node 0
// receives a 4th node; the hot tenant's range is migrated to it.
//
// Systems:
//   squall          Calvin + chunk migrations starting immediately
//   clay_squall     Calvin + chunk migrations after Clay's monitoring lag
//   hermes_no_cold_5   Hermes, fusion table 5% of DB, no cold migration
//   hermes_no_cold_10  Hermes, fusion table 10% of DB, no cold migration
//   hermes_cold_5      Hermes, fusion table 5%, plus cold chunk migration
//
// Expected shape (paper): Squall/Clay+Squall dip hard during migration
// (chunks block hot records) and only recover afterwards; Hermes improves
// immediately after the marker (prescient routing shifts hot records via
// data fusion, skipping them in chunks); a larger fusion table helps more;
// cold migration still pays off later without hurting the early phase.

#include <cstdio>

#include "bench_common.h"

using hermes::bench::Run;

int main() {
  const hermes::workload::Scenario& scaleout =
      hermes::workload::Registered("scaleout");
  std::printf("Fig. 14 reproduction: scale-out 3 -> 4 nodes at t=%llus "
              "(hot tenant on node 0, 25%% of load)\n",
              static_cast<unsigned long long>(scaleout.steps[0].at /
                                              1'000'000));

  // The Squall variants run Calvin with cold chunk migration only; Clay
  // monitors for 5 s before planning, so its node joins at t=20 s. The
  // Hermes variants size the fusion table at 5% or 10% of the database.
  const auto squall =
      Run("scaleout router=calvin hermes.fusion_table_capacity=0");
  const auto clay_squall =
      Run("scaleout router=calvin hermes.fusion_table_capacity=0 "
          "steps=add@20s:0-24999>3");
  const auto hermes_no5 = Run("scaleout steps=add@15s:0-24999>3:hot");
  const auto hermes_no10 = Run(
      "scaleout hermes.fusion_table_capacity=30000 "
      "steps=add@15s:0-24999>3:hot");
  const auto hermes_cold5 = Run("scaleout");

  hermes::bench::PrintSeriesTable(
      "Fig 14: throughput during scale-out",
      {"squall", "clay_squall", "hermes_no_cold_5", "hermes_no_cold_10",
       "hermes_cold_5"},
      {squall.throughput, clay_squall.throughput, hermes_no5.throughput,
       hermes_no10.throughput, hermes_cold5.throughput},
      scaleout.window / 1e6, "committed txns per 2s window");
  std::printf("\npaper shape: squall variants dip during migration; hermes "
              "rises right after the node joins; bigger fusion table rises "
              "higher; cold migration wins in the late phase\n");
  return 0;
}
