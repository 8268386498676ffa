// Reproduces Fig. 12: the multi-tenant workload whose hot spot rotates
// from node to node every rotation period (scaled from the paper's 500 s).
//
// Expected shape (paper): Calvin is flat and lowest (no balancing);
// T-Part slightly better; LEAP migrates smoothly but cannot balance; Clay
// eventually balances each hot spot but dips right after every rotation
// (migration lag + dedicated migration phases); Hermes adapts within
// batches and stays highest and most stable.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

int main() {
  const hermes::workload::Scenario& multitenant =
      hermes::workload::Registered("multitenant");
  std::printf("Fig. 12 reproduction: multi-tenant workload, hot spot "
              "rotates every %llu s (vertical events at t=15,30,45)\n",
              static_cast<unsigned long long>(multitenant.mt.rotation_us /
                                              1'000'000));

  std::vector<std::string> names;
  std::vector<hermes::bench::RunResult> runs;
  for (const auto& system : hermes::bench::Systems()) {
    names.push_back(system.name);
    runs.push_back(hermes::bench::Run("multitenant " + system.keys));
  }

  hermes::bench::PrintSeriesTable(
      "Fig 12: throughput over time", names,
      hermes::bench::Columns(runs, &hermes::bench::RunResult::throughput),
      multitenant.window / 1e6, "committed txns per 2s window");
  std::printf("\npaper shape: hermes highest and stable across rotations; "
              "clay recovers each hot spot but dips after changes; calvin "
              "lowest\n");
  return 0;
}
