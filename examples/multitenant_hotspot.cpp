// Example: a multi-tenant SaaS database whose hot tenant changes as users
// around the world wake up (§5.3.2 scenario). Runs the `multitenant`
// registry entry (workload/scenarios.h) with the hot node rotating every
// 10 s, on a baseline, a baseline with Clay's look-back planner attached,
// LEAP and Hermes, and reads the per-window metrics as the hot spot
// rotates.
//
//   ./build/examples/example_multitenant_hotspot

#include <cstdio>
#include <string>

#include "workload/scenarios.h"

namespace {

void Run(const std::string& keys, const char* label) {
  const hermes::workload::DrainedRun run =
      hermes::workload::RunScenario(hermes::workload::MustParse(
          "multitenant horizon=40s mt.rotation_us=10s " + keys));
  const auto& metrics = run.cluster->metrics();
  std::printf("%-12s", label);
  const auto& windows = metrics.windows();
  for (size_t w = 0; w < 40 && w < windows.size(); w += 5) {
    // Print every 5th one-second window.
    std::printf(" %6llu",
                static_cast<unsigned long long>(windows[w].commits));
  }
  std::printf("   total=%llu\n",
              static_cast<unsigned long long>(metrics.total_commits()));
}

}  // namespace

int main() {
  std::printf("Multi-tenant workload: 16 tenants on 4 nodes, 90%% of load "
              "on one node's tenants, hot node rotates every 10 s\n");
  std::printf("(throughput samples, txn/s at t=0,5,10,...)\n\n");
  Run("router=calvin", "calvin");
  Run("router=calvin clay=1", "clay");
  Run("router=leap", "leap");
  Run("router=hermes", "hermes");
  std::printf("\nHermes re-balances within batches, so its samples stay "
              "high across every rotation.\n");
  return 0;
}
