// Reproduces Fig. 7: the per-transaction average latency breakdown
// (scheduling / waiting for locks / local storage+execution / waiting for
// remote data / other) for every system under the Google workload.
//
// Expected shape (paper): Hermes has the smallest lock and remote waits
// (prescient routing minimizes distributed transactions and balances
// load); Hermes' scheduling slice (~2 ms, ~4% of latency) is larger than
// the baselines' but negligible overall; Calvin has the largest waits.

#include <cstdio>

#include "bench_common.h"

int main() {
  std::printf("Fig. 7 reproduction: average latency breakdown "
              "(milliseconds)\n\n");
  std::printf("system  ,   sched,   locks, storage,  remote,   other,   "
              "total,     p50,     p99\n");
  for (const hermes::bench::System& system : hermes::bench::Systems()) {
    // Six trace windows.
    const hermes::bench::RunResult r =
        hermes::bench::Run("google horizon=24s " + system.keys);
    const auto& l = r.avg_latency;
    std::printf("%-8s,%8.2f,%8.2f,%8.2f,%8.2f,%8.2f,%8.2f,%8.2f,%8.2f\n",
                system.name.c_str(), l.scheduling_us / 1e3,
                l.lock_wait_us / 1e3, l.storage_us / 1e3,
                l.remote_wait_us / 1e3, l.other_us / 1e3, l.total_us / 1e3,
                r.latency_p50_us / 1e3, r.latency_p99_us / 1e3);
  }
  std::printf("\npaper shape: hermes minimizes lock+remote waits; its "
              "scheduling cost (~2ms) stays a small fraction of total\n");
  return 0;
}
