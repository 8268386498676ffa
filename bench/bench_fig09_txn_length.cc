// Reproduces Fig. 9: throughput improvement over Calvin as the number of
// records per transaction varies — (mean, std) of a clamped normal in
// {(5,5), (10,5), (10,10), (20,5), (20,10), (20,20)}.
//
// Expected shape (paper): Hermes improves consistently and the gain grows
// with the mean (longer transactions block conflicting transactions for
// longer, enlarging the contention footprint that the prescient routing
// shrinks).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

using hermes::bench::Run;
using hermes::bench::System;

int main() {
  std::printf("Fig. 9 reproduction: impact of transaction length "
              "(improvement in throughput over Calvin, %%)\n\n");
  const std::vector<std::pair<int, int>> settings = {
      {5, 5}, {10, 5}, {10, 10}, {20, 5}, {20, 10}, {20, 20}};

  std::printf("mean_std");
  const std::vector<System> systems = {{"clay", "router=calvin clay=1"},
                                       {"gstore", "router=gstore"},
                                       {"leap", "router=leap"},
                                       {"tpart", "router=tpart"},
                                       {"hermes", "router=hermes"}};
  for (const System& system : systems) std::printf(",%s", system.name.c_str());
  std::printf("\n");

  for (const auto& [mean, stddev] : settings) {
    // Five trace windows; longer txns: keep the closed loop sane.
    const std::string line = "google clients=1200 horizon=20s " +
                             std::string("ycsb.length_mean=") +
                             std::to_string(mean) + " ycsb.length_stddev=" +
                             std::to_string(stddev) + " ";
    const double calvin = Run(line + "router=calvin").mean_throughput;
    std::printf("(%2d,%2d)", mean, stddev);
    for (const System& system : systems) {
      const double tput = Run(line + system.keys).mean_throughput;
      std::printf(",%+.0f%%", 100.0 * (tput / calvin - 1.0));
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("\npaper shape: hermes improves at every setting, more at "
              "higher means\n");
  return 0;
}
