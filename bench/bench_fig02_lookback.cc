// Reproduces Fig. 2: the motivating experiment — Calvin under the complex
// Google workload with a naive range partitioning, with Clay's look-back
// re-partitioning, and with LEAP's look-present migration. Expected shape
// (paper): Clay barely beats the naive range partitioning because episodic
// load is unpredictable from the past; LEAP does better via temporal
// locality but remains well below Hermes (see Fig. 6).

#include <cstdio>

#include "bench_common.h"

using hermes::bench::MeanOf;
using hermes::bench::PrintSeriesTable;
using hermes::bench::Run;
using hermes::bench::RunResult;

int main() {
  std::printf("Fig. 2 reproduction: Calvin + {range, Clay, LEAP} under the "
              "synthetic Google workload\n");

  const RunResult range = Run("google router=calvin");
  const RunResult clay = Run("google router=calvin clay=1");
  const RunResult leap = Run("google router=leap");

  PrintSeriesTable("Fig 2: throughput over time",
                   {"range_partition", "clay", "leap"},
                   {range.throughput, clay.throughput, leap.throughput},
                   hermes::workload::Registered("google").window / 1e6,
                   "committed txns per window");

  const size_t n = range.throughput.size();
  std::printf("\nsummary (mean txn/window, windows 2..%zu):\n", n);
  std::printf("  range: %.0f\n  clay:  %.0f\n  leap:  %.0f\n",
              MeanOf(range.throughput, 2, n), MeanOf(clay.throughput, 2, n),
              MeanOf(leap.throughput, 2, n));
  std::printf("paper shape: clay ~ range (look-back fails on episodic "
              "load); leap noticeably above both\n");
  return 0;
}
