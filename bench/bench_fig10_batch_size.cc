// Reproduces Fig. 10: Hermes throughput as a function of the batch size
// analyzed by the prescient routing.
//
// Expected shape (paper): throughput rises with batch size (better routing
// plans from a longer look-ahead), peaks, then drops when the quadratic
// routing analysis saturates the scheduler pipeline.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.h"

int main() {
  std::printf("Fig. 10 reproduction: batch size vs Hermes throughput\n\n");
  std::printf("batch_size,throughput_txn_s\n");
  for (size_t batch : {10u, 30u, 100u, 300u, 1000u, 3000u}) {
    // Batch size is set by how long the sequencer collects requests: at
    // the ~28k txn/s this configuration sustains, an epoch of batch*35us
    // accumulates ~batch requests. Larger batches therefore also pay
    // batching latency — part of the trade-off the paper measures.
    const size_t epoch_us = std::max<size_t>(batch * 35, 400);
    const double tput =
        hermes::bench::Run("google horizon=20s epoch_us=" +
                           std::to_string(epoch_us) +
                           "us max_batch_size=" + std::to_string(batch))
            .mean_throughput;
    std::printf("%zu,%.0f\n", batch, tput);
    std::fflush(stdout);
  }
  std::printf("\npaper shape: rising, a plateau/peak at a moderate batch "
              "size, then a decline for very large batches\n");
  return 0;
}
