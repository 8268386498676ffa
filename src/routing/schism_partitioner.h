#ifndef HERMES_ROUTING_SCHISM_PARTITIONER_H_
#define HERMES_ROUTING_SCHISM_PARTITIONER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.h"
#include "partition/partition_map.h"
#include "txn/transaction.h"

namespace hermes::routing {

/// Schism baseline (Curino et al., VLDB'10; paper §5.2.1): *offline*
/// workload-driven partitioning. A workload trace is modeled as a graph —
/// vertices are key ranges (weight = access frequency), edges are
/// co-access frequencies within a transaction — and partitioned with a
/// balanced min-cut partitioner (MetisLite standing in for METIS). The
/// result is a static PartitionMap; the paper uses it as the "optimal"
/// look-back placement for a chosen trace window (Fig. 6a's Schism 1/2).
class SchismPartitioner {
 public:
  SchismPartitioner(uint64_t num_records, uint64_t range_size);

  SchismPartitioner(const SchismPartitioner&) = delete;
  SchismPartitioner& operator=(const SchismPartitioner&) = delete;

  /// Adds one traced transaction to the co-access graph.
  void Observe(const TxnRequest& txn);

  /// Clears the accumulated trace (to train on a different window).
  void Reset();

  /// Runs the graph partitioner and returns the resulting static map.
  std::unique_ptr<partition::PartitionMap> Partition(
      int num_partitions, double imbalance = 0.10) const;

  uint64_t observed_txns() const { return observed_; }

 private:
  uint64_t num_records_;
  uint64_t range_size_;
  uint64_t num_ranges_;
  /// Vertex weight of each range, by range id: 1 plus the transactions
  /// touching it, so no range is weightless.
  std::vector<uint64_t> range_weight_;
  /// (lo_range << 32 | hi_range) -> co-access count.
  FlatMap<uint64_t, uint64_t> edge_weight_;
  uint64_t observed_ = 0;
};

}  // namespace hermes::routing

#endif  // HERMES_ROUTING_SCHISM_PARTITIONER_H_
