#include "routing/schism_partitioner.h"

#include <algorithm>
#include <vector>

#include "routing/metis_lite.h"

namespace hermes::routing {

SchismPartitioner::SchismPartitioner(uint64_t num_records,
                                     uint64_t range_size)
    : num_records_(num_records), range_size_(range_size) {
  num_ranges_ = (num_records_ + range_size_ - 1) / range_size_;
  if (num_ranges_ == 0) num_ranges_ = 1;
  range_weight_.assign(num_ranges_, 1);
}

void SchismPartitioner::Observe(const TxnRequest& txn) {
  ++observed_;
  std::vector<uint64_t> ranges;
  ranges.reserve(txn.read_set.size() + txn.write_set.size());
  for (Key k : txn.read_set) ranges.push_back(k / range_size_);
  for (Key k : txn.write_set) ranges.push_back(k / range_size_);
  std::sort(ranges.begin(), ranges.end());
  ranges.erase(std::unique(ranges.begin(), ranges.end()), ranges.end());
  // Keys past the last range have no vertex in the graph.
  ranges.erase(std::lower_bound(ranges.begin(), ranges.end(), num_ranges_),
               ranges.end());
  for (uint64_t r : ranges) ++range_weight_[r];
  for (size_t i = 0; i < ranges.size(); ++i) {
    for (size_t j = i + 1; j < ranges.size(); ++j) {
      ++edge_weight_[(ranges[i] << 32) | ranges[j]];
    }
  }
}

void SchismPartitioner::Reset() {
  range_weight_.assign(num_ranges_, 1);
  edge_weight_.clear();
  observed_ = 0;
}

std::unique_ptr<partition::PartitionMap> SchismPartitioner::Partition(
    int num_partitions, double imbalance) const {
  Graph graph;
  graph.vertex_weight = range_weight_;
  graph.adj.assign(num_ranges_, {});
  // Ascending (lo, hi) pairs with lo < hi reach each range's list as its
  // lower neighbours, then its higher ones: every list comes out sorted.
  for (uint64_t packed : edge_weight_.SortedKeys()) {
    const auto a = static_cast<uint32_t>(packed >> 32);
    const auto b = static_cast<uint32_t>(packed & 0xffffffffULL);
    const uint64_t weight = edge_weight_.at(packed);
    graph.adj[a].emplace_back(b, weight);
    graph.adj[b].emplace_back(a, weight);
  }

  const std::vector<int> assignment =
      PartitionGraph(graph, num_partitions, imbalance);
  std::vector<NodeId> owners(num_ranges_);
  for (uint64_t r = 0; r < num_ranges_; ++r) {
    owners[r] = static_cast<NodeId>(assignment[r]);
  }
  return std::make_unique<partition::MappedRangePartitionMap>(
      range_size_, std::move(owners), num_partitions);
}

}  // namespace hermes::routing
