#include "workload/ycsb.h"

#include <algorithm>
#include <cassert>

namespace hermes::workload {

Status YcsbConfig::Validate() const {
  if (num_records == 0) {
    return InvalidField("num_records", "be positive", num_records);
  }
  if (num_partitions < 1) {
    return InvalidField("num_partitions", "be at least 1", num_partitions);
  }
  if (!(distributed_ratio >= 0 && distributed_ratio <= 1)) {
    return InvalidField("distributed_ratio", "lie in [0, 1]",
                        distributed_ratio);
  }
  if (!(rw_ratio >= 0 && rw_ratio <= 1)) {
    return InvalidField("rw_ratio", "lie in [0, 1]", rw_ratio);
  }
  // ZipfianGenerator's formulas need 0 < theta < 1.
  if (!(zipf_theta > 0 && zipf_theta < 1)) {
    return InvalidField("zipf_theta", "lie in (0, 1)", zipf_theta);
  }
  if (!(global_zipf_theta > 0 && global_zipf_theta < 1)) {
    return InvalidField("global_zipf_theta", "lie in (0, 1)",
                        global_zipf_theta);
  }
  // Next() clamps a sampled length to [1, 200]; a fixed one must lie there.
  if (!(length_mean >= 1 && length_mean <= 200)) {
    return InvalidField("length_mean", "lie in [1, 200]", length_mean);
  }
  if (!(length_stddev >= 0)) {
    return InvalidField("length_stddev", "be non-negative", length_stddev);
  }
  if (hotspot_cycle_us == 0) {
    return InvalidField("hotspot_cycle_us", "be positive", hotspot_cycle_us);
  }
  return Status::Ok();
}

YcsbWorkload::YcsbWorkload(const YcsbConfig& config,
                           const SyntheticGoogleTrace* trace)
    : config_(config),
      trace_(trace),
      rng_(config.seed),
      partition_zipf_(
          std::max<uint64_t>(config.num_records / config.num_partitions, 1),
          config.zipf_theta),
      global_zipf_(config.num_records, config.global_zipf_theta),
      partition_size_(
          std::max<uint64_t>(config.num_records / config.num_partitions, 1)) {
  assert(config.num_partitions > 0);
}

uint64_t YcsbWorkload::GlobalPeak(SimTime now) const {
  const SimTime phase = now % config_.hotspot_cycle_us;
  return static_cast<uint64_t>(
      static_cast<double>(phase) / config_.hotspot_cycle_us *
      config_.num_records);
}

int YcsbWorkload::PickPartition(SimTime now) {
  if (trace_ == nullptr) {
    return static_cast<int>(rng_.NextBounded(config_.num_partitions));
  }
  const size_t window = now / trace_->config().window_us;
  if (window != cached_window_) {
    cached_weights_ = trace_->Weights(now);
    // Trace machines map 1:1 onto partitions; excess machines fold over.
    if (static_cast<int>(cached_weights_.size()) != config_.num_partitions) {
      std::vector<double> folded(config_.num_partitions, 0.0);
      for (size_t m = 0; m < cached_weights_.size(); ++m) {
        folded[m % config_.num_partitions] += cached_weights_[m];
      }
      cached_weights_ = std::move(folded);
    }
    cached_window_ = window;
  }
  return static_cast<int>(SampleDiscrete(rng_, cached_weights_));
}

Key YcsbWorkload::LocalKey(int partition) {
  const uint64_t offset = partition_zipf_.Next(rng_);
  const Key base = static_cast<Key>(partition) * partition_size_;
  return std::min<Key>(base + offset, config_.num_records - 1);
}

TxnRequest YcsbWorkload::Next(SimTime now) {
  TxnRequest txn;
  const bool distributed = rng_.NextDouble() < config_.distributed_ratio;
  const bool read_write = rng_.NextDouble() < config_.rw_ratio;
  const uint64_t length =
      config_.length_stddev == 0.0
          ? static_cast<uint64_t>(config_.length_mean)
          : SampleClampedNormal(rng_, config_.length_mean,
                                config_.length_stddev, 1, 200);

  const int partition = PickPartition(now);
  // Distributed transactions split their accesses between the local
  // pattern and the moving global hotspot; the paper's 2-record case is
  // one local + one global record.
  const uint64_t global_count = distributed ? std::max<uint64_t>(length / 2, 1) : 0;
  const uint64_t local_count = std::max<uint64_t>(length - global_count, 1);

  InlineVec<Key>& keys = txn.read_set;
  keys.reserve(local_count + global_count);
  for (uint64_t i = 0; i < local_count; ++i) keys.push_back(LocalKey(partition));
  const uint64_t peak = GlobalPeak(now);
  for (uint64_t i = 0; i < global_count; ++i) {
    keys.push_back(std::min<Key>(global_zipf_.Next(rng_, peak),
                                 config_.num_records - 1));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  if (read_write) txn.write_set = keys;
  txn.tag = partition;
  txn.home_sequencer = static_cast<NodeId>(partition);
  return txn;
}

YcsbConfig ReadHeavySkewedYcsb(uint64_t num_records, int num_partitions,
                               double write_fraction, uint64_t seed) {
  YcsbConfig config;
  config.num_records = num_records;
  config.num_partitions = num_partitions;
  // Nearly every transaction reaches into the global hot set from its own
  // partition, so hot-set reads arrive from all over the cluster.
  config.distributed_ratio = 0.9;
  config.rw_ratio = write_fraction;
  // Mild local skew, extreme global skew: a handful of keys absorb most
  // distributed accesses.
  config.zipf_theta = 0.6;
  config.global_zipf_theta = 0.99;
  // Four records per transaction: distributed transactions split 2 local
  // + 2 global, so a read-mostly transaction has two hot-set reads a
  // lease can localize.
  config.length_mean = 4.0;
  // A hotspot cycle far longer than any bench horizon: the hot set stays
  // put, which is when leases pay off (a fast-moving hotspot churns
  // grants instead).
  config.hotspot_cycle_us = 86'400ULL * 1'000'000ULL;
  config.seed = seed;
  return config;
}

}  // namespace hermes::workload
