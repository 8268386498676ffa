#ifndef HERMES_WORKLOAD_YCSB_H_
#define HERMES_WORKLOAD_YCSB_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "txn/transaction.h"
#include "workload/distributions.h"
#include "workload/google_trace.h"

namespace hermes::workload {

/// Configuration of the YCSB-on-Google-trace workload (§5.2.2).
struct YcsbConfig {
  uint64_t num_records = 1'000'000;
  int num_partitions = 20;
  /// Fraction of transactions that touch a globally distributed record.
  double distributed_ratio = 0.5;
  /// Fraction of read-modify-write transactions (rest are read-only).
  double rw_ratio = 0.5;
  /// Zipf skew inside a partition.
  double zipf_theta = 0.8;
  /// Zipf skew of the moving global hotspot.
  double global_zipf_theta = 0.7;
  /// Records accessed per transaction: sampled from a clamped normal
  /// (stddev 0 gives the paper's fixed 2-record transactions).
  double length_mean = 2.0;
  double length_stddev = 0.0;
  /// Period over which the global hotspot sweeps the whole key space
  /// ("active users around the world in 24 hours").
  SimTime hotspot_cycle_us = 2160 * 1'000'000ULL;
  uint64_t seed = 1;

  /// The values the generator can run with; the error names the field.
  Status Validate() const;

  bool operator==(const YcsbConfig&) const = default;
};

/// Read-heavy skewed YCSB (DESIGN.md §5 "Replica leases"): most
/// transactions pair a key from their own partition with a record drawn
/// from a highly skewed, effectively stationary global hot set, and only
/// `write_fraction` of them write. The stationary hot set is exactly the
/// case replica leases target — without them every distributed read
/// either ships to the hot record's master or ping-pongs it between
/// owners; with them each partition reads its local copy. Sweeping
/// `write_fraction` exposes the crossover where write fan-out eats the
/// read savings (bench_replication plots it). The `readheavy` scenario
/// (workload/scenarios.h) holds the same values; ledger/ calls this.
YcsbConfig ReadHeavySkewedYcsb(uint64_t num_records, int num_partitions,
                               double write_fraction, uint64_t seed);

/// Generates the paper's complex Google workload: local transactions pick
/// a partition with probability proportional to the traced machine load
/// and access Zipfian-hot records inside it; distributed transactions add
/// a record from a global two-sided Zipfian whose peak circles the key
/// space over time. 50% distributed / 50% read-write by default.
class YcsbWorkload {
 public:
  /// `trace` may be null, in which case partitions are weighted uniformly.
  YcsbWorkload(const YcsbConfig& config, const SyntheticGoogleTrace* trace);

  YcsbWorkload(const YcsbWorkload&) = delete;
  YcsbWorkload& operator=(const YcsbWorkload&) = delete;

  TxnRequest Next(SimTime now);

  const YcsbConfig& config() const { return config_; }
  uint64_t partition_size() const { return partition_size_; }

  /// Key the moving global hotspot peaks at, at time `now`.
  uint64_t GlobalPeak(SimTime now) const;

 private:
  Key LocalKey(int partition);
  int PickPartition(SimTime now);

  YcsbConfig config_;
  const SyntheticGoogleTrace* trace_;
  Rng rng_;
  ZipfianGenerator partition_zipf_;
  TwoSidedZipfian global_zipf_;
  uint64_t partition_size_;
  /// Cached trace weights (refreshed when the trace window changes).
  std::vector<double> cached_weights_;
  size_t cached_window_ = SIZE_MAX;
};

}  // namespace hermes::workload

#endif  // HERMES_WORKLOAD_YCSB_H_
