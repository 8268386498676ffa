#ifndef HERMES_WORKLOAD_MULTITENANT_H_
#define HERMES_WORKLOAD_MULTITENANT_H_

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "partition/partition_map.h"
#include "txn/transaction.h"
#include "workload/distributions.h"

namespace hermes::workload {

/// The multi-tenant workload of §5.3.2: each node hosts several
/// non-overlapping tenant databases; every transaction reads-modifies-
/// writes two Zipfian records of a single tenant; a large fraction of
/// requests concentrate on the tenants of one "hot" node, and the hot
/// node rotates periodically (different tenants serve users who wake up
/// at different times around the world).
struct MultiTenantConfig {
  int num_nodes = 4;
  int tenants_per_node = 4;
  uint64_t records_per_tenant = 250'000;
  double zipf_theta = 0.9;
  /// Fraction of requests aimed at the hot node's tenants.
  double hot_fraction = 0.9;
  /// Hot node rotation period (paper: 500 s).
  SimTime rotation_us = 500 * 1'000'000ULL;
  /// Records per transaction.
  int records_per_txn = 2;
  uint64_t seed = 2;

  /// The values the generator can run with; the error names the field.
  Status Validate() const;

  bool operator==(const MultiTenantConfig&) const = default;
};

class MultiTenantWorkload {
 public:
  explicit MultiTenantWorkload(const MultiTenantConfig& config);

  MultiTenantWorkload(const MultiTenantWorkload&) = delete;
  MultiTenantWorkload& operator=(const MultiTenantWorkload&) = delete;

  TxnRequest Next(SimTime now);

  /// Node whose tenants are hot at time `now` (rotates).
  NodeId HotNode(SimTime now) const;

  uint64_t num_records() const { return num_records_; }
  int num_tenants() const { return num_tenants_; }
  uint64_t tenant_size() const { return config_.records_per_tenant; }
  const MultiTenantConfig& config() const { return config_; }

  /// The Fig. 13 skewed placement: the first `skewed_tenants` tenants all
  /// on node 0, the rest spread over the other nodes. (Its perfect
  /// placement is the range one, and its hash placement the hash one.)
  std::unique_ptr<partition::PartitionMap> SkewedPartitioning(
      int skewed_tenants) const;

 private:
  MultiTenantConfig config_;
  Rng rng_;
  ZipfianGenerator tenant_zipf_;
  int num_tenants_;
  uint64_t num_records_;
};

}  // namespace hermes::workload

#endif  // HERMES_WORKLOAD_MULTITENANT_H_
