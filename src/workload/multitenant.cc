#include "workload/multitenant.h"

#include <algorithm>
#include <cassert>

namespace hermes::workload {

Status MultiTenantConfig::Validate() const {
  if (num_nodes < 1) {
    return InvalidField("num_nodes", "be at least 1", num_nodes);
  }
  if (tenants_per_node < 1) {
    return InvalidField("tenants_per_node", "be at least 1",
                        tenants_per_node);
  }
  if (records_per_tenant == 0) {
    return InvalidField("records_per_tenant", "be positive",
                        records_per_tenant);
  }
  if (!(zipf_theta > 0 && zipf_theta < 1)) {
    return InvalidField("zipf_theta", "lie in (0, 1)", zipf_theta);
  }
  if (!(hot_fraction >= 0 && hot_fraction <= 1)) {
    return InvalidField("hot_fraction", "lie in [0, 1]", hot_fraction);
  }
  if (rotation_us == 0) {
    return InvalidField("rotation_us", "be positive", rotation_us);
  }
  if (records_per_txn < 1) {
    return InvalidField("records_per_txn", "be at least 1", records_per_txn);
  }
  return Status::Ok();
}

MultiTenantWorkload::MultiTenantWorkload(const MultiTenantConfig& config)
    : config_(config),
      rng_(config.seed),
      tenant_zipf_(config.records_per_tenant, config.zipf_theta),
      num_tenants_(config.num_nodes * config.tenants_per_node),
      num_records_(static_cast<uint64_t>(num_tenants_) *
                   config.records_per_tenant) {
  assert(num_tenants_ > 0);
}

NodeId MultiTenantWorkload::HotNode(SimTime now) const {
  return static_cast<NodeId>((now / config_.rotation_us) % config_.num_nodes);
}

TxnRequest MultiTenantWorkload::Next(SimTime now) {
  const NodeId hot = HotNode(now);
  int tenant;
  // A one-node cluster has no other tenants to aim the cold share at.
  if (config_.num_nodes == 1 || rng_.NextDouble() < config_.hot_fraction) {
    tenant = hot * config_.tenants_per_node +
             static_cast<int>(rng_.NextBounded(config_.tenants_per_node));
  } else {
    // Uniform over the tenants of the other nodes.
    const int others = num_tenants_ - config_.tenants_per_node;
    int pick = static_cast<int>(rng_.NextBounded(others));
    const int hot_first = hot * config_.tenants_per_node;
    if (pick >= hot_first) pick += config_.tenants_per_node;
    tenant = pick;
  }

  TxnRequest txn;
  InlineVec<Key>& keys = txn.read_set;
  keys.reserve(config_.records_per_txn);
  const Key base = static_cast<Key>(tenant) * config_.records_per_tenant;
  for (int i = 0; i < config_.records_per_txn; ++i) {
    keys.push_back(base + tenant_zipf_.Next(rng_));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  txn.write_set = keys;  // read, modify, write
  txn.tag = tenant;
  txn.home_sequencer = static_cast<NodeId>(tenant / config_.tenants_per_node);
  return txn;
}

std::unique_ptr<partition::PartitionMap>
MultiTenantWorkload::SkewedPartitioning(int skewed_tenants) const {
  // Node 0 takes the first `skewed_tenants` tenants; the remaining tenants
  // are split evenly across the other nodes.
  std::vector<Key> bounds;
  bounds.push_back(0);
  const Key skew_end =
      static_cast<Key>(skewed_tenants) * config_.records_per_tenant;
  bounds.push_back(skew_end);
  const int rest_nodes = config_.num_nodes - 1;
  assert(rest_nodes > 0);
  const uint64_t rest = num_records_ - skew_end;
  for (int i = 1; i < rest_nodes; ++i) {
    bounds.push_back(skew_end + rest * i / rest_nodes);
  }
  bounds.push_back(num_records_);
  return std::make_unique<partition::CustomRangePartitionMap>(
      std::move(bounds));
}

}  // namespace hermes::workload
