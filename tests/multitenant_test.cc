#include "workload/multitenant.h"

#include <memory>

#include <gtest/gtest.h>

#include "partition/partition_map.h"

namespace hermes::workload {
namespace {

MultiTenantConfig SmallMt() {
  MultiTenantConfig config;
  config.num_nodes = 4;
  config.tenants_per_node = 4;
  config.records_per_tenant = 10'000;
  config.rotation_us = 1'000'000;
  config.seed = 8;
  return config;
}

TEST(MultiTenantTest, TxnStaysWithinOneTenant) {
  MultiTenantWorkload gen(SmallMt());
  for (int i = 0; i < 2000; ++i) {
    const TxnRequest txn = gen.Next(0);
    const uint64_t tenant = txn.read_set.front() / gen.tenant_size();
    for (Key k : txn.read_set) EXPECT_EQ(k / gen.tenant_size(), tenant);
    EXPECT_EQ(txn.read_set, txn.write_set);  // read-modify-write
    EXPECT_EQ(txn.tag, static_cast<int32_t>(tenant));
  }
}

TEST(MultiTenantTest, HotNodeRotates) {
  MultiTenantWorkload gen(SmallMt());
  EXPECT_EQ(gen.HotNode(0), 0);
  EXPECT_EQ(gen.HotNode(1'000'000), 1);
  EXPECT_EQ(gen.HotNode(3'999'999), 3);
  EXPECT_EQ(gen.HotNode(4'000'000), 0);  // wraps
}

TEST(MultiTenantTest, HotFractionTargetsHotNode) {
  MultiTenantConfig config = SmallMt();
  config.hot_fraction = 0.9;
  MultiTenantWorkload gen(config);
  int hot = 0;
  constexpr int kSamples = 20'000;
  for (int i = 0; i < kSamples; ++i) {
    const TxnRequest txn = gen.Next(0);  // hot node 0
    if (txn.tag < config.tenants_per_node) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(hot) / kSamples, 0.9, 0.02);
}

TEST(MultiTenantTest, OneNodeServesOnlyItsOwnTenants) {
  MultiTenantConfig config = SmallMt();
  config.num_nodes = 1;
  config.hot_fraction = 0;  // no cold tenant exists to draw
  MultiTenantWorkload gen(config);
  for (int i = 0; i < 1000; ++i) {
    const TxnRequest txn = gen.Next(0);
    EXPECT_LT(txn.tag, config.tenants_per_node);
    for (Key k : txn.read_set) EXPECT_LT(k, gen.num_records());
  }
}

TEST(MultiTenantTest, ColdTenantsStillServed) {
  MultiTenantWorkload gen(SmallMt());
  std::vector<int> tenant_hits(gen.num_tenants(), 0);
  for (int i = 0; i < 50'000; ++i) ++tenant_hits[gen.Next(0).tag];
  for (int t = 0; t < gen.num_tenants(); ++t) {
    EXPECT_GT(tenant_hits[t], 0) << "tenant " << t;
  }
}

// A range placement (the scenarios' placement=range) is the perfect one:
// each tenant on its own node.
TEST(MultiTenantTest, RangePlacementAlignsTenantsToNodes) {
  MultiTenantWorkload gen(SmallMt());
  auto map = std::make_unique<partition::RangePartitionMap>(
      gen.num_records(), 4);
  for (int t = 0; t < gen.num_tenants(); ++t) {
    const Key first = static_cast<Key>(t) * gen.tenant_size();
    const Key last = first + gen.tenant_size() - 1;
    EXPECT_EQ(map->Owner(first), t / 4);
    EXPECT_EQ(map->Owner(last), t / 4);
  }
}

TEST(MultiTenantTest, SkewedPartitioningPilesOnNodeZero) {
  MultiTenantWorkload gen(SmallMt());
  auto map = gen.SkewedPartitioning(7);
  // First 7 tenants on node 0.
  for (int t = 0; t < 7; ++t) {
    EXPECT_EQ(map->Owner(static_cast<Key>(t) * gen.tenant_size()), 0);
  }
  // Remaining tenants spread over nodes 1..3.
  std::vector<int> counts(4, 0);
  for (int t = 7; t < gen.num_tenants(); ++t) {
    ++counts[map->Owner(static_cast<Key>(t) * gen.tenant_size())];
  }
  EXPECT_EQ(counts[0], 0);
  for (int n = 1; n < 4; ++n) EXPECT_GT(counts[n], 0);
}

TEST(MultiTenantTest, HashPlacementScattersTenants) {
  MultiTenantWorkload gen(SmallMt());
  auto map =
      std::make_unique<partition::HashPartitionMap>(gen.num_records(), 4);
  // A single tenant's keys land on several nodes (creates distributed
  // transactions from an originally local workload).
  std::vector<bool> seen(4, false);
  for (Key k = 0; k < gen.tenant_size(); ++k) seen[map->Owner(k)] = true;
  int nodes = 0;
  for (bool s : seen) nodes += s;
  EXPECT_GE(nodes, 3);
}

TEST(MultiTenantTest, DeterministicForSeed) {
  MultiTenantWorkload a(SmallMt()), b(SmallMt());
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.Next(i * 1000).read_set, b.Next(i * 1000).read_set);
  }
}

}  // namespace
}  // namespace hermes::workload
