#include "routing/gstore_router.h"

#include <memory>

#include <gtest/gtest.h>

#include "partition/partition_map.h"

namespace hermes::routing {
namespace {

using partition::OwnershipMap;
using partition::RangePartitionMap;

TxnRequest MakeTxn(TxnId id, std::vector<Key> reads, std::vector<Key> writes) {
  TxnRequest txn;
  txn.id = id;
  txn.read_set.assign(reads.begin(), reads.end());
  txn.write_set.assign(writes.begin(), writes.end());
  return txn;
}

Batch MakeBatch(std::vector<TxnRequest> txns) {
  Batch batch;
  batch.txns = std::move(txns);
  return batch;
}

class GStoreRouterTest : public ::testing::Test {
 protected:
  GStoreRouterTest()
      : ownership_(std::make_unique<RangePartitionMap>(100, 4)),
        router_(&ownership_, &costs_, 4) {}

  OwnershipMap ownership_;
  CostModel costs_;
  GStoreRouter router_;
};

TEST_F(GStoreRouterTest, GroupsPullToMajorityOwnerAndReturn) {
  RoutePlan plan =
      router_.RouteBatch(MakeBatch({MakeTxn(1, {10, 11, 90}, {90})}));
  ASSERT_EQ(plan.txns.size(), 1u);
  const RoutedTxn& rt = plan.txns[0];
  EXPECT_EQ(rt.masters, (InlineVec<NodeId>{0}));

  // Key 90 checks out to node 0 (exclusively, even though it is also
  // read) and returns home on commit.
  bool saw90 = false;
  for (const auto& acc : rt.accesses) {
    if (acc.key == 90) {
      saw90 = true;
      EXPECT_TRUE(acc.is_write);
      EXPECT_TRUE(acc.ship_to_master);
      EXPECT_EQ(acc.new_owner, 0);
    } else {
      EXPECT_EQ(acc.new_owner, kInvalidNode);
    }
  }
  EXPECT_TRUE(saw90);
  ASSERT_EQ(rt.on_commit_returns.size(), 1u);
  EXPECT_EQ(rt.on_commit_returns[0].key, 90u);
  EXPECT_EQ(rt.on_commit_returns[0].from, 0);
  EXPECT_EQ(rt.on_commit_returns[0].to, 3);
}

TEST_F(GStoreRouterTest, ReadOnlyRemoteKeysAlsoCheckOut) {
  // G-Store groups the whole access set, reads included.
  RoutePlan plan =
      router_.RouteBatch(MakeBatch({MakeTxn(1, {10, 11, 90}, {})}));
  const RoutedTxn& rt = plan.txns[0];
  ASSERT_EQ(rt.on_commit_returns.size(), 1u);
  EXPECT_EQ(rt.on_commit_returns[0].key, 90u);
}

TEST_F(GStoreRouterTest, OwnershipMapNeverChanges) {
  (void)router_.RouteBatch(MakeBatch({MakeTxn(1, {10, 90}, {10, 90})}));
  EXPECT_EQ(ownership_.num_key_overrides(), 0u);
  EXPECT_EQ(ownership_.Owner(90), 3);
}

TEST_F(GStoreRouterTest, LocalTxnNoReturns) {
  RoutePlan plan = router_.RouteBatch(MakeBatch({MakeTxn(1, {10, 11}, {10})}));
  EXPECT_TRUE(plan.txns[0].on_commit_returns.empty());
}

TEST_F(GStoreRouterTest, NoLoadBalancing) {
  // All transactions hit node 0's keys: all route to node 0 regardless of
  // load (G-Store's documented weakness).
  std::vector<TxnRequest> txns;
  for (TxnId i = 1; i <= 20; ++i) txns.push_back(MakeTxn(i, {1, 2}, {1}));
  RoutePlan plan = router_.RouteBatch(MakeBatch(std::move(txns)));
  for (const auto& rt : plan.txns) EXPECT_EQ(rt.masters[0], 0);
}

}  // namespace
}  // namespace hermes::routing
