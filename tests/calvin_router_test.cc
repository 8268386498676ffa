#include "routing/calvin_router.h"

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

class CalvinRouterTest : public ::testing::Test {
 protected:
  CalvinRouterTest()
      : ownership_(std::make_unique<RangePartitionMap>(100, 4)),
        router_(&ownership_, &costs_, 4) {}

  OwnershipMap ownership_;
  CostModel costs_;
  CalvinRouter router_;
};

TEST_F(CalvinRouterTest, MultiMasterForDistributedWrites) {
  // Writes on nodes 0 and 3 -> both are masters.
  RoutePlan plan =
      router_.RouteBatch(MakeBatch({MakeTxn(1, {10, 90}, {10, 90})}));
  ASSERT_EQ(plan.txns.size(), 1u);
  EXPECT_EQ(plan.txns[0].masters, (InlineVec<NodeId>{0, 3}));
  // Each read ships to the remote master; nothing migrates.
  for (const auto& acc : plan.txns[0].accesses) {
    EXPECT_TRUE(acc.ship_to_master);
    EXPECT_EQ(acc.new_owner, kInvalidNode);
  }
}

TEST_F(CalvinRouterTest, SingleNodeTxnHasOneMasterNoShipping) {
  RoutePlan plan =
      router_.RouteBatch(MakeBatch({MakeTxn(1, {10, 11}, {10})}));
  EXPECT_EQ(plan.txns[0].masters, (InlineVec<NodeId>{0}));
  for (const auto& acc : plan.txns[0].accesses) {
    EXPECT_FALSE(acc.ship_to_master);
  }
}

TEST_F(CalvinRouterTest, ReadOnlyDistributedRunsOnAllOwners) {
  // Every owner executes the logic (deterministic execution), so each
  // read record is multicast to the other participants.
  RoutePlan plan =
      router_.RouteBatch(MakeBatch({MakeTxn(1, {80, 81, 10}, {})}));
  EXPECT_EQ(plan.txns[0].masters, (InlineVec<NodeId>{0, 3}));
  for (const auto& acc : plan.txns[0].accesses) {
    EXPECT_TRUE(acc.ship_to_master);
  }
}

TEST_F(CalvinRouterTest, LocalReadOnlySingleMasterNoShipping) {
  RoutePlan plan = router_.RouteBatch(MakeBatch({MakeTxn(1, {80, 81}, {})}));
  EXPECT_EQ(plan.txns[0].masters, (InlineVec<NodeId>{3}));
  for (const auto& acc : plan.txns[0].accesses) {
    EXPECT_FALSE(acc.ship_to_master);
  }
}

TEST_F(CalvinRouterTest, BlindWritesShipNothing) {
  // Key 90 written but not read: its pre-value is not needed anywhere.
  RoutePlan plan =
      router_.RouteBatch(MakeBatch({MakeTxn(1, {10}, {10, 90})}));
  for (const auto& acc : plan.txns[0].accesses) {
    if (acc.key == 90) {
      EXPECT_FALSE(acc.ship_to_master);
    }
  }
}

TEST_F(CalvinRouterTest, PreservesBatchOrder) {
  std::vector<TxnRequest> txns;
  for (TxnId i = 1; i <= 10; ++i) txns.push_back(MakeTxn(i, {i}, {i}));
  RoutePlan plan = router_.RouteBatch(MakeBatch(std::move(txns)));
  for (size_t i = 0; i < plan.txns.size(); ++i) {
    EXPECT_EQ(plan.txns[i].txn.id, i + 1);
  }
}

TEST_F(CalvinRouterTest, NeverTouchesOwnership) {
  (void)router_.RouteBatch(
      MakeBatch({MakeTxn(1, {10, 90}, {10, 90}), MakeTxn(2, {5, 50}, {5})}));
  EXPECT_EQ(ownership_.num_key_overrides(), 0u);
}

TEST_F(CalvinRouterTest, RmwKeyAtMasterShipsToOtherMasters) {
  // Key 10 (node 0) and 90 (node 3), both read-modify-write: each master
  // owns one key and needs the other's value.
  RoutePlan plan =
      router_.RouteBatch(MakeBatch({MakeTxn(1, {10, 90}, {10, 90})}));
  for (const auto& acc : plan.txns[0].accesses) {
    EXPECT_TRUE(acc.is_write);
    EXPECT_TRUE(acc.ship_to_master);
  }
}

TEST_F(CalvinRouterTest, ChunkMigrationRehomesRange) {
  TxnRequest chunk;
  chunk.id = 7;
  chunk.kind = TxnKind::kChunkMigration;
  chunk.mutable_extras().migration_target = 2;
  for (Key k = 0; k < 5; ++k) chunk.write_set.push_back(k);
  RoutePlan plan = router_.RouteBatch(MakeBatch({chunk}));
  EXPECT_EQ(plan.txns[0].masters, (InlineVec<NodeId>{2}));
  EXPECT_EQ(plan.txns[0].accesses.size(), 5u);
  EXPECT_EQ(ownership_.Owner(3), 2);
  EXPECT_EQ(ownership_.Owner(5), 0);
}

TEST_F(CalvinRouterTest, ProvisioningMarkersAdjustActiveSet) {
  TxnRequest add;
  add.kind = TxnKind::kAddNode;
  add.mutable_extras().migration_target = 4;
  (void)router_.RouteBatch(MakeBatch({add}));
  EXPECT_EQ(router_.num_active_nodes(), 5);

  TxnRequest remove;
  remove.kind = TxnKind::kRemoveNode;
  remove.mutable_extras().migration_target = 1;
  (void)router_.RouteBatch(MakeBatch({remove}));
  EXPECT_EQ(router_.num_active_nodes(), 4);
}

}  // namespace
}  // namespace hermes::routing
