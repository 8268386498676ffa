#include "routing/leap_router.h"

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

class LeapRouterTest : public ::testing::Test {
 protected:
  LeapRouterTest()
      : ownership_(std::make_unique<RangePartitionMap>(100, 4)),
        router_(&ownership_, &costs_, 4) {}

  OwnershipMap ownership_;
  CostModel costs_;
  LeapRouter router_;
};

TEST_F(LeapRouterTest, MigratesAllAccessedRecordsToMaster) {
  RoutePlan plan =
      router_.RouteBatch(MakeBatch({MakeTxn(1, {10, 11, 90}, {90})}));
  const RoutedTxn& rt = plan.txns[0];
  EXPECT_EQ(rt.masters, (InlineVec<NodeId>{0}));
  for (const auto& acc : rt.accesses) {
    if (acc.key == 90) {
      EXPECT_EQ(acc.new_owner, 0);
      EXPECT_TRUE(acc.is_write);  // migration needs exclusivity
    }
  }
  // Unlike G-Store, the record stays: ownership updated, no returns.
  EXPECT_TRUE(rt.on_commit_returns.empty());
  EXPECT_EQ(ownership_.Owner(90), 0);
}

TEST_F(LeapRouterTest, TemporalLocalityMakesRepeatsLocal) {
  (void)router_.RouteBatch(MakeBatch({MakeTxn(1, {10, 11, 90}, {90})}));
  RoutePlan plan2 =
      router_.RouteBatch(MakeBatch({MakeTxn(2, {10, 11, 90}, {90})}));
  for (const auto& acc : plan2.txns[0].accesses) {
    EXPECT_FALSE(acc.ship_to_master);
    EXPECT_EQ(acc.new_owner, kInvalidNode);
  }
  EXPECT_EQ(router_.migrations(), 1u);
}

TEST_F(LeapRouterTest, PingPongWithoutReordering) {
  // The Fig. 3 pathology: alternating majorities bounce the shared record
  // back and forth because LEAP sees one transaction at a time.
  (void)router_.RouteBatch(MakeBatch({
      MakeTxn(1, {10, 11, 90}, {90}),  // 90 -> node 0
      MakeTxn(2, {80, 81, 90}, {90}),  // 90 -> node 3
      MakeTxn(3, {10, 11, 90}, {90}),  // 90 -> node 0 again
      MakeTxn(4, {80, 81, 90}, {90}),  // 90 -> node 3 again
  }));
  EXPECT_EQ(router_.migrations(), 4u);
}

TEST_F(LeapRouterTest, PileUpOnPopularNode) {
  // Once hot records fuse onto one node, LEAP keeps routing there — the
  // single-node bottleneck the paper observed.
  (void)router_.RouteBatch(MakeBatch({MakeTxn(1, {1, 2, 90}, {90})}));
  std::vector<TxnRequest> txns;
  for (TxnId i = 2; i < 12; ++i) txns.push_back(MakeTxn(i, {1, 2, 90}, {90}));
  RoutePlan plan = router_.RouteBatch(MakeBatch(std::move(txns)));
  for (const auto& rt : plan.txns) EXPECT_EQ(rt.masters[0], 0);
}

TEST_F(LeapRouterTest, MigrationBackHomeClearsOverlay) {
  (void)router_.RouteBatch(MakeBatch({MakeTxn(1, {10, 11, 90}, {90})}));
  ASSERT_EQ(ownership_.Owner(90), 0);
  // Majority now at node 3: record migrates home; overlay entry dropped.
  (void)router_.RouteBatch(MakeBatch({MakeTxn(2, {80, 81, 90}, {90})}));
  EXPECT_EQ(ownership_.Owner(90), 3);
  EXPECT_EQ(ownership_.num_key_overrides(), 0u);
}

}  // namespace
}  // namespace hermes::routing
