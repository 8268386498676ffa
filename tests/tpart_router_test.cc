#include "routing/tpart_router.h"

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
  txn.read_set = std::move(reads);
  txn.write_set = std::move(writes);
  return txn;
}

Batch MakeBatch(std::vector<TxnRequest> txns) {
  Batch batch;
  batch.txns = std::move(txns);
  return batch;
}

class TPartRouterTest : public ::testing::Test {
 protected:
  TPartRouterTest()
      : ownership_(std::make_unique<RangePartitionMap>(100, 4)),
        router_(&ownership_, &costs_, 4) {}

  OwnershipMap ownership_;
  CostModel costs_;
  TPartRouter router_;
};

TEST_F(TPartRouterTest, ForwardPushesWithinBatch) {
  // High alpha so the load cap does not override locality in a 2-txn batch.
  TPartRouter router(&ownership_, &costs_, 4, /*alpha=*/8.0);
  RoutePlan plan = router.RouteBatch(MakeBatch({
      MakeTxn(1, {10, 11, 90}, {90}),  // borrows 90 to node 0
      MakeTxn(2, {10, 90}, {90}),      // reads 90 from node 0, not node 3
  }));
  ASSERT_EQ(plan.txns.size(), 2u);
  const RoutedTxn& t2 = plan.txns[1];
  EXPECT_EQ(t2.masters[0], 0);
  for (const auto& acc : t2.accesses) {
    if (acc.key == 90) {
      EXPECT_EQ(acc.owner, 0);  // forwarded source, not home
      EXPECT_FALSE(acc.ship_to_master);
    }
  }
  EXPECT_EQ(router.forward_pushes(), 0u);  // same node: no push needed

  // The borrowed record ships home after the LAST user (t2) commits.
  EXPECT_TRUE(plan.txns[0].on_commit_returns.empty());
  ASSERT_EQ(t2.on_commit_returns.size(), 1u);
  EXPECT_EQ(t2.on_commit_returns[0].key, 90u);
  EXPECT_EQ(t2.on_commit_returns[0].from, 0);
  EXPECT_EQ(t2.on_commit_returns[0].to, 3);
}

TEST_F(TPartRouterTest, WritebackResetsAcrossBatches) {
  (void)router_.RouteBatch(MakeBatch({MakeTxn(1, {10, 11, 90}, {90})}));
  // New batch: 90 is home again (the previous batch returned it).
  RoutePlan plan = router_.RouteBatch(MakeBatch({MakeTxn(2, {90}, {})}));
  EXPECT_EQ(plan.txns[0].accesses[0].owner, 3);
  EXPECT_EQ(router_.writebacks(), 1u);
}

TEST_F(TPartRouterTest, OwnershipMapUntouched) {
  (void)router_.RouteBatch(MakeBatch({MakeTxn(1, {10, 90}, {10, 90})}));
  EXPECT_EQ(ownership_.num_key_overrides(), 0u);
}

TEST_F(TPartRouterTest, BalancesLoadUnderCap) {
  // 40 identical single-key transactions on node 0's data; theta = 10, so
  // the excess spreads across other nodes.
  std::vector<TxnRequest> txns;
  for (TxnId i = 1; i <= 40; ++i) txns.push_back(MakeTxn(i, {1}, {}));
  RoutePlan plan = router_.RouteBatch(MakeBatch(std::move(txns)));
  std::vector<int> load(4, 0);
  for (const auto& rt : plan.txns) ++load[rt.masters[0]];
  for (int l : load) EXPECT_LE(l, 10);
}

TEST_F(TPartRouterTest, ChainedWritersPushForward) {
  // The second writer of key 90 sits closer to its own reads (node 3);
  // the borrowed record is pushed onward from the first writer's node.
  RoutePlan plan = router_.RouteBatch(MakeBatch({
      MakeTxn(1, {10, 11, 90}, {90}),  // 90 borrowed to node 0
      MakeTxn(2, {80, 81, 90}, {90}),  // 90 pushed onward to node 3
  }));
  const RoutedTxn& t2 = plan.txns[1];
  EXPECT_EQ(t2.masters[0], 3);
  for (const auto& acc : t2.accesses) {
    if (acc.key == 90) {
      EXPECT_EQ(acc.owner, 0);  // comes from the previous writer
      EXPECT_EQ(acc.new_owner, 3);
    }
  }
  EXPECT_EQ(router_.forward_pushes(), 1u);
  // Final holder is node 3 == home: no writeback needed.
  EXPECT_TRUE(t2.on_commit_returns.empty());
}

TEST_F(TPartRouterTest, WhollyLocalTxnStaysHomeDespiteCap) {
  // A transaction whose 6 keys all live on node 0 stays there even when
  // node 0 is over the cap — offloading it would cost 6 remote accesses.
  std::vector<TxnRequest> txns;
  for (TxnId i = 1; i <= 4; ++i) {
    txns.push_back(MakeTxn(i, {1, 2, 3, 4, 5, 6}, {1}));
  }
  RoutePlan plan = router_.RouteBatch(MakeBatch(std::move(txns)));
  for (const auto& rt : plan.txns) EXPECT_EQ(rt.masters[0], 0);
}

TEST_F(TPartRouterTest, NonConflictingTxnsStillBalance) {
  // Distinct keys, all on node 0: no conflicts, so the cap spreads them.
  std::vector<TxnRequest> txns;
  for (TxnId i = 1; i <= 16; ++i) txns.push_back(MakeTxn(i, {i}, {i}));
  RoutePlan plan = router_.RouteBatch(MakeBatch(std::move(txns)));
  std::vector<int> load(4, 0);
  for (const auto& rt : plan.txns) ++load[rt.masters[0]];
  for (int l : load) EXPECT_LE(l, 4);
}

}  // namespace
}  // namespace hermes::routing
