#include "storage/lock_manager.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace hermes::storage {
namespace {

std::vector<LockRequest> Reqs(std::initializer_list<LockRequest> list) {
  return {list};
}

TEST(LockManagerTest, ImmediateGrantOnFreeKeys) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, true}, {20, false}}), &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 1u);
  EXPECT_TRUE(lm.HoldsAll(1));
}

TEST(LockManagerTest, EmptyRequestIsGrantedImmediately) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, {}, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_TRUE(lm.HoldsAll(1));
}

TEST(LockManagerTest, ExclusiveBlocksExclusive) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, true}}), &granted);
  granted.clear();
  lm.Acquire(2, Reqs({{10, true}}), &granted);
  EXPECT_TRUE(granted.empty());
  EXPECT_FALSE(lm.HoldsAll(2));

  lm.Release(1, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 2u);
  EXPECT_TRUE(lm.HoldsAll(2));
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, false}}), &granted);
  lm.Acquire(2, Reqs({{10, false}}), &granted);
  lm.Acquire(3, Reqs({{10, false}}), &granted);
  EXPECT_EQ(granted.size(), 3u);
}

TEST(LockManagerTest, SharedDoesNotJumpExclusiveQueue) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, false}}), &granted);  // granted shared
  granted.clear();
  lm.Acquire(2, Reqs({{10, true}}), &granted);  // waits
  lm.Acquire(3, Reqs({{10, false}}), &granted);  // must wait behind 2
  EXPECT_TRUE(granted.empty());

  lm.Release(1, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 2u);  // FIFO: exclusive first

  granted.clear();
  lm.Release(2, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 3u);
}

TEST(LockManagerTest, GrantsAllSharedPrefixOnRelease) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, true}}), &granted);
  lm.Acquire(2, Reqs({{10, false}}), &granted);
  lm.Acquire(3, Reqs({{10, false}}), &granted);
  lm.Acquire(4, Reqs({{10, true}}), &granted);
  granted.clear();

  lm.Release(1, &granted);
  ASSERT_EQ(granted.size(), 2u);  // both shared readers
  EXPECT_EQ(granted[0], 2u);
  EXPECT_EQ(granted[1], 3u);
  EXPECT_FALSE(lm.HoldsAll(4));
}

TEST(LockManagerTest, MultiKeyTxnGrantedOnlyWhenAllKeysHeld) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, true}}), &granted);
  granted.clear();
  lm.Acquire(2, Reqs({{10, true}, {20, true}}), &granted);
  EXPECT_TRUE(granted.empty());  // holds 20, waits on 10

  lm.Release(1, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 2u);
}

TEST(LockManagerTest, ReleaseOfWaitingTxnRemovesItFromQueues) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{10, true}}), &granted);
  lm.Acquire(2, Reqs({{10, true}}), &granted);
  lm.Acquire(3, Reqs({{10, true}}), &granted);
  granted.clear();

  // Txn 2 gives up its (waiting) request; txn 3 should follow txn 1.
  lm.Release(2, &granted);
  EXPECT_TRUE(granted.empty());
  lm.Release(1, &granted);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0], 3u);
}

TEST(LockManagerTest, TotalOrderPreservedUnderInterleaving) {
  // Conservative ordered locking invariant: grants per key follow the
  // acquire order regardless of release interleavings.
  LockManager lm;
  std::vector<TxnId> granted;
  for (TxnId t = 1; t <= 5; ++t) {
    lm.Acquire(t, Reqs({{7, true}}), &granted);
  }
  granted.clear();
  for (TxnId t = 1; t <= 4; ++t) {
    lm.Release(t, &granted);
    ASSERT_EQ(granted.size(), t);
    EXPECT_EQ(granted.back(), t + 1);
  }
}

TEST(LockManagerTest, ManyKeysManyTxnsDrainCompletely) {
  LockManager lm;
  std::vector<TxnId> granted;
  constexpr int kTxns = 200;
  int total_granted = 0;
  for (TxnId t = 0; t < kTxns; ++t) {
    std::vector<LockRequest> reqs;
    for (Key k = t % 5; k < 20; k += 5) reqs.push_back({k, (t % 3) == 0});
    granted.clear();
    lm.Acquire(t, reqs, &granted);
    total_granted += static_cast<int>(granted.size());
  }
  // Release in order; everything must eventually be granted exactly once.
  for (TxnId t = 0; t < kTxns; ++t) {
    granted.clear();
    lm.Release(t, &granted);
    total_granted += static_cast<int>(granted.size());
  }
  EXPECT_EQ(total_granted, kTxns);
  EXPECT_EQ(lm.num_txns(), 0u);
  EXPECT_EQ(lm.num_active_keys(), 0u);
}

TEST(LockManagerTest, TwoNodesQueueOneKeyIndependently) {
  // A migration fence: the same key locked at its source and destination.
  LockTable table;
  table.Reserve(100);
  LockManager src(&table, 0);
  LockManager dst(&table, 1);
  std::vector<TxnId> granted;
  src.Acquire(1, Reqs({{42, true}}), &granted);
  dst.Acquire(1, Reqs({{42, true}}), &granted);
  EXPECT_EQ(granted, (std::vector<TxnId>{1, 1}));
  granted.clear();
  src.Acquire(2, Reqs({{42, true}}), &granted);
  dst.Acquire(3, Reqs({{42, false}}), &granted);
  EXPECT_TRUE(granted.empty());
  EXPECT_EQ(src.num_active_keys(), 1u);
  EXPECT_EQ(dst.num_active_keys(), 1u);

  // Releasing at the destination grants only the destination's waiter.
  dst.Release(1, &granted);
  EXPECT_EQ(granted, (std::vector<TxnId>{3}));
  EXPECT_FALSE(src.HoldsAll(2));
  granted.clear();
  src.Release(1, &granted);
  EXPECT_EQ(granted, (std::vector<TxnId>{2}));

  src.Release(2, &granted);
  dst.Release(3, &granted);
  EXPECT_EQ(src.num_active_keys(), 0u);
  EXPECT_EQ(dst.num_active_keys(), 0u);
  EXPECT_EQ(src.num_txns(), 0u);
  EXPECT_EQ(dst.num_txns(), 0u);
}

TEST(LockManagerTest, ChainUnlinksAtHeadMiddleAndTail) {
  // Three nodes queue one key, so its chain is three queues long. Empty
  // one queue at each chain position in turn; the other two must stay
  // reachable (a new exclusive request there waits behind the holder
  // instead of landing in a fresh queue and being granted at once). New
  // queues link at the chain head, so node 2 heads the chain, node 1 is
  // its middle and node 0 its tail.
  constexpr Key kKey = 7;
  for (int first = 0; first < 3; ++first) {
    SCOPED_TRACE(first);
    LockTable table;
    std::vector<std::unique_ptr<LockManager>> nodes;
    for (NodeId n = 0; n < 3; ++n) {
      nodes.push_back(std::make_unique<LockManager>(&table, n));
    }
    std::vector<TxnId> granted;
    for (NodeId n = 0; n < 3; ++n) {
      nodes[n]->Acquire(100 + n, Reqs({{kKey, true}}), &granted);
    }
    ASSERT_EQ(granted.size(), 3u);
    granted.clear();
    nodes[first]->Release(100 + first, &granted);
    EXPECT_TRUE(granted.empty());
    EXPECT_EQ(nodes[first]->num_active_keys(), 0u);
    for (NodeId n = 0; n < 3; ++n) {
      if (n == first) continue;
      nodes[n]->Acquire(200 + n, Reqs({{kKey, true}}), &granted);
      EXPECT_TRUE(granted.empty()) << "node " << n << "'s queue was lost";
    }
    // The emptied node's queue comes back fresh and grants at once.
    nodes[first]->Acquire(200 + first, Reqs({{kKey, true}}), &granted);
    EXPECT_EQ(granted, (std::vector<TxnId>{TxnId{200} + first}));
    for (NodeId n = 0; n < 3; ++n) {
      granted.clear();
      nodes[n]->Release(100 + n, &granted);
      if (n != first) {
        EXPECT_EQ(granted, (std::vector<TxnId>{TxnId{200} + n}));
      }
      nodes[n]->Release(200 + n, &granted);
      EXPECT_EQ(nodes[n]->num_active_keys(), 0u);
      EXPECT_EQ(nodes[n]->num_txns(), 0u);
    }
  }
}

TEST(LockManagerTest, StandaloneLocksKeyBeyondAnyReserve) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.Acquire(1, Reqs({{5'000'000, true}, {3, false}}), &granted);
  EXPECT_EQ(granted, (std::vector<TxnId>{1}));
  granted.clear();
  lm.Acquire(2, Reqs({{5'000'000, true}}), &granted);
  EXPECT_TRUE(granted.empty());
  lm.Release(1, &granted);
  EXPECT_EQ(granted, (std::vector<TxnId>{2}));

  // A shared table reserved below the key grows the same way.
  LockTable table;
  table.Reserve(10);
  LockManager view(&table, 0);
  granted.clear();
  view.Acquire(3, Reqs({{10, true}}), &granted);
  EXPECT_EQ(granted, (std::vector<TxnId>{3}));
  granted.clear();
  view.Acquire(4, Reqs({{10, false}}), &granted);
  EXPECT_TRUE(granted.empty());
}

}  // namespace
}  // namespace hermes::storage
