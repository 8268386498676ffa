#include "routing/tpart_router.h"

#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "digest_oracle.h"
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

/// Order-sensitive fingerprint of every routing decision in `plan`: each
/// transaction's master and accesses, then its write-backs in emission
/// order.
uint64_t Fingerprint(const RoutePlan& plan) {
  uint64_t h = 0;
  auto mix = [&h](uint64_t v) { h = Mix64(h ^ v); };
  for (const RoutedTxn& rt : plan.txns) {
    mix(rt.txn.id);
    mix(static_cast<uint64_t>(rt.masters[0]));
    for (const Access& a : rt.accesses) {
      mix(a.key);
      mix(static_cast<uint64_t>(a.owner));
      mix(static_cast<uint64_t>(a.new_owner));
      mix(uint64_t{a.is_write} << 1 | uint64_t{a.ship_to_master});
    }
    for (const ReturnShipment& r : rt.on_commit_returns) {
      mix(r.key);
      mix(static_cast<uint64_t>(r.from));
      mix(static_cast<uint64_t>(r.to));
    }
  }
  return h;
}

// Golden plans for three seeded batches with heavy in-batch conflicts on
// a hot key set, so many records are borrowed, pushed onward and written
// back. Pinned under two hash salts, including the write-back order.
TEST(TPartRouterGoldenTest, SeededBatchesArePinned) {
  const std::vector<uint64_t> want_fingerprints = {
      0x608fa0122514e35e, 0x50068eb9e48c3e22, 0x7da199498c5eb046};
  // The first batch's write-backs as (plan index, key); the last user of
  // 194 and 291 returns both, in key order.
  const std::vector<std::pair<size_t, Key>> want_writebacks = {
      {0, 827},  {2, 901},  {8, 263},  {9, 355},  {10, 744},
      {15, 112}, {32, 176}, {38, 485}, {40, 470}, {42, 420},
      {44, 995}, {49, 194}, {49, 291}};
  for (uint64_t salt : {uint64_t{1}, uint64_t{0xdeadbeefcafef00d}}) {
    oracle::SaltGuard guard(salt);
    OwnershipMap ownership(std::make_unique<RangePartitionMap>(1000, 4));
    CostModel costs;
    TPartRouter router(&ownership, &costs, 4);
    Rng rng(99);
    auto key = [&rng] {
      return rng.NextBounded(3) == 0 ? rng.NextBounded(1000)
                                     : rng.NextBounded(10) * 97;
    };
    std::vector<uint64_t> fingerprints;
    std::vector<std::pair<size_t, Key>> first_writebacks;
    TxnId id = 1;
    for (int b = 0; b < 3; ++b) {
      std::vector<TxnRequest> txns;
      for (int i = 0; i < 50; ++i, ++id) {
        std::vector<Key> reads = {key(), key(), key()};
        std::vector<Key> writes;
        for (uint64_t w = rng.NextBounded(3); w > 0; --w) {
          writes.push_back(key());
        }
        txns.push_back(MakeTxn(id, std::move(reads), std::move(writes)));
      }
      const RoutePlan plan = router.RouteBatch(MakeBatch(std::move(txns)));
      fingerprints.push_back(Fingerprint(plan));
      if (b > 0) continue;
      for (size_t t = 0; t < plan.txns.size(); ++t) {
        for (const ReturnShipment& r : plan.txns[t].on_commit_returns) {
          first_writebacks.emplace_back(t, r.key);
        }
      }
    }
    EXPECT_EQ(fingerprints, want_fingerprints) << "salt " << salt;
    EXPECT_EQ(first_writebacks, want_writebacks) << "salt " << salt;
    EXPECT_EQ(router.forward_pushes(), 28u) << "salt " << salt;
    EXPECT_EQ(router.writebacks(), 44u) << "salt " << salt;
  }
}

}  // namespace
}  // namespace hermes::routing
