// Unit tests for the prescient routing's ablation switches and their
// behavioural consequences.

#include <memory>

#include <gtest/gtest.h>

#include "core/hermes_router.h"
#include "partition/partition_map.h"

namespace hermes::core {
namespace {

using partition::CustomRangePartitionMap;
using partition::OwnershipMap;
using partition::RangePartitionMap;
using routing::RoutePlan;
using routing::RoutedTxn;

TxnRequest MakeTxn(TxnId id, std::vector<Key> reads, std::vector<Key> writes) {
  TxnRequest txn;
  txn.id = id;
  txn.read_set.assign(reads.begin(), reads.end());
  txn.write_set.assign(writes.begin(), writes.end());
  return txn;
}

Batch PaperBatch() {
  // The Fig. 5 example batch (keys A..E = 0..4).
  Batch batch;
  batch.txns = {
      MakeTxn(1, {0, 1, 2}, {2}), MakeTxn(2, {2, 3, 4}, {2}),
      MakeTxn(3, {0, 1, 2}, {2}), MakeTxn(4, {3}, {3}),
      MakeTxn(5, {2}, {2}),       MakeTxn(6, {2}, {2}),
  };
  return batch;
}

std::unique_ptr<OwnershipMap> PaperOwnership() {
  return std::make_unique<OwnershipMap>(
      std::make_unique<CustomRangePartitionMap>(std::vector<Key>{0, 2, 5, 5}));
}

TEST(HermesAblationTest, NoReorderKeepsSequencerOrder) {
  auto ownership = PaperOwnership();
  CostModel costs;
  HermesConfig config;
  config.enable_reorder = false;
  HermesRouter router(ownership.get(), &costs, 3, config);
  RoutePlan plan = router.RouteBatch(PaperBatch());
  for (size_t i = 0; i < plan.txns.size(); ++i) {
    EXPECT_EQ(plan.txns[i].txn.id, i + 1);
  }
  EXPECT_EQ(router.stats().reorders, 0u);
}

TEST(HermesAblationTest, NoReorderCausesPingPong) {
  // Without reordering, the Fig. 5 batch migrates C more often than the
  // two moves the full algorithm needs.
  auto count_migrations = [](bool reorder) {
    auto ownership = PaperOwnership();
    CostModel costs;
    HermesConfig config;
    config.enable_reorder = reorder;
    HermesRouter router(ownership.get(), &costs, 3, config);
    (void)router.RouteBatch(PaperBatch());
    return router.stats().migrations;
  };
  EXPECT_GT(count_migrations(false), count_migrations(true));
}

TEST(HermesAblationTest, NoRebalanceAllowsOverload) {
  auto ownership = PaperOwnership();
  CostModel costs;
  HermesConfig config;
  config.enable_rebalance = false;
  HermesRouter router(ownership.get(), &costs, 3, config);
  RoutePlan plan = router.RouteBatch(PaperBatch());
  // All six transactions chase node 1's data; theta=2 is violated.
  std::vector<int> load(3, 0);
  for (const RoutedTxn& rt : plan.txns) ++load[rt.masters[0]];
  EXPECT_GT(*std::max_element(load.begin(), load.end()), 2);
  EXPECT_EQ(router.stats().reroutes, 0u);
}

TEST(HermesAblationTest, ForwardPassStillBalances) {
  auto ownership = PaperOwnership();
  CostModel costs;
  HermesConfig config;
  config.backward_pass = false;
  HermesRouter router(ownership.get(), &costs, 3, config);
  RoutePlan plan = router.RouteBatch(PaperBatch());
  std::vector<int> load(3, 0);
  for (const RoutedTxn& rt : plan.txns) ++load[rt.masters[0]];
  for (int l : load) EXPECT_LE(l, 2);
}

TEST(HermesAblationTest, PassDirectionsDifferInMoves) {
  // Forward and backward walks pick different transactions to move when
  // several candidates are eligible.
  auto run = [](bool backward) {
    OwnershipMap ownership(std::make_unique<RangePartitionMap>(100, 4));
    CostModel costs;
    HermesConfig config;
    config.backward_pass = backward;
    HermesRouter router(&ownership, &costs, 4, config);
    std::vector<TxnRequest> txns;
    // Chain sharing node 0's keys: rebalancing must move some of them.
    for (TxnId i = 1; i <= 12; ++i) {
      txns.push_back(MakeTxn(i, {1, 2, static_cast<Key>(i)},
                             {static_cast<Key>(i)}));
    }
    Batch batch;
    batch.txns = std::move(txns);
    RoutePlan plan = router.RouteBatch(batch);
    uint64_t digest = 0;
    for (const auto& rt : plan.txns) {
      digest = digest * 31 + static_cast<uint64_t>(rt.masters[0]) + rt.txn.id;
    }
    return digest;
  };
  EXPECT_NE(run(true), run(false));
}

TEST(HermesAblationTest, AlphaLoosensTheCap) {
  auto load_spread = [](double alpha) {
    auto ownership = PaperOwnership();
    CostModel costs;
    HermesConfig config;
    config.alpha = alpha;
    HermesRouter router(ownership.get(), &costs, 3, config);
    RoutePlan plan = router.RouteBatch(PaperBatch());
    std::vector<int> load(3, 0);
    for (const RoutedTxn& rt : plan.txns) ++load[rt.masters[0]];
    return *std::max_element(load.begin(), load.end());
  };
  EXPECT_EQ(load_spread(0.0), 2);   // theta = 2
  EXPECT_GE(load_spread(1.0), 3);   // theta = 4: locality wins
}

}  // namespace
}  // namespace hermes::core
