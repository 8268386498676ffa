#include "core/hermes_router.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "partition/partition_map.h"

namespace hermes::core {
namespace {

using ::hermes::Mix64;
using ::hermes::Rng;
using partition::CustomRangePartitionMap;
using partition::OwnershipMap;
using partition::RangePartitionMap;
using routing::RoutedTxn;
using routing::RoutePlan;

constexpr Key kA = 0, kB = 1, kC = 2, kD = 3, kE = 4;

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

class PaperExampleTest : public ::testing::Test {
 protected:
  PaperExampleTest()
      : ownership_(std::make_unique<CustomRangePartitionMap>(
            std::vector<Key>{0, 2, 5, 5})) {}

  OwnershipMap ownership_;
  CostModel costs_;
};

// The worked example of §3.2.3 / Fig. 5: keys {A,B} on node 0, {C,D,E} on
// node 1, node 2 empty; alpha=0 so theta=2. The expected outcome is the
// paper's final plan (Fig. 5d): order T2,T4,T5,T6,T1,T3 with T2,T4 on
// node 1, T5,T6 rerouted to node 2, and T1,T3 on node 0.
TEST_F(PaperExampleTest, ReproducesFigure5) {
  HermesConfig config;
  config.alpha = 0.0;
  HermesRouter router(&ownership_, &costs_, 3, config);

  Batch batch = MakeBatch({
      MakeTxn(1, {kA, kB, kC}, {kC}),
      MakeTxn(2, {kC, kD, kE}, {kC}),
      MakeTxn(3, {kA, kB, kC}, {kC}),
      MakeTxn(4, {kD}, {kD}),
      MakeTxn(5, {kC}, {kC}),
      MakeTxn(6, {kC}, {kC}),
  });

  RoutePlan plan = router.RouteBatch(batch);
  ASSERT_EQ(plan.txns.size(), 6u);

  std::vector<TxnId> order;
  std::vector<NodeId> routes;
  for (const RoutedTxn& rt : plan.txns) {
    order.push_back(rt.txn.id);
    ASSERT_EQ(rt.masters.size(), 1u);
    routes.push_back(rt.masters[0]);
  }
  EXPECT_EQ(order, (std::vector<TxnId>{2, 4, 5, 6, 1, 3}));
  EXPECT_EQ(routes, (std::vector<NodeId>{1, 1, 2, 2, 0, 0}));

  // Exactly two migrations of C: node1 -> node2 (for T5) and
  // node2 -> node0 (for T1); T6 and T3 reuse the migrated record.
  int migrations = 0;
  for (const RoutedTxn& rt : plan.txns) {
    for (const auto& acc : rt.accesses) {
      if (acc.new_owner != kInvalidNode) {
        ++migrations;
        EXPECT_EQ(acc.key, kC);
      }
    }
  }
  EXPECT_EQ(migrations, 2);
  EXPECT_EQ(router.stats().reroutes, 2u);

  // The fusion table tracks C; the overlay holds its final placement
  // (node 0).
  EXPECT_TRUE(router.fusion_table().Contains(kC));
  EXPECT_EQ(ownership_.Owner(kC), 0);
  // D was written at its home; no fusion entry.
  EXPECT_FALSE(router.fusion_table().Contains(kD));
}

TEST_F(PaperExampleTest, LoadConstraintRespected) {
  HermesConfig config;
  config.alpha = 0.0;
  HermesRouter router(&ownership_, &costs_, 3, config);

  // 9 transactions all hammering node 1's keys: theta = ceil(9/3) = 3.
  std::vector<TxnRequest> txns;
  for (TxnId i = 1; i <= 9; ++i) {
    txns.push_back(MakeTxn(i, {kC, kD}, {kC, kD}));
  }
  RoutePlan plan = router.RouteBatch(MakeBatch(std::move(txns)));

  std::vector<int> load(3, 0);
  for (const RoutedTxn& rt : plan.txns) ++load[rt.masters[0]];
  for (int l : load) EXPECT_LE(l, 3);
}

TEST(HermesRouterTest, RoutesToDataWhenUnconstrained) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(100, 4));
  CostModel costs;
  HermesConfig config;
  config.alpha = 8.0;  // effectively no load constraint
  HermesRouter router(&ownership, &costs, 4, config);

  Batch batch = MakeBatch({MakeTxn(1, {10, 11}, {10})});
  RoutePlan plan = router.RouteBatch(batch);
  ASSERT_EQ(plan.txns.size(), 1u);
  EXPECT_EQ(plan.txns[0].masters[0], 0);  // keys 10,11 live on node 0
  for (const auto& acc : plan.txns[0].accesses) {
    EXPECT_FALSE(acc.ship_to_master);
    EXPECT_EQ(acc.new_owner, kInvalidNode);
  }
}

TEST(HermesRouterTest, TemporalLocalityFusesAcrossBatches) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(100, 4));
  CostModel costs;
  HermesConfig config;
  config.alpha = 8.0;
  HermesRouter router(&ownership, &costs, 4, config);

  // Batch 1 fuses keys 10 (node 0) and 90 (node 3) somewhere.
  (void)router.RouteBatch(MakeBatch({MakeTxn(1, {10, 90}, {10, 90})}));
  const NodeId fused = ownership.Owner(10);
  EXPECT_EQ(ownership.Owner(90), fused);

  // Batch 2: the same keys are now co-located: no remote reads.
  RoutePlan plan2 =
      router.RouteBatch(MakeBatch({MakeTxn(2, {10, 90}, {10, 90})}));
  EXPECT_EQ(plan2.txns[0].masters[0], fused);
  for (const auto& acc : plan2.txns[0].accesses) {
    EXPECT_FALSE(acc.ship_to_master);
  }
}

TEST(HermesRouterTest, EvictionAppendsHomeMigration) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(100, 4));
  CostModel costs;
  HermesConfig config;
  config.alpha = 8.0;
  config.fusion_table_capacity = 2;
  config.eviction_policy = EvictionPolicy::kFifo;
  HermesRouter router(&ownership, &costs, 4, config);

  // Fuse three away-from-home keys one batch apart (two local reads on
  // node 0 make it the clear majority); capacity 2 forces the first key's
  // eviction, which must ship it back to its home node.
  (void)router.RouteBatch(MakeBatch({MakeTxn(1, {10, 11, 90}, {90})}));
  ASSERT_EQ(ownership.Owner(90), 0);
  (void)router.RouteBatch(MakeBatch({MakeTxn(2, {10, 11, 80}, {80})}));
  RoutePlan plan =
      router.RouteBatch(MakeBatch({MakeTxn(3, {10, 11, 60}, {60})}));

  ASSERT_EQ(plan.txns.size(), 1u);
  const RoutedTxn& rt = plan.txns[0];
  bool saw_eviction = false;
  for (const auto& acc : rt.accesses) {
    if (acc.key == 90) {
      saw_eviction = true;
      EXPECT_TRUE(acc.is_write);
      EXPECT_FALSE(acc.ship_to_master);
      EXPECT_EQ(acc.new_owner, 3);  // home of key 90
    }
  }
  EXPECT_TRUE(saw_eviction);
  EXPECT_FALSE(router.fusion_table().Contains(90));
  EXPECT_EQ(ownership.Owner(90), 3);
  EXPECT_GE(router.stats().evictions, 1u);
}

TEST(HermesRouterTest, WriteRoutedHomeDropsFusionEntry) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(100, 4));
  CostModel costs;
  HermesConfig config;
  config.alpha = 8.0;
  HermesRouter router(&ownership, &costs, 4, config);

  // Fuse 90 onto node 0, then force it home by co-accessing node-3 data.
  (void)router.RouteBatch(MakeBatch({MakeTxn(1, {10, 11, 90}, {90})}));
  ASSERT_EQ(ownership.Owner(90), 0);
  (void)router.RouteBatch(MakeBatch({MakeTxn(2, {91, 92, 90}, {90})}));
  EXPECT_EQ(ownership.Owner(90), 3);  // back home with node-3 neighbors
  EXPECT_FALSE(router.fusion_table().Contains(90));
}

// The fusion checksum folds each fused key with its owner as the overlay
// records it: order-insensitive (XOR), sensitive to every owner.
TEST(HermesRouterTest, FusionChecksumFoldsFusedKeysWithOverlayOwners) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(100, 4));
  CostModel costs;
  HermesConfig config;
  config.alpha = 8.0;
  HermesRouter router(&ownership, &costs, 4, config);
  EXPECT_EQ(router.FusionChecksum(), 0u);

  (void)router.RouteBatch(MakeBatch({MakeTxn(1, {10, 11, 90}, {90})}));
  ASSERT_TRUE(router.fusion_table().Contains(90));
  ASSERT_EQ(ownership.Owner(90), 0);
  EXPECT_EQ(router.FusionChecksum(), Mix64(Mix64(90) ^ 7u));
  ownership.SetKeyOwner(90, 1);
  EXPECT_EQ(router.FusionChecksum(), Mix64(Mix64(90) ^ 8u));
}

TEST(HermesRouterTest, DeterministicAcrossReplicas) {
  CostModel costs;
  HermesConfig config;
  config.fusion_table_capacity = 16;

  auto run = [&](uint64_t) {
    OwnershipMap ownership(std::make_unique<RangePartitionMap>(1000, 5));
    HermesRouter router(&ownership, &costs, 5, config);
    uint64_t digest = 0;
    TxnId next = 1;
    Rng rng(7);
    for (int b = 0; b < 20; ++b) {
      std::vector<TxnRequest> txns;
      for (int i = 0; i < 30; ++i) {
        std::vector<Key> keys = {rng.NextBounded(1000), rng.NextBounded(1000)};
        txns.push_back(MakeTxn(next++, keys, {keys[0]}));
      }
      RoutePlan plan = router.RouteBatch(MakeBatch(std::move(txns)));
      for (const RoutedTxn& rt : plan.txns) {
        digest = Mix64(digest ^ rt.txn.id ^ Mix64(rt.masters[0] + 1));
        for (const auto& acc : rt.accesses) {
          digest = Mix64(digest ^ acc.key ^ Mix64(acc.owner + 2) ^
                         Mix64(acc.new_owner + 3));
        }
      }
    }
    return digest ^ router.FusionChecksum();
  };
  EXPECT_EQ(run(0), run(1));
}

TEST(HermesRouterTest, ChunkMigrationSkipsHotKeys) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(100, 4));
  CostModel costs;
  HermesConfig config;
  config.alpha = 8.0;
  HermesRouter router(&ownership, &costs, 4, config);

  // Fuse key 5 away from home (node 0 -> node 3 with keys 90, 91).
  (void)router.RouteBatch(MakeBatch({MakeTxn(1, {90, 91, 5}, {5})}));
  ASSERT_EQ(ownership.Owner(5), 3);

  TxnRequest chunk;
  chunk.id = 2;
  chunk.kind = TxnKind::kChunkMigration;
  chunk.mutable_extras().migration_target = 2;
  for (Key k = 0; k < 10; ++k) chunk.write_set.push_back(k);
  RoutePlan plan = router.RouteBatch(MakeBatch({chunk}));

  ASSERT_EQ(plan.txns.size(), 1u);
  const RoutedTxn& rt = plan.txns[0];
  EXPECT_EQ(rt.masters[0], 2);
  for (const auto& acc : rt.accesses) {
    EXPECT_NE(acc.key, 5u);  // hot key skipped
    EXPECT_EQ(acc.new_owner, 2);
  }
  EXPECT_EQ(rt.accesses.size(), 9u);
  // The range is re-homed, but the fusion key still resolves to its
  // fused location.
  EXPECT_EQ(ownership.Home(5), 2);
  EXPECT_EQ(ownership.Owner(5), 3);
  EXPECT_EQ(ownership.Owner(7), 2);
}

TEST(HermesRouterTest, AddNodeMarkerActivatesNode) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(90, 3));
  CostModel costs;
  HermesConfig config;
  HermesRouter router(&ownership, &costs, 3, config);
  EXPECT_EQ(router.num_active_nodes(), 3);

  TxnRequest marker;
  marker.id = 1;
  marker.kind = TxnKind::kAddNode;
  marker.mutable_extras().migration_target = 3;
  (void)router.RouteBatch(MakeBatch({marker}));
  EXPECT_EQ(router.num_active_nodes(), 4);

  // With the load cap binding, some transactions now route to node 3.
  std::vector<TxnRequest> txns;
  for (TxnId i = 2; i < 42; ++i) txns.push_back(MakeTxn(i, {1, 2}, {1}));
  RoutePlan plan = router.RouteBatch(MakeBatch(std::move(txns)));
  bool used_new = false;
  for (const auto& rt : plan.txns) used_new |= rt.masters[0] == 3;
  EXPECT_TRUE(used_new);
}

TEST(HermesRouterTest, RemoveNodeMarkerEvictsItsFusionEntries) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(90, 3));
  CostModel costs;
  HermesConfig config;
  config.alpha = 8.0;
  HermesRouter router(&ownership, &costs, 3, config);

  // Fuse keys 0 and 60 onto node 2 (home of 60 is node 2).
  (void)router.RouteBatch(MakeBatch({MakeTxn(1, {60, 61, 0}, {0})}));
  ASSERT_EQ(ownership.Owner(0), 2);

  TxnRequest marker;
  marker.id = 2;
  marker.kind = TxnKind::kRemoveNode;
  marker.mutable_extras().migration_target = 2;
  marker.mutable_extras().range_moves = {{60, 89, 1}};
  RoutePlan plan = router.RouteBatch(MakeBatch({marker}));

  EXPECT_EQ(router.num_active_nodes(), 2);
  ASSERT_EQ(plan.txns.size(), 1u);
  // Key 0's record must ship off the leaving node, back to its home.
  bool shipped = false;
  for (const auto& acc : plan.txns[0].accesses) {
    if (acc.key == 0) {
      shipped = true;
      EXPECT_EQ(acc.owner, 2);
      EXPECT_EQ(acc.new_owner, 0);
    }
  }
  EXPECT_TRUE(shipped);
  EXPECT_EQ(ownership.Owner(0), 0);
}

// Owner() must name where the plans put each record, through a node
// removal and the chunk migrations that empty the leaver. Before the
// batches below, key 5 (home 0) is fused onto node 2 and then re-homed
// there by a chunk migration that skips it, so at the removal its
// destination is the leaver itself; key 10 (home 0) is fused onto node 2
// and ships home at the removal; key 40 (home 1) is fused onto node 2 too.
// Every batch's plan is replayed into a record-location model: each move
// must start where the model holds the record, and afterwards every key's
// Owner() must equal the model.
TEST(HermesRouterTest, OwnerFollowsRecordsThroughRemovalAndChunkMigrations) {
  constexpr Key kKeys = 90;  // nodes 0, 1, 2 own 0-29, 30-59, 60-89
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(kKeys, 3));
  CostModel costs;
  HermesConfig config;
  config.alpha = 8.0;
  HermesRouter router(&ownership, &costs, 3, config);

  std::vector<NodeId> where(kKeys);
  for (Key k = 0; k < kKeys; ++k) where[k] = ownership.Owner(k);
  TxnId next_id = 1;
  auto route = [&](std::vector<TxnRequest> txns, const char* step) {
    SCOPED_TRACE(step);
    for (TxnRequest& t : txns) t.id = next_id++;
    const RoutePlan plan = router.RouteBatch(MakeBatch(std::move(txns)));
    for (const RoutedTxn& rt : plan.txns) {
      for (const auto& acc : rt.accesses) {
        if (acc.new_owner == kInvalidNode || acc.new_owner == acc.owner) {
          continue;
        }
        EXPECT_EQ(acc.owner, where[acc.key]) << "key " << acc.key;
        where[acc.key] = acc.new_owner;
      }
    }
    for (Key k = 0; k < kKeys; ++k) {
      EXPECT_EQ(ownership.Owner(k), where[k]) << "key " << k;
    }
  };
  auto chunk = [](Key lo, Key hi, NodeId target) {
    TxnRequest t;
    t.kind = TxnKind::kChunkMigration;
    t.mutable_extras().migration_target = target;
    for (Key k = lo; k <= hi; ++k) t.write_set.push_back(k);
    return t;
  };

  route({MakeTxn(0, {60, 61, 5}, {5}), MakeTxn(0, {62, 63, 10}, {10}),
         MakeTxn(0, {64, 65, 40}, {40})},
        "fuse 5, 10 and 40 onto node 2");
  ASSERT_EQ(ownership.Owner(5), 2);
  ASSERT_EQ(ownership.Owner(10), 2);
  ASSERT_EQ(ownership.Owner(40), 2);
  route({chunk(0, 9, 2)}, "re-home 0-9 on node 2 under fused key 5");
  ASSERT_EQ(ownership.Home(5), 2);

  TxnRequest removal;
  removal.kind = TxnKind::kRemoveNode;
  removal.mutable_extras().migration_target = 2;
  removal.mutable_extras().range_moves = {{60, 89, 1}};
  route({removal}, "remove node 2");
  // The removal unfused all three keys, and each now sits at its home.
  EXPECT_EQ(ownership.num_key_overrides(), 0u);
  route({chunk(0, 9, 0), chunk(60, 89, 1)}, "empty the leaver");
  route({chunk(0, 9, 1)}, "move 0-9 again");
  route({chunk(10, 19, 1), chunk(30, 59, 0)}, "move 10's and 40's ranges");
}

TEST(HermesRouterTest, ReadsDoNotMigrateRecords) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(100, 4));
  CostModel costs;
  HermesConfig config;
  config.alpha = 8.0;
  HermesRouter router(&ownership, &costs, 4, config);

  // Read-only transaction across partitions: remote reads, no migrations.
  RoutePlan plan = router.RouteBatch(MakeBatch({MakeTxn(1, {10, 90}, {})}));
  ASSERT_EQ(plan.txns.size(), 1u);
  int remote = 0;
  for (const auto& acc : plan.txns[0].accesses) {
    EXPECT_EQ(acc.new_owner, kInvalidNode);
    EXPECT_FALSE(acc.is_write);
    remote += acc.ship_to_master;
  }
  EXPECT_EQ(remote, 1);
  EXPECT_EQ(ownership.Owner(10), 0);
  EXPECT_EQ(ownership.Owner(90), 3);
}

TEST(HermesRouterTest, SpecialTxnsActAsReorderBarriers) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(100, 4));
  CostModel costs;
  HermesConfig config;
  config.alpha = 8.0;
  HermesRouter router(&ownership, &costs, 4, config);

  TxnRequest marker;
  marker.id = 100;
  marker.kind = TxnKind::kAddNode;
  marker.mutable_extras().migration_target = 4;

  // Regular txns on both sides of the marker: reordering must not cross it.
  Batch batch = MakeBatch({
      MakeTxn(1, {10}, {10}),
      MakeTxn(2, {20}, {20}),
      marker,
      MakeTxn(3, {30}, {30}),
      MakeTxn(4, {40}, {40}),
  });
  RoutePlan plan = router.RouteBatch(batch);
  ASSERT_EQ(plan.txns.size(), 5u);
  // Positions 0-1 hold txns {1,2}; position 2 the marker; 3-4 hold {3,4}.
  EXPECT_TRUE((plan.txns[0].txn.id == 1 && plan.txns[1].txn.id == 2) ||
              (plan.txns[0].txn.id == 2 && plan.txns[1].txn.id == 1));
  EXPECT_EQ(plan.txns[2].txn.kind, TxnKind::kAddNode);
  EXPECT_TRUE((plan.txns[3].txn.id == 3 && plan.txns[4].txn.id == 4) ||
              (plan.txns[3].txn.id == 4 && plan.txns[4].txn.id == 3));
  // Transactions after the marker may use the new node.
  EXPECT_EQ(router.num_active_nodes(), 5);
}

TEST(HermesRouterTest, EmptyBatchYieldsEmptyPlan) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(100, 4));
  CostModel costs;
  HermesRouter router(&ownership, &costs, 4, HermesConfig{});
  RoutePlan plan = router.RouteBatch(Batch{});
  EXPECT_TRUE(plan.txns.empty());
}

TEST(HermesRouterTest, BlindWriteMigratesWithoutShippingValue) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(100, 4));
  CostModel costs;
  HermesConfig config;
  config.alpha = 8.0;
  HermesRouter router(&ownership, &costs, 4, config);

  // Write-only key 90 with two reads on node 0: the record still has to
  // move to the master (its post-write value lives there).
  RoutePlan plan =
      router.RouteBatch(MakeBatch({MakeTxn(1, {10, 11}, {90})}));
  ASSERT_EQ(plan.txns.size(), 1u);
  EXPECT_EQ(plan.txns[0].masters[0], 0);
  for (const auto& acc : plan.txns[0].accesses) {
    if (acc.key == 90) {
      EXPECT_TRUE(acc.is_write);
      EXPECT_EQ(acc.new_owner, 0);
    }
  }
  EXPECT_EQ(ownership.Owner(90), 0);
}

TEST(HermesRouterTest, StatsAccumulateAcrossBatches) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(100, 4));
  CostModel costs;
  HermesConfig config;
  config.alpha = 8.0;
  HermesRouter router(&ownership, &costs, 4, config);
  (void)router.RouteBatch(MakeBatch({MakeTxn(1, {10, 11, 90}, {90})}));
  (void)router.RouteBatch(MakeBatch({MakeTxn(2, {10, 11, 80}, {80})}));
  EXPECT_EQ(router.stats().routed_txns, 2u);
  EXPECT_EQ(router.stats().migrations, 2u);
}

TEST(HermesRouterTest, RoutingCostGrowsSuperlinearly) {
  OwnershipMap ownership(std::make_unique<RangePartitionMap>(100, 4));
  CostModel costs;
  HermesRouter router(&ownership, &costs, 4, HermesConfig{});

  auto batch_of = [&](size_t n) {
    std::vector<TxnRequest> txns;
    for (size_t i = 0; i < n; ++i) txns.push_back(MakeTxn(i + 1, {1}, {1}));
    return MakeBatch(std::move(txns));
  };
  const SimTime c10 = router.RouteBatch(batch_of(10)).routing_cost_us;
  const SimTime c1000 = router.RouteBatch(batch_of(1000)).routing_cost_us;
  EXPECT_GT(c1000, 100 * c10);
}

}  // namespace
}  // namespace hermes::core
