#include "routing/router.h"

#include <memory>

#include <gtest/gtest.h>

#include "partition/partition_map.h"

namespace hermes::routing {
namespace {

using partition::OwnershipMap;
using partition::RangePartitionMap;

/// Minimal concrete router exposing the protected helpers.
class TestRouter : public Router {
 public:
  using Router::AnalysisCost;
  using Router::LinearCost;
  using Router::MajorityOwner;
  using Router::MergedAccessSet;
  using Router::PlanChunkMigrationDefault;
  using Router::PlanProvisioningDefault;

  TestRouter(partition::OwnershipMap* o, const CostModel* c, int n)
      : Router(o, c, n) {}
  RoutePlan RouteBatch(const Batch&) override { return {}; }
  std::string name() const override { return "test"; }
};

class RouterBaseTest : public ::testing::Test {
 protected:
  RouterBaseTest()
      : ownership_(std::make_unique<RangePartitionMap>(100, 4)),
        router_(&ownership_, &costs_, 4) {}

  OwnershipMap ownership_;
  CostModel costs_;
  TestRouter router_;
};

TEST_F(RouterBaseTest, MergedAccessSetDeduplicatesAndMergesModes) {
  TxnRequest txn;
  txn.read_set = {3, 1, 3, 2};
  txn.write_set = {2, 2, 4};
  const auto merged = TestRouter::MergedAccessSet(txn);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0], (std::pair<Key, bool>{1, false}));
  EXPECT_EQ(merged[1], (std::pair<Key, bool>{2, true}));  // RMW: exclusive
  EXPECT_EQ(merged[2], (std::pair<Key, bool>{3, false}));
  EXPECT_EQ(merged[3], (std::pair<Key, bool>{4, true}));  // blind write
}

TEST_F(RouterBaseTest, MajorityOwnerPicksPlurality) {
  TxnRequest txn;
  txn.read_set = {10, 11, 80};
  EXPECT_EQ(router_.MajorityOwner(txn), 0);
  txn.read_set = {80, 81, 10};
  EXPECT_EQ(router_.MajorityOwner(txn), 3);
}

TEST_F(RouterBaseTest, MajorityOwnerTieBreaksOnFirstReadHome) {
  TxnRequest txn;
  txn.read_set = {80, 10};  // one key each on nodes 3 and 0
  txn.write_set = {80};
  EXPECT_EQ(router_.MajorityOwner(txn), 3);  // home of first read key
  txn.read_set = {10, 80};
  EXPECT_EQ(router_.MajorityOwner(txn), 0);
}

TEST_F(RouterBaseTest, CostsScaleWithBatchSize) {
  EXPECT_EQ(router_.LinearCost(100), 100 * costs_.route_linear_us);
  EXPECT_GT(router_.AnalysisCost(1000), router_.LinearCost(1000));
  // The quadratic term dominates for large batches.
  EXPECT_GT(router_.AnalysisCost(2000), 3 * router_.AnalysisCost(1000) / 2);
}

TEST_F(RouterBaseTest, ActiveNodeSetAddRemove) {
  EXPECT_EQ(router_.num_active_nodes(), 4);
  router_.OnAddNode(4);
  EXPECT_EQ(router_.num_active_nodes(), 5);
  router_.OnAddNode(4);  // idempotent
  EXPECT_EQ(router_.num_active_nodes(), 5);
  router_.OnRemoveNode(2);
  EXPECT_EQ(router_.num_active_nodes(), 4);
  EXPECT_EQ(router_.active_nodes(), (std::vector<NodeId>{0, 1, 3, 4}));
}

TEST_F(RouterBaseTest, RestoreActiveNodes) {
  router_.RestoreActiveNodes({1, 2});
  EXPECT_EQ(router_.num_active_nodes(), 2);
}

TEST_F(RouterBaseTest, DefaultChunkPlanMovesColdRange) {
  TxnRequest chunk;
  chunk.kind = TxnKind::kChunkMigration;
  chunk.mutable_extras().migration_target = 3;
  for (Key k = 10; k < 20; ++k) chunk.write_set.push_back(k);
  const RoutedTxn rt = router_.PlanChunkMigrationDefault(chunk);
  EXPECT_EQ(rt.masters, (InlineVec<NodeId>{3}));
  EXPECT_EQ(rt.accesses.size(), 10u);
  for (const auto& acc : rt.accesses) {
    EXPECT_EQ(acc.owner, 0);
    EXPECT_EQ(acc.new_owner, 3);
    EXPECT_TRUE(acc.is_write);
  }
  EXPECT_EQ(ownership_.Home(15), 3);  // range re-homed at routing time
}

TEST_F(RouterBaseTest, DefaultChunkPlanSkipsKeysAlreadyAtTarget) {
  ownership_.SetKeyOwner(12, 3);
  TxnRequest chunk;
  chunk.kind = TxnKind::kChunkMigration;
  chunk.mutable_extras().migration_target = 3;
  for (Key k = 10; k < 15; ++k) chunk.write_set.push_back(k);
  const RoutedTxn rt = router_.PlanChunkMigrationDefault(chunk);
  EXPECT_EQ(rt.accesses.size(), 4u);  // key 12 already there
}

TEST_F(RouterBaseTest, ProvisioningDefaultsAdjustActiveSet) {
  TxnRequest add;
  add.kind = TxnKind::kAddNode;
  add.mutable_extras().migration_target = 7;
  (void)router_.PlanProvisioningDefault(add);
  EXPECT_EQ(router_.num_active_nodes(), 5);

  TxnRequest remove;
  remove.kind = TxnKind::kRemoveNode;
  remove.mutable_extras().migration_target = 7;
  const RoutedTxn rt = router_.PlanProvisioningDefault(remove);
  EXPECT_EQ(router_.num_active_nodes(), 4);
  EXPECT_TRUE(rt.accesses.empty());
}

}  // namespace
}  // namespace hermes::routing
