#include "routing/clay_planner.h"

#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "digest_oracle.h"
#include "partition/partition_map.h"

namespace hermes::routing {
namespace {

using partition::OwnershipMap;
using partition::RangePartitionMap;

TxnRequest TxnOn(Key a, Key b) {
  TxnRequest txn;
  txn.read_set = {a, b};
  txn.write_set = {a};
  return txn;
}

ClayConfig SmallClay() {
  ClayConfig config;
  config.monitor_window_us = 1000;
  config.range_size = 25;  // one range per node for a 100-record, 4-node DB
  config.overload_slack = 0.10;
  return config;
}

TEST(ClayPlannerTest, NoPlanBeforeWindowElapses) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  ClayPlanner clay(&map, 100, SmallClay());
  clay.Observe(TxnOn(1, 2));
  EXPECT_TRUE(clay.MaybePlan(500, 4).empty());
}

TEST(ClayPlannerTest, NoPlanWhenBalanced) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  ClayPlanner clay(&map, 100, SmallClay());
  for (Key k = 0; k < 100; ++k) clay.Observe(TxnOn(k, (k + 1) % 100));
  EXPECT_TRUE(clay.MaybePlan(2000, 4).empty());
  EXPECT_EQ(clay.plans_produced(), 0u);
}

TEST(ClayPlannerTest, PlansMigrationOffHotNode) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  ClayConfig config = SmallClay();
  config.range_size = 5;  // 5 ranges per node
  ClayPlanner clay(&map, 100, config);
  // Node 0 heavily loaded with heat spread over its five ranges so a
  // movable clump exists; range [0,5) is the hottest.
  for (int i = 0; i < 100; ++i) clay.Observe(TxnOn(1, 2));
  for (int i = 0; i < 60; ++i) clay.Observe(TxnOn(6, 7));
  for (int i = 0; i < 50; ++i) clay.Observe(TxnOn(11, 12));
  for (int i = 0; i < 40; ++i) clay.Observe(TxnOn(16, 17));
  for (int i = 0; i < 40; ++i) clay.Observe(TxnOn(30, 31));  // node 1
  for (int i = 0; i < 30; ++i) clay.Observe(TxnOn(55, 56));  // node 2

  const auto plan = clay.MaybePlan(2000, 4);
  ASSERT_FALSE(plan.empty());
  for (const auto& mv : plan) {
    EXPECT_EQ(map.Owner(mv.lo), 0);   // clumps come off the hot node
    EXPECT_EQ(mv.target, 3);          // coldest node (zero observed load)
  }
  EXPECT_EQ(clay.plans_produced(), 1u);
}

TEST(ClayPlannerTest, WindowStatisticsResetAfterPlan) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  ClayPlanner clay(&map, 100, SmallClay());
  for (int i = 0; i < 100; ++i) clay.Observe(TxnOn(1, 2));
  (void)clay.MaybePlan(2000, 4);
  // Nothing observed since: next window has no data and plans nothing.
  EXPECT_TRUE(clay.MaybePlan(4000, 4).empty());
}

TEST(ClayPlannerTest, DoesNotJustShiftTheHotSpot) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  ClayConfig config = SmallClay();
  config.range_size = 25;  // one range per node: moving it would only
                           // relocate the problem
  ClayPlanner clay(&map, 100, config);
  for (int i = 0; i < 300; ++i) clay.Observe(TxnOn(1, 2));
  const auto plan = clay.MaybePlan(2000, 4);
  EXPECT_TRUE(plan.empty());  // the whole-range clump is hotter than avg
}

TEST(ClayPlannerTest, SingleNodeClusterNeverPlans) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 1));
  ClayPlanner clay(&map, 100, SmallClay());
  for (int i = 0; i < 100; ++i) clay.Observe(TxnOn(1, 2));
  EXPECT_TRUE(clay.MaybePlan(2000, 1).empty());
}

/// (window, lo, target) of every move over six seeded windows. Only even
/// ranges see traffic, so every node owns ranges with zero heat; node 0's
/// keys draw most of it, so node 0 stays hot and its cold ranges are
/// candidates whenever the coldest node cannot absorb the excess. Each
/// plan is applied before the next window.
std::vector<std::tuple<int, Key, NodeId>> SeededPlanSequence() {
  OwnershipMap map(std::make_unique<RangePartitionMap>(1000, 4));
  ClayConfig config = SmallClay();
  config.range_size = 10;  // 100 ranges, 25 per node
  ClayPlanner clay(&map, 1000, config);
  Rng rng(2021);
  auto key = [&rng] {
    const Key k =
        rng.NextBounded(4) == 0 ? rng.NextBounded(1000) : rng.NextBounded(250);
    return (k / 20) * 20 + k % 10;  // fold into an even range
  };
  std::vector<std::tuple<int, Key, NodeId>> moves;
  for (int window = 1; window <= 6; ++window) {
    for (int i = 0; i < 400; ++i) {
      const Key a = key();
      clay.Observe(TxnOn(a, key()));
    }
    for (const ClumpMove& mv : clay.MaybePlan(window * 1000, 4)) {
      EXPECT_EQ(mv.hi, mv.lo + 9);
      moves.emplace_back(window, mv.lo, mv.target);
      map.SetRangeOwner(mv.lo, mv.hi, mv.target);
    }
  }
  return moves;
}

// Golden plan sequence, identical under two hash salts: the planner's
// output is a function of the trace alone.
TEST(ClayPlannerTest, SeededPlanSequenceIsPinned) {
  const std::vector<std::tuple<int, Key, NodeId>> want = {
      {1, 160, 1}, {1, 200, 1}, {1, 180, 1}, {2, 20, 3},  {2, 60, 3},
      {2, 80, 3},  {3, 100, 2}, {3, 120, 2}, {3, 40, 2},  {4, 700, 0},
      {4, 540, 0}, {4, 660, 0}, {4, 580, 0}, {4, 640, 0}, {4, 740, 0},
      {4, 720, 0}, {5, 220, 2}, {6, 160, 0}};
  for (uint64_t salt : {uint64_t{1}, uint64_t{0xdeadbeefcafef00d}}) {
    oracle::SaltGuard guard(salt);
    const auto got = SeededPlanSequence();
    EXPECT_EQ(got, want) << "salt " << salt;
  }
}

}  // namespace
}  // namespace hermes::routing
