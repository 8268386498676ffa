#include "routing/schism_partitioner.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "digest_oracle.h"

namespace hermes::routing {
namespace {

TxnRequest TxnOn(std::vector<Key> keys) {
  TxnRequest txn;
  txn.read_set.assign(keys.begin(), keys.end());
  txn.write_set = {keys.front()};
  return txn;
}

TEST(SchismPartitionerTest, CoAccessedRangesColocate) {
  SchismPartitioner schism(2000, /*range_size=*/100);
  // Background uniform traffic keeps vertex weights balanced enough that
  // the co-access structure (0 with 9, 1 with 2) decides placement.
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    schism.Observe(TxnOn({rng.NextBounded(2000), rng.NextBounded(2000)}));
  }
  for (int i = 0; i < 200; ++i) {
    schism.Observe(TxnOn({5, 1905}));
    schism.Observe(TxnOn({205, 405}));
  }
  auto map = schism.Partition(4);
  EXPECT_EQ(map->Owner(5), map->Owner(1905));
  EXPECT_EQ(map->Owner(205), map->Owner(405));
  EXPECT_EQ(map->num_partitions(), 4);
}

TEST(SchismPartitionerTest, BalancesAccessWeight) {
  SchismPartitioner schism(1000, 100);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const Key a = rng.NextBounded(1000);
    const Key b = rng.NextBounded(1000);
    schism.Observe(TxnOn({a, b}));
  }
  auto map = schism.Partition(4);
  std::vector<int> ranges_per(4, 0);
  for (Key r = 0; r < 10; ++r) ++ranges_per[map->Owner(r * 100)];
  // With uniform weights, no partition hoards most ranges.
  for (int c : ranges_per) EXPECT_LE(c, 5);
}

TEST(SchismPartitionerTest, ResetClearsTrace) {
  SchismPartitioner schism(1000, 100);
  schism.Observe(TxnOn({5, 905}));
  EXPECT_EQ(schism.observed_txns(), 1u);
  schism.Reset();
  EXPECT_EQ(schism.observed_txns(), 0u);
}

TEST(SchismPartitionerTest, DifferentWindowsDifferentPlans) {
  // The Fig. 6a effect: a plan trained on one window does not fit another.
  SchismPartitioner w1(2000, 100), w2(2000, 100);
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const Key a = rng.NextBounded(2000), b = rng.NextBounded(2000);
    w1.Observe(TxnOn({a, b}));
    w2.Observe(TxnOn({a, b}));
  }
  for (int i = 0; i < 200; ++i) {
    w1.Observe(TxnOn({5, 1905}));   // window 1: ranges 0+19 together
    w2.Observe(TxnOn({5, 1005}));   // window 2: ranges 0+10 together
  }
  auto m1 = w1.Partition(4);
  auto m2 = w2.Partition(4);
  EXPECT_EQ(m1->Owner(5), m1->Owner(1905));
  EXPECT_EQ(m2->Owner(5), m2->Owner(1005));
}

TEST(SchismPartitionerTest, EmptyTraceStillCoversAllPartitions) {
  SchismPartitioner schism(1000, 100);
  auto map = schism.Partition(4);
  for (Key k = 0; k < 1000; k += 100) {
    EXPECT_GE(map->Owner(k), 0);
    EXPECT_LT(map->Owner(k), 4);
  }
}

// Golden owners for a seeded trace over 40 ranges (enough for MetisLite
// to coarsen): uniform pairs, triples drawn from eight co-access groups,
// and a few keys past the last range, which Partition() ignores. The
// owners are identical under two hash salts.
TEST(SchismPartitionerTest, SeededPartitionIsPinned) {
  const std::vector<NodeId> want = {
      0, 2, 2, 1, 1, 3, 3, 0, 0, 2, 0, 1, 0, 3, 3, 1, 0, 2, 0, 2,
      1, 3, 3, 1, 0, 2, 0, 2, 1, 3, 3, 1, 0, 2, 2, 2, 1, 3, 3, 1};
  for (uint64_t salt : {uint64_t{1}, uint64_t{0xdeadbeefcafef00d}}) {
    oracle::SaltGuard guard(salt);
    SchismPartitioner schism(4000, 100);
    Rng rng(77);
    for (int i = 0; i < 3000; ++i) {
      if (i % 3 == 0) {
        schism.Observe(TxnOn({rng.NextBounded(4000), rng.NextBounded(4000)}));
        continue;
      }
      const Key group = rng.NextBounded(8);
      std::vector<Key> keys;
      for (int j = 0; j < 3; ++j) {
        keys.push_back((group + 8 * rng.NextBounded(5)) * 100 +
                       rng.NextBounded(100));
      }
      if (i % 100 == 1) keys.push_back(4000 + rng.NextBounded(500));
      schism.Observe(TxnOn(keys));
    }
    const auto map = schism.Partition(4);
    std::vector<NodeId> got;
    for (Key r = 0; r < 40; ++r) got.push_back(map->Owner(r * 100));
    EXPECT_EQ(got, want) << "salt " << salt;
  }
}

}  // namespace
}  // namespace hermes::routing
