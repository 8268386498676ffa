// Failure-detector tests (DESIGN.md §5 "Partitions & failure
// detection"): hand-built cuts, no injector and no workload, so detector
// timing is pure virtual arithmetic. The seeded partition-chaos corpus
// (cuts, one-way cuts, gray windows, overlapping no-stall crashes, each
// replayed by the partition oracle and compared across hash salts) is the
// digest oracle's `partition` row (digest_oracle.cc).

#include <gtest/gtest.h>

#include "digest_oracle.h"
#include "engine/cluster.h"
#include "fault/injector.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;
using fault::RangeMapFactory;

// The detector alone — no injector, no workload: a hand-built cut must
// convert into membership epochs after exactly miss_threshold heartbeats,
// and the heal must restore membership after confirm_threshold clean
// rounds. Timing is pure virtual arithmetic, so the expectations are
// exact.
TEST(PartitionChaosTest, DetectorConvertsCutIntoMembershipEpochs) {
  ClusterConfig config = oracle::PartitionConfig();
  config.replication.enabled = false;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  ASSERT_NE(cluster.failure_detector(), nullptr);
  EXPECT_FALSE(cluster.failure_detector()->armed());

  cluster.PartitionCut(2, /*cut_inbound=*/true, /*cut_outbound=*/true);
  EXPECT_TRUE(cluster.failure_detector()->armed());
  EXPECT_TRUE(cluster.membership().alive(2));

  // miss_threshold ticks in, node 2 leaves the primary component.
  const SimTime period = config.detector.heartbeat_period_us;
  cluster.RunUntil(period * config.detector.miss_threshold + 1);
  EXPECT_FALSE(cluster.membership().alive(2));
  EXPECT_EQ(cluster.failure_detector()->suspects(), 1u);
  EXPECT_EQ(cluster.failure_detector()->suspected().count(2), 1u);

  cluster.PartitionHeal(2);
  // confirm_threshold clean rounds later the node is restored.
  cluster.RunUntil(cluster.Now() +
                   period * (config.detector.confirm_threshold + 1) + 1);
  EXPECT_TRUE(cluster.membership().alive(2));
  EXPECT_EQ(cluster.failure_detector()->restores(), 1u);
  EXPECT_TRUE(cluster.failure_detector()->suspected().empty());
  cluster.Drain();
  EXPECT_FALSE(cluster.failure_detector()->armed());
  EXPECT_EQ(cluster.network().cut_deliveries(), 0u);
}

// An asymmetric (one-way) cut is still a mutual-health failure: the
// victim answers probes in one direction but the pair is unhealthy, so
// the detector isolates it exactly like a two-sided cut.
TEST(PartitionChaosTest, OneWayCutIsolatesTheVictim) {
  ClusterConfig config = oracle::PartitionConfig();
  config.replication.enabled = false;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  cluster.PartitionCut(1, /*cut_inbound=*/true, /*cut_outbound=*/false);
  EXPECT_TRUE(cluster.network().reachable(1, 0));
  EXPECT_FALSE(cluster.network().reachable(0, 1));

  const SimTime period = config.detector.heartbeat_period_us;
  cluster.RunUntil(period * config.detector.miss_threshold + 1);
  EXPECT_FALSE(cluster.membership().alive(1));

  cluster.PartitionHeal(1);
  cluster.RunUntil(cluster.Now() +
                   period * (config.detector.confirm_threshold + 1) + 1);
  EXPECT_TRUE(cluster.membership().alive(1));
  cluster.Drain();
}

}  // namespace
}  // namespace hermes
