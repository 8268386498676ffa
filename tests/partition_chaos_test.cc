// Failure-detector tests (DESIGN.md §5 "Partitions & failure
// detection"): hand-built cuts, no injector and no workload, so detector
// timing is pure virtual arithmetic; plus the quiescent check's verdict on
// a cut left up. The seeded partition-chaos corpus (cuts, one-way cuts,
// gray windows, overlapping no-stall crashes, each checked by
// InvariantMonitor::CheckQuiescent and compared across hash salts) is the
// digest oracle's `partition` row (digest_oracle.cc).

#include <string>

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "fault/injector.h"
#include "fault/invariant_monitor.h"
#include "workload/scenarios.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;
using fault::RangeMapFactory;

// The detector alone — no injector, no workload: a hand-built cut must
// convert into membership epochs after exactly kMissThreshold heartbeats,
// and the heal must restore membership after kConfirmThreshold clean
// rounds. Timing is pure virtual arithmetic, so the expectations are
// exact.
TEST(PartitionChaosTest, DetectorConvertsCutIntoMembershipEpochs) {
  ClusterConfig config = workload::Registered("partition").config;
  config.replication.enabled = false;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  ASSERT_NE(cluster.failure_detector(), nullptr);
  EXPECT_FALSE(cluster.failure_detector()->armed());

  cluster.PartitionCut(2, /*cut_inbound=*/true, /*cut_outbound=*/true);
  EXPECT_TRUE(cluster.failure_detector()->armed());
  EXPECT_TRUE(cluster.membership().alive(2));

  // kMissThreshold ticks in, node 2 leaves the primary component.
  const SimTime period = engine::kHeartbeatPeriodUs;
  cluster.RunUntil(period * engine::kMissThreshold + 1);
  EXPECT_FALSE(cluster.membership().alive(2));
  EXPECT_EQ(cluster.failure_detector()->suspects(), 1u);
  EXPECT_EQ(cluster.failure_detector()->suspected().count(2), 1u);

  cluster.PartitionHeal(2);
  // kConfirmThreshold clean rounds later the node is restored.
  cluster.RunUntil(cluster.Now() +
                   period * (engine::kConfirmThreshold + 1) + 1);
  EXPECT_TRUE(cluster.membership().alive(2));
  EXPECT_EQ(cluster.failure_detector()->restores(), 1u);
  EXPECT_TRUE(cluster.failure_detector()->suspected().empty());
  cluster.Drain();
  EXPECT_FALSE(cluster.failure_detector()->armed());
  EXPECT_EQ(cluster.wire().cut_deliveries(), 0u);
}

// An asymmetric (one-way) cut is still a mutual-health failure: the
// victim answers probes in one direction but the pair is unhealthy, so
// the detector isolates it exactly like a two-sided cut.
TEST(PartitionChaosTest, OneWayCutIsolatesTheVictim) {
  ClusterConfig config = workload::Registered("partition").config;
  config.replication.enabled = false;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  cluster.PartitionCut(1, /*cut_inbound=*/true, /*cut_outbound=*/false);
  EXPECT_TRUE(cluster.wire().reachable(1, 0));
  EXPECT_FALSE(cluster.wire().reachable(0, 1));

  const SimTime period = engine::kHeartbeatPeriodUs;
  cluster.RunUntil(period * engine::kMissThreshold + 1);
  EXPECT_FALSE(cluster.membership().alive(1));

  cluster.PartitionHeal(1);
  cluster.RunUntil(cluster.Now() +
                   period * (engine::kConfirmThreshold + 1) + 1);
  EXPECT_TRUE(cluster.membership().alive(1));
  cluster.Drain();
}

// A cut that is never healed fails the quiescent check: it names the cut
// links and the payload still parked behind them, and the replay, which
// has no cut, commits the transaction the live run never finished. The
// detector is off, so nothing re-arms heartbeats and the drain ends with
// the cut up.
TEST(PartitionChaosTest, QuiescentCheckReportsAnUnhealedCut) {
  ClusterConfig config = workload::Registered("partition").config;
  config.detector.enabled = false;
  config.replication.enabled = false;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  cluster.PartitionCut(2, /*cut_inbound=*/true, /*cut_outbound=*/true);
  TxnRequest txn;
  txn.write_set = {100, 4500};  // homes: node 0 and node 2
  cluster.Submit(txn, [](const engine::TxnResult&) {});
  cluster.Drain();

  fault::InvariantMonitor monitor;
  EXPECT_FALSE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                      "unhealed"));
  const std::string report = monitor.FailureReport();
  for (const char* needle :
       {"[unhealed] link 0->2 still cut", "[unhealed] link 2->0 still cut",
        "[unhealed] 1 messages still parked in holding pens",
        "[unhealed] commit/abort counts diverged: live=0/0 replay=1/0"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << report;
  }
}

}  // namespace
}  // namespace hermes
