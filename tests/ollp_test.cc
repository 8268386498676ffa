// Tests for OLLP (Optimistic Lock Location Prediction, §2.1): requests
// whose read/write sets are not derivable up front run a reconnaissance
// read before sequencing; stale predictions abort deterministically and
// retry once.

#include <memory>

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "partition/partition_map.h"
#include "workload/client.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;

ClusterConfig OllpConfig(double stale_prob) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 10'000;
  config.ollp_stale_prob = stale_prob;
  return config;
}

std::unique_ptr<Cluster> MakeCluster(const ClusterConfig& config) {
  auto cluster = std::make_unique<Cluster>(
      config, RouterKind::kHermes,
      std::make_unique<partition::RangePartitionMap>(config.num_records,
                                                     config.num_nodes));
  cluster->Load();
  return cluster;
}

TxnRequest OllpTxn(std::vector<Key> keys) {
  TxnRequest txn;
  txn.read_set.assign(keys.begin(), keys.end());
  txn.write_set = txn.read_set;
  txn.requires_reconnaissance = true;
  return txn;
}

TEST(OllpTest, ReconnaissancePrecedesCommit) {
  ClusterConfig config = OllpConfig(0.0);
  config.epoch_us = 100;  // epochs shorter than the probe round trip
  auto cluster = MakeCluster(config);
  bool done = false;
  SimTime commit_time = 0;
  cluster->Submit(OllpTxn({5, 9000}), [&](const engine::TxnResult& r) {
    EXPECT_FALSE(r.aborted);
    done = true;
    commit_time = cluster->Now();
  });
  cluster->Drain();
  ASSERT_TRUE(done);
  EXPECT_EQ(cluster->ollp_reconnaissance_count(), 1u);
  EXPECT_EQ(cluster->ollp_retry_count(), 0u);

  // A plain request commits faster: the probe costs a round trip.
  auto baseline = MakeCluster(config);
  TxnRequest plain;
  plain.read_set = {5, 9000};
  plain.write_set = {5, 9000};
  SimTime plain_commit = 0;
  baseline->Submit(plain, [&](const engine::TxnResult&) {
    plain_commit = baseline->Now();
  });
  baseline->Drain();
  EXPECT_GT(commit_time, plain_commit);
}

TEST(OllpTest, StalePredictionAbortsAndRetries) {
  auto cluster = MakeCluster(OllpConfig(1.0));  // always stale
  bool done = false;
  cluster->Submit(OllpTxn({5, 9000}), [&](const engine::TxnResult& r) {
    EXPECT_FALSE(r.aborted);  // the retry commits
    done = true;
  });
  cluster->Drain();
  ASSERT_TRUE(done);
  EXPECT_EQ(cluster->ollp_retry_count(), 1u);
  // The aborted first attempt shows up in the metrics.
  EXPECT_EQ(cluster->metrics().total_aborts(), 1u);
  EXPECT_EQ(cluster->metrics().total_commits(), 1u);
  // Both attempts entered the command log (determinism requires it).
  size_t logged = 0;
  for (const auto& batch : cluster->command_log().batches()) {
    logged += batch.txns.size();
  }
  EXPECT_EQ(logged, 2u);
}

TEST(OllpTest, AbortedFirstAttemptStillWritesNothing) {
  auto cluster = MakeCluster(OllpConfig(1.0));
  cluster->Submit(OllpTxn({5, 9000}));
  cluster->Drain();
  // One committed write in total (from the retry), not two.
  const NodeId owner = cluster->ownership().Owner(5);
  EXPECT_EQ(cluster->node(owner).store().Get(5)->version, 1u);
}

TEST(OllpTest, MixedWorkloadDrainsCleanly) {
  auto cluster = MakeCluster(OllpConfig(0.3));
  workload::YcsbConfig wl;
  wl.num_records = 10'000;
  wl.num_partitions = 4;
  wl.seed = 77;
  workload::YcsbWorkload gen(wl, nullptr);
  Rng flip(9);
  workload::ClosedLoopDriver driver(cluster.get(), 16, [&](int, SimTime now) {
    TxnRequest txn = gen.Next(now);
    txn.requires_reconnaissance = flip.NextDouble() < 0.5;
    return txn;
  });
  driver.set_stop_time(SecToSim(1));
  driver.Start();
  cluster->RunUntil(SecToSim(1));
  cluster->Drain();

  EXPECT_GT(cluster->ollp_reconnaissance_count(), 100u);
  EXPECT_GT(cluster->ollp_retry_count(), 10u);
  EXPECT_EQ(cluster->executor().inflight(), 0u);
  EXPECT_GT(cluster->metrics().total_commits(), 200u);
}

TEST(OllpTest, DeterministicAcrossRuns) {
  auto run = [] {
    auto cluster = MakeCluster(OllpConfig(0.25));
    workload::YcsbConfig wl;
    wl.num_records = 10'000;
    wl.num_partitions = 4;
    wl.seed = 31;
    workload::YcsbWorkload gen(wl, nullptr);
    workload::ClosedLoopDriver driver(cluster.get(), 8,
                                      [&](int, SimTime now) {
                                        TxnRequest txn = gen.Next(now);
                                        txn.requires_reconnaissance = true;
                                        return txn;
                                      });
    driver.set_stop_time(MsToSim(500));
    driver.Start();
    cluster->RunUntil(MsToSim(500));
    cluster->Drain();
    return cluster->StateChecksum() ^ cluster->ollp_retry_count();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace hermes
