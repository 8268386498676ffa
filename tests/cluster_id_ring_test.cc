// The cluster's id-indexed tables under the flows that stress them: client
// callbacks are kept in a ring indexed by transaction id from sequencing to
// dispatch, and the executor's transaction table is a ring too. Each case
// drives a flow where ids leave the plain increasing pattern: an OLLP retry
// and a degraded retry re-register a callback under a new id, parked chunk
// migrations re-enter the executor with ids older than the live ones after
// a rejoin, and a restored cluster continues ids from its checkpoint.

#include <map>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "engine/recovery.h"
#include "fault/injector.h"
#include "fault/invariant_monitor.h"
#include "workload/client.h"
#include "workload/scenarios.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;
using engine::TxnResult;
using fault::InvariantMonitor;
using fault::RangeMapFactory;

/// Every client callback's result, by the order the client submitted it.
struct Results {
  std::map<int, std::vector<TxnResult>> by_client;

  engine::TxnExecutor::CommitCallback For(int client) {
    return [this, client](const TxnResult& r) {
      by_client[client].push_back(r);
    };
  }
  /// True when each of `n` clients got exactly one result.
  bool EachOnce(int n) const {
    if (static_cast<int>(by_client.size()) != n) return false;
    for (const auto& [client, results] : by_client) {
      if (results.size() != 1) return false;
    }
    return true;
  }
};

TxnRequest WriteTxn(Key read, Key write) {
  TxnRequest txn;
  txn.read_set = {read};
  txn.write_set = {write};
  return txn;
}

TEST(ClusterIdRingTest, OllpStaleRetryResolvesUnderItsNewId) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 4'000;
  config.ollp_stale_prob = 1.0;  // every prediction is stale
  Cluster cluster(config, RouterKind::kCalvin, RangeMapFactory(config)());
  cluster.Load();

  // Reconnaissance requests interleave with plain ones, so the retries
  // register their callbacks between later transactions' callbacks.
  Results results;
  constexpr int kTxns = 40;
  for (int i = 0; i < kTxns; ++i) {
    TxnRequest txn = WriteTxn(static_cast<Key>(i * 97 % 4000),
                              static_cast<Key>((i * 31 + 1000) % 4000));
    txn.requires_reconnaissance = i % 2 == 0;
    cluster.Submit(txn, results.For(i));
  }
  cluster.Drain();

  ASSERT_TRUE(results.EachOnce(kTxns));
  EXPECT_EQ(cluster.ollp_retry_count(), static_cast<uint64_t>(kTxns / 2));
  std::set<TxnId> ids;
  for (const auto& [client, r] : results.by_client) {
    EXPECT_FALSE(r[0].aborted) << "client " << client;
    ids.insert(r[0].id);
  }
  // 40 clients, 20 aborted first attempts: the callbacks resolved under
  // 40 distinct ids out of the 60 sequenced, and nothing is left behind.
  EXPECT_EQ(ids.size(), static_cast<size_t>(kTxns));
  EXPECT_LT(*ids.rbegin(), static_cast<TxnId>(kTxns + kTxns / 2));
  EXPECT_EQ(cluster.executor().inflight(), 0u);
  EXPECT_EQ(cluster.executor().committed(), static_cast<uint64_t>(kTxns));
  EXPECT_EQ(cluster.executor().aborted(), static_cast<uint64_t>(kTxns / 2));
}

TEST(ClusterIdRingTest, DegradedRetryRegistersUnderANewId) {
  const ClusterConfig config = workload::Registered("degraded_retry").config;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  cluster.CrashNoStall(2);
  // Node 2 owns [4000, 6000) under the range map: these block, and each
  // blocked attempt re-enters the sequencer under a fresh id.
  Results results;
  constexpr int kTxns = 6;
  for (int i = 0; i < kTxns; ++i) {
    cluster.Submit(WriteTxn(static_cast<Key>(100 + i),
                            static_cast<Key>(4000 + i)),
                   results.For(i));
  }
  // The first batch is cut at the 10 ms epoch boundary and classified
  // 0.4 ms later; every attempt is then waiting out its backoff.
  cluster.RunUntil(MsToSim(11));
  EXPECT_GE(cluster.degraded_ledger().retries_scheduled(),
            static_cast<uint64_t>(kTxns));
  EXPECT_TRUE(results.by_client.empty());
  cluster.RejoinNoStall(2);
  cluster.Drain();

  ASSERT_TRUE(results.EachOnce(kTxns)) << cluster.DegradedDebugString();
  std::set<TxnId> ids;
  for (const auto& [client, r] : results.by_client) {
    EXPECT_FALSE(r[0].aborted) << "client " << client;
    // The first attempts took ids 0..5; the committed attempt is a retry.
    EXPECT_GE(r[0].id, static_cast<TxnId>(kTxns)) << "client " << client;
    ids.insert(r[0].id);
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kTxns));
  EXPECT_EQ(cluster.executor().inflight(), 0u);

  InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                     "final"))
      << monitor.FailureReport();
}

TEST(ClusterIdRingTest, ParkedChunksReenterBelowTheLiveIdsAfterRejoin) {
  const ClusterConfig config = workload::Registered("degraded_retry").config;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  // Chunks toward a dead node park with the ids they were sequenced
  // under, while a closed loop keeps sequencing newer transactions. The
  // loop stays off the chunk range (its keys start at 1000), so no fusion
  // migration moves a chunk key on after it lands.
  cluster.CrashNoStall(1);
  cluster.SubmitMigrationPlan({{100, 899, 1}});
  workload::YcsbConfig wl;
  wl.num_records = config.num_records - 1000;
  wl.num_partitions = config.num_nodes;
  wl.seed = 4242;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(&cluster, 24, [&gen](int, SimTime now) {
    TxnRequest txn = gen.Next(now);
    for (Key& k : txn.read_set) k += 1000;
    for (Key& k : txn.write_set) k += 1000;
    return txn;
  });
  driver.set_stop_time(MsToSim(40));
  driver.Start();
  cluster.RunUntil(MsToSim(20));
  ASSERT_GT(cluster.parked_count(), 0u) << cluster.DegradedDebugString();

  // The rejoin releases the parked chunk while newer transactions are in
  // flight: its callback was kept all along, and the executor takes it
  // back in below their ids.
  SimTime now = MsToSim(20);
  while (cluster.executor().inflight() == 0) {
    ASSERT_LT(now, MsToSim(30)) << "no batch was dispatched";
    now += 10;
    cluster.RunUntil(now);
  }
  cluster.RejoinNoStall(1);
  cluster.RunUntil(MsToSim(40));
  cluster.Drain();

  EXPECT_EQ(cluster.parked_count(), 0u);
  EXPECT_EQ(cluster.executor().inflight(), 0u);
  // Each chunk's callback submits the next one, so every key landing at
  // the target proves the whole chain resolved.
  for (Key k = 100; k <= 899; ++k) {
    ASSERT_TRUE(cluster.node(1).store().Contains(k))
        << "chunk key " << k << " never reached its migration target";
  }
  EXPECT_GT(driver.completed(), 0u);

  InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(cluster, RangeMapFactory(config),
                                     "final"))
      << monitor.FailureReport();
}

TEST(ClusterIdRingTest, RestoredClusterContinuesIdsAfterReplay) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 10'000;
  config.hermes.fusion_table_capacity = 300;

  // Primary: a closed-loop phase, a checkpoint at quiescence, a second
  // phase whose callbacks all resolve, then the suffix replays elsewhere.
  Cluster primary(config, RouterKind::kHermes, RangeMapFactory(config)());
  primary.Load();
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 777;
  workload::YcsbWorkload gen(wl, nullptr);
  {
    workload::ClosedLoopDriver driver(
        &primary, 16, [&gen](int, SimTime now) { return gen.Next(now); });
    driver.set_stop_time(MsToSim(100));
    driver.Start();
    primary.RunUntil(MsToSim(100));
    primary.Drain();
  }
  const storage::Checkpoint checkpoint = primary.TakeCheckpoint();
  Results phase2;
  for (int i = 0; i < 30; ++i) primary.Submit(gen.Next(0), phase2.For(i));
  primary.Drain();
  ASSERT_TRUE(phase2.EachOnce(30));

  auto recovered = engine::RecoverCluster(
      config, RouterKind::kHermes, RangeMapFactory(config)(), checkpoint,
      primary.command_log());
  ASSERT_EQ(recovered->StateChecksum(), primary.StateChecksum());

  // Both continue the total order from the primary's counters: the same
  // requests get the same ids on both, and every callback fires once.
  const Batch& last = primary.command_log().batches().back();
  const BatchId next_batch = last.id + 1;
  const TxnId next_txn = last.txns.back().id + 1;
  recovered->RestoreSequencerCounters(next_batch, next_txn);
  Results on_primary;
  Results on_recovered;
  for (int i = 0; i < 30; ++i) {
    const TxnRequest txn = gen.Next(0);
    primary.Submit(txn, on_primary.For(i));
    recovered->Submit(txn, on_recovered.For(i));
  }
  primary.Drain();
  recovered->Drain();
  ASSERT_TRUE(on_primary.EachOnce(30));
  ASSERT_TRUE(on_recovered.EachOnce(30));
  for (int i = 0; i < 30; ++i) {
    const TxnResult& a = on_primary.by_client[i][0];
    const TxnResult& b = on_recovered.by_client[i][0];
    EXPECT_EQ(a.id, b.id) << "request " << i;
    EXPECT_GE(b.id, next_txn) << "request " << i;
    EXPECT_EQ(a.aborted, b.aborted) << "request " << i;
  }
  EXPECT_EQ(recovered->StateChecksum(), primary.StateChecksum());
  EXPECT_EQ(recovered->executor().inflight(), 0u);
}

}  // namespace
}  // namespace hermes
