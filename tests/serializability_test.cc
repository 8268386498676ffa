// Serializability property tests (the correctness claim the paper proves
// in its supplementary materials): the distributed, pipelined, migrating
// execution must be equivalent to a serial execution of the transactions
// in the order the (deterministic) scheduler fixed.
//
// Method: run a cluster, capture the executed transaction order via the
// dispatch observer, replay the same transactions serially on a
// single-store reference model, and compare placement-insensitive content
// checksums.

#include <memory>
#include <unordered_map>

#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "partition/partition_map.h"
#include "storage/record_store.h"
#include "workload/client.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;

ClusterConfig SmallConfig() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 8'000;
  config.hermes.fusion_table_capacity = 400;
  return config;
}

/// Applies the committed effects of `txns` (in the given order) to a
/// fresh single store and returns its content checksum.
uint64_t SerialReference(const ClusterConfig& config,
                         const std::vector<TxnRequest>& txns) {
  storage::RecordStore store;
  for (Key k = 0; k < config.num_records; ++k) {
    store.Insert(k, storage::Record{.value = Mix64(k)});
  }
  for (const TxnRequest& txn : txns) {
    if (txn.kind != TxnKind::kRegular || txn.user_abort) continue;
    // Writes fold the writer id exactly as the executor does; duplicate
    // keys in a write-set count once (executors deduplicate).
    std::vector<Key> writes(txn.write_set.begin(), txn.write_set.end());
    std::sort(writes.begin(), writes.end());
    writes.erase(std::unique(writes.begin(), writes.end()), writes.end());
    for (Key k : writes) store.ApplyWrite(k, txn.id);
  }
  return store.Checksum();
}

/// Runs `kind` over a YCSB workload, capturing the executed order.
struct RunOutput {
  uint64_t content_checksum;
  std::vector<TxnRequest> executed_order;
  uint64_t commits;
};

RunOutput RunAndCapture(RouterKind kind, uint64_t seed) {
  const ClusterConfig config = SmallConfig();
  Cluster cluster(config, kind,
                  std::make_unique<partition::RangePartitionMap>(
                      config.num_records, config.num_nodes));
  cluster.Load();

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = seed;
  workload::YcsbWorkload gen(wl, nullptr);
  Rng abort_rng(seed ^ 0xabcd);
  workload::ClosedLoopDriver driver(&cluster, 16, [&](int, SimTime now) {
    TxnRequest txn = gen.Next(now);
    txn.user_abort = abort_rng.NextDouble() < 0.1;
    return txn;
  });
  driver.set_stop_time(MsToSim(600));
  driver.Start();
  cluster.RunUntil(MsToSim(600));
  cluster.Drain();

  RunOutput out;
  out.commits = cluster.metrics().total_commits();
  out.content_checksum = cluster.ContentChecksum();

  // Recover the executed (possibly reordered) transaction order: route
  // the logged batches through a fresh replica router — deterministic
  // routing yields the identical plan the live run executed.
  engine::Cluster replica(
      config, kind,
      std::make_unique<partition::RangePartitionMap>(config.num_records,
                                                     config.num_nodes));
  replica.Load();
  for (const Batch& batch : cluster.command_log().batches()) {
    routing::RoutePlan plan = replica.router().RouteBatch(batch);
    for (const auto& rt : plan.txns) out.executed_order.push_back(rt.txn);
  }
  return out;
}

class SerializabilityTest : public ::testing::TestWithParam<RouterKind> {};

TEST_P(SerializabilityTest, ExecutionEquivalentToSerialOrder) {
  const RunOutput out = RunAndCapture(GetParam(), 2024);
  ASSERT_GT(out.commits, 100u);
  const uint64_t reference =
      SerialReference(SmallConfig(), out.executed_order);
  EXPECT_EQ(out.content_checksum, reference);
}

INSTANTIATE_TEST_SUITE_P(AllRouters, SerializabilityTest,
                         ::testing::Values(RouterKind::kCalvin,
                                           RouterKind::kGStore,
                                           RouterKind::kLeap,
                                           RouterKind::kTPart,
                                           RouterKind::kHermes),
                         [](const auto& info) {
                           switch (info.param) {
                             case RouterKind::kCalvin: return "Calvin";
                             case RouterKind::kGStore: return "GStore";
                             case RouterKind::kLeap: return "Leap";
                             case RouterKind::kTPart: return "TPart";
                             case RouterKind::kHermes: return "Hermes";
                           }
                           return "Unknown";
                         });

TEST(SerializabilityCrossTest, NonReorderingRoutersAgreeOnValues) {
  // Calvin, G-Store, LEAP and T-Part never reorder, so given the same
  // submission stream they execute the same serial order and must end
  // with identical record values (placement differs, values match).
  // Submissions must not depend on commit timing: use a fixed stream.
  auto run = [](RouterKind kind) {
    const ClusterConfig config = SmallConfig();
    Cluster cluster(config, kind,
                    std::make_unique<partition::RangePartitionMap>(
                        config.num_records, config.num_nodes));
    cluster.Load();
    workload::YcsbConfig wl;
    wl.num_records = config.num_records;
    wl.num_partitions = config.num_nodes;
    wl.seed = 5150;
    workload::YcsbWorkload gen(wl, nullptr);
    for (int i = 0; i < 400; ++i) cluster.Submit(gen.Next(0));
    cluster.Drain();
    return cluster.ContentChecksum();
  };
  const uint64_t calvin = run(RouterKind::kCalvin);
  EXPECT_EQ(run(RouterKind::kGStore), calvin);
  EXPECT_EQ(run(RouterKind::kLeap), calvin);
  EXPECT_EQ(run(RouterKind::kTPart), calvin);
}

}  // namespace
}  // namespace hermes
