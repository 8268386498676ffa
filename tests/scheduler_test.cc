#include "engine/scheduler.h"

#include <memory>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/metrics.h"
#include "engine/node.h"
#include "net/wire.h"
#include "partition/partition_map.h"
#include "routing/calvin_router.h"
#include "sim/simulator.h"

namespace hermes::engine {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : ownership_(std::make_unique<partition::RangePartitionMap>(100, 2)),
        router_(&ownership_, &config_.costs, 2),
        metrics_(SecToSim(1)),
        wire_(&sim_, &config_.costs, &config_.net, 2),
        executor_(&sim_, &wire_, &metrics_, &config_.costs, &nodes_),
        scheduler_(&sim_, &router_, &executor_, &log_,
                   [](const TxnRequest&) { return nullptr; }) {
    config_.costs.route_linear_us = 50;
    for (NodeId i = 0; i < 2; ++i) {
      nodes_.push_back(std::make_unique<Node>(i, &sim_, 2, &records_, &locks_));
    }
    for (Key k = 0; k < 100; ++k) {
      nodes_[k / 50]->store().Insert(k, storage::Record{.value = k});
    }
  }

  Batch MakeBatch(BatchId id, size_t n) {
    Batch batch;
    batch.id = id;
    for (size_t i = 0; i < n; ++i) {
      TxnRequest txn;
      txn.id = id * 1000 + i;
      txn.read_set = {i % 100};
      batch.txns.push_back(std::move(txn));
    }
    return batch;
  }

  ClusterConfig config_;
  sim::Simulator sim_;
  partition::OwnershipMap ownership_;
  routing::CalvinRouter router_;
  Metrics metrics_;
  net::Wire wire_;
  storage::RecordTable records_;
  storage::LockTable locks_;
  std::vector<std::unique_ptr<Node>> nodes_;
  TxnExecutor executor_;
  storage::CommandLog log_;
  Scheduler scheduler_;
};

TEST_F(SchedulerTest, AppendsBatchesToCommandLog) {
  scheduler_.OnBatch(MakeBatch(0, 3));
  scheduler_.OnBatch(MakeBatch(1, 2));
  sim_.RunAll();
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_.batches()[0].txns.size(), 3u);
  EXPECT_EQ(scheduler_.batches_routed(), 2u);
}

TEST_F(SchedulerTest, EmptyBatchIsIgnored) {
  scheduler_.OnBatch(Batch{});
  sim_.RunAll();
  EXPECT_EQ(log_.size(), 0u);
  EXPECT_EQ(scheduler_.batches_routed(), 0u);
}

TEST_F(SchedulerTest, DispatchDelayedByAnalysisCost) {
  // Routing cost = 50us/txn linear (set in fixture) + log cost.
  scheduler_.OnBatch(MakeBatch(0, 10));
  EXPECT_GE(scheduler_.busy_until(),
            10 * config_.costs.route_linear_us);
  sim_.RunAll();
  EXPECT_EQ(executor_.committed(), 10u);
}

TEST_F(SchedulerTest, PipelineBacklogsSequentially) {
  // Two batches routed back-to-back: the second's dispatch time starts
  // where the first's analysis ended.
  scheduler_.OnBatch(MakeBatch(0, 10));
  const SimTime first = scheduler_.busy_until();
  scheduler_.OnBatch(MakeBatch(1, 10));
  EXPECT_GE(scheduler_.busy_until(), 2 * first);
  sim_.RunAll();
  EXPECT_EQ(executor_.committed(), 20u);
}

}  // namespace
}  // namespace hermes::engine
