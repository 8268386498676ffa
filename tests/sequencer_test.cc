#include "engine/sequencer.h"

#include <vector>

#include <gtest/gtest.h>

namespace hermes::engine {
namespace {

TEST(SequencerTest, BatchesAtEpochBoundaries) {
  sim::Simulator sim;
  ClusterConfig config;
  config.epoch_us = 1000;
  config.costs.total_order_us = 400;
  std::vector<Batch> batches;
  Sequencer seq(&sim, &config, [&](Batch&& b) { batches.push_back(b); });

  seq.Submit(TxnRequest{});
  seq.Submit(TxnRequest{});
  sim.RunAll();

  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].id, 0u);
  EXPECT_EQ(batches[0].txns.size(), 2u);
  // Cut at the first epoch boundary + total-order round trip.
  EXPECT_EQ(batches[0].sequenced_at, 1400u);
}

TEST(SequencerTest, AssignsMonotonicTxnIds) {
  sim::Simulator sim;
  ClusterConfig config;
  std::vector<Batch> batches;
  Sequencer seq(&sim, &config, [&](Batch&& b) { batches.push_back(b); });
  for (int i = 0; i < 5; ++i) seq.Submit(TxnRequest{});
  sim.RunAll();
  ASSERT_EQ(batches.size(), 1u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(batches[0].txns[i].id, i);
}

TEST(SequencerTest, LaterSubmissionsFormLaterBatches) {
  sim::Simulator sim;
  ClusterConfig config;
  config.epoch_us = 1000;
  std::vector<Batch> batches;
  Sequencer seq(&sim, &config, [&](Batch&& b) { batches.push_back(b); });

  seq.Submit(TxnRequest{});
  sim.Schedule(2500, [&] { seq.Submit(TxnRequest{}); });
  sim.RunAll();

  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].id, 0u);
  EXPECT_EQ(batches[1].id, 1u);
  EXPECT_EQ(batches[1].txns[0].id, 1u);
}

TEST(SequencerTest, MaxBatchSizeSplitsBacklog) {
  sim::Simulator sim;
  ClusterConfig config;
  config.epoch_us = 1000;
  config.max_batch_size = 3;
  std::vector<Batch> batches;
  Sequencer seq(&sim, &config, [&](Batch&& b) { batches.push_back(b); });
  for (int i = 0; i < 7; ++i) seq.Submit(TxnRequest{});
  sim.RunAll();

  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].txns.size(), 3u);
  EXPECT_EQ(batches[1].txns.size(), 3u);
  EXPECT_EQ(batches[2].txns.size(), 1u);
  // The cuts keep arrival order across the queue's compaction.
  TxnId next = 0;
  for (const Batch& b : batches) {
    for (const TxnRequest& t : b.txns) EXPECT_EQ(t.id, next++);
  }
}

TEST(SequencerTest, IdleSequencerSchedulesNothing) {
  sim::Simulator sim;
  ClusterConfig config;
  int calls = 0;
  Sequencer seq(&sim, &config, [&](Batch&&) { ++calls; });
  sim.RunAll();
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(sim.idle());
}

TEST(SequencerTest, RestoreCountersContinuesSequence) {
  sim::Simulator sim;
  ClusterConfig config;
  std::vector<Batch> batches;
  Sequencer seq(&sim, &config, [&](Batch&& b) { batches.push_back(b); });
  seq.RestoreCounters(7, 1000);
  seq.Submit(TxnRequest{});
  sim.RunAll();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].id, 7u);
  EXPECT_EQ(batches[0].txns[0].id, 1000u);
}

}  // namespace
}  // namespace hermes::engine
