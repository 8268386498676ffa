#include "engine/executor.h"

#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "engine/metrics.h"
#include "engine/node.h"
#include "net/wire.h"
#include "sim/simulator.h"

namespace hermes::engine {
namespace {

using routing::Access;
using routing::RoutedTxn;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : metrics_(SecToSim(1)),
        wire_(&sim_, &costs_, &net_config_, 4),
        executor_(&sim_, &wire_, &metrics_, &costs_, &nodes_) {
    for (NodeId i = 0; i < 4; ++i) {
      nodes_.push_back(std::make_unique<Node>(i, &sim_, 2, &records_, &locks_));
    }
    // Records 0..99 on node 0, 100..199 on node 1, etc.
    for (Key k = 0; k < 400; ++k) {
      nodes_[k / 100]->store().Insert(k, storage::Record{.value = k});
    }
  }

  RoutedTxn SingleMaster(TxnId id, NodeId master,
                         std::vector<Access> accesses,
                         std::vector<Key> write_set = {}) {
    RoutedTxn rt;
    rt.txn.id = id;
    rt.txn.write_set.assign(write_set.begin(), write_set.end());
    for (const Access& a : accesses) {
      rt.txn.read_set.push_back(a.key);
    }
    rt.masters = {master};
    rt.accesses = std::move(accesses);
    return rt;
  }

  sim::Simulator sim_;
  CostModel costs_;
  Metrics metrics_;
  NetConfig net_config_;
  net::Wire wire_;
  storage::RecordTable records_;
  storage::LockTable locks_;
  std::vector<std::unique_ptr<Node>> nodes_;
  TxnExecutor executor_;
};

TEST_F(ExecutorTest, LocalReadOnlyTxnCommits) {
  bool done = false;
  auto rt = SingleMaster(1, 0, {{5, 0, false, false, kInvalidNode}});
  executor_.Dispatch(std::move(rt), [&](const TxnResult& r) {
    EXPECT_FALSE(r.aborted);
    EXPECT_FALSE(r.distributed);
    done = true;
  });
  sim_.RunAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(executor_.inflight(), 0u);
  EXPECT_EQ(executor_.committed(), 1u);
}

TEST_F(ExecutorTest, RemoteReadWaitsForShipment) {
  bool done = false;
  SimTime commit_time = 0;
  auto rt = SingleMaster(1, 0,
                         {{5, 0, false, false, kInvalidNode},
                          {105, 1, false, true, kInvalidNode}});
  executor_.Dispatch(std::move(rt), [&](const TxnResult& r) {
    EXPECT_TRUE(r.distributed);
    commit_time = sim_.Now();
    done = true;
  });
  sim_.RunAll();
  EXPECT_TRUE(done);
  // At least one network hop for the read plus one for the client ack.
  EXPECT_GE(commit_time, 2 * costs_.net_latency_us);
  EXPECT_GT(wire_.total_bytes(), 1000u);
  // Remote read does NOT move the record.
  EXPECT_TRUE(nodes_[1]->store().Contains(105));
  EXPECT_FALSE(nodes_[0]->store().Contains(105));
}

TEST_F(ExecutorTest, MigrationMovesRecordAndAppliesWrite) {
  auto rt = SingleMaster(1, 0,
                         {{5, 0, true, false, kInvalidNode},
                          {105, 1, true, true, 0}},
                         {5, 105});
  executor_.Dispatch(std::move(rt), nullptr);
  sim_.RunAll();
  EXPECT_FALSE(nodes_[1]->store().Contains(105));
  ASSERT_TRUE(nodes_[0]->store().Contains(105));
  EXPECT_EQ(nodes_[0]->store().Get(105)->version, 1u);
  EXPECT_EQ(nodes_[0]->store().Get(5)->version, 1u);
  EXPECT_EQ(nodes_[0]->store().Get(105)->last_writer, 1u);
}

TEST_F(ExecutorTest, UserAbortRollsBackWrites) {
  auto rt = SingleMaster(1, 0, {{5, 0, true, false, kInvalidNode}}, {5});
  rt.txn.user_abort = true;
  bool done = false;
  executor_.Dispatch(std::move(rt), [&](const TxnResult& r) {
    EXPECT_TRUE(r.aborted);
    done = true;
  });
  sim_.RunAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(nodes_[0]->store().Get(5)->version, 0u);
  EXPECT_EQ(nodes_[0]->store().Get(5)->value, 5u);
  EXPECT_EQ(executor_.aborted(), 1u);
}

TEST_F(ExecutorTest, OnCommitReturnShipsRecordHome) {
  // G-Store style: record 105 checks out to node 0 and returns on commit.
  auto rt = SingleMaster(1, 0,
                         {{105, 1, true, true, 0}}, {105});
  rt.on_commit_returns.push_back(routing::ReturnShipment{105, 0, 1});
  executor_.Dispatch(std::move(rt), nullptr);
  sim_.RunAll();
  EXPECT_FALSE(nodes_[0]->store().Contains(105));
  ASSERT_TRUE(nodes_[1]->store().Contains(105));
  EXPECT_EQ(nodes_[1]->store().Get(105)->version, 1u);  // post-commit value
}

TEST_F(ExecutorTest, ConflictingTxnsSerializeInOrder) {
  std::vector<TxnId> commit_order;
  for (TxnId id = 1; id <= 3; ++id) {
    auto rt = SingleMaster(id, 0, {{5, 0, true, false, kInvalidNode}}, {5});
    executor_.Dispatch(std::move(rt), [&commit_order, id](const TxnResult&) {
      commit_order.push_back(id);
    });
  }
  sim_.RunAll();
  EXPECT_EQ(commit_order, (std::vector<TxnId>{1, 2, 3}));
  EXPECT_EQ(nodes_[0]->store().Get(5)->version, 3u);
}

TEST_F(ExecutorTest, SharedReadersProceedInParallel) {
  // Two read-only transactions on the same key both commit without
  // serializing behind each other (shared locks).
  SimTime t1 = 0, t2 = 0;
  auto r1 = SingleMaster(1, 0, {{5, 0, false, false, kInvalidNode}});
  auto r2 = SingleMaster(2, 0, {{5, 0, false, false, kInvalidNode}});
  executor_.Dispatch(std::move(r1), [&](const TxnResult&) { t1 = sim_.Now(); });
  executor_.Dispatch(std::move(r2), [&](const TxnResult&) { t2 = sim_.Now(); });
  sim_.RunAll();
  EXPECT_EQ(t1, t2);
}

TEST_F(ExecutorTest, MultiMasterCalvinBothApplyTheirWrites) {
  RoutedTxn rt;
  rt.txn.id = 1;
  rt.txn.read_set = {5, 105};
  rt.txn.write_set = {5, 105};
  rt.masters = {0, 1};
  rt.accesses = {{5, 0, true, true, kInvalidNode},
                 {105, 1, true, true, kInvalidNode}};
  bool done = false;
  executor_.Dispatch(std::move(rt), [&](const TxnResult& r) {
    EXPECT_TRUE(r.distributed);
    done = true;
  });
  sim_.RunAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(nodes_[0]->store().Get(5)->version, 1u);
  EXPECT_EQ(nodes_[1]->store().Get(105)->version, 1u);
  // Records never moved.
  EXPECT_TRUE(nodes_[0]->store().Contains(5));
  EXPECT_TRUE(nodes_[1]->store().Contains(105));
}

TEST_F(ExecutorTest, SuccessorWaitsForInFlightMigration) {
  // Txn 1 migrates key 105 to node 0; txn 2 (later in total order) reads
  // it at node 0 and must see txn 1's write.
  auto rt1 = SingleMaster(1, 0, {{105, 1, true, true, 0}}, {105});
  auto rt2 = SingleMaster(2, 0, {{105, 0, false, false, kInvalidNode}});
  uint32_t version_seen = 99;
  executor_.Dispatch(std::move(rt1), nullptr);
  executor_.Dispatch(std::move(rt2), [&](const TxnResult&) {
    version_seen = nodes_[0]->store().Get(105)->version;
  });
  sim_.RunAll();
  EXPECT_EQ(version_seen, 1u);
}

TEST_F(ExecutorTest, EvictionShipsAfterCommitWithoutDelayingClient) {
  // Eviction access: record 105 ships home (node 1 -> node 2's range? no:
  // to node 2 as its new overlay home) without the master waiting for it.
  auto rt = SingleMaster(1, 0,
                         {{5, 0, true, false, kInvalidNode},
                          {105, 1, true, false, /*new_owner=*/2}},
                         {5});
  bool done = false;
  executor_.Dispatch(std::move(rt), [&](const TxnResult&) { done = true; });
  sim_.RunAll();
  EXPECT_TRUE(done);
  EXPECT_FALSE(nodes_[1]->store().Contains(105));
  EXPECT_TRUE(nodes_[2]->store().Contains(105));
  EXPECT_EQ(executor_.inflight(), 0u);
}

TEST_F(ExecutorTest, LatencyBreakdownAccountsPhases) {
  auto rt = SingleMaster(1, 0, {{105, 1, false, true, kInvalidNode}});
  rt.txn.submit_time = 0;
  LatencyBreakdown lat;
  executor_.Dispatch(std::move(rt), [&](const TxnResult& r) { lat = r.latency; });
  sim_.RunAll();
  EXPECT_GT(lat.total_us, 0u);
  EXPECT_GT(lat.remote_wait_us, 0u);
  EXPECT_GT(lat.storage_us, 0u);
  EXPECT_GE(lat.total_us, lat.scheduling_us + lat.lock_wait_us +
                              lat.remote_wait_us + lat.storage_us);
}

TEST_F(ExecutorTest, ChunkMigrationMovesWholeChunkWithoutRewriting) {
  RoutedTxn rt;
  rt.txn.id = 1;
  rt.txn.kind = TxnKind::kChunkMigration;
  rt.masters = {2};
  for (Key k = 100; k < 110; ++k) {
    rt.txn.write_set.push_back(k);
    rt.accesses.push_back(Access{k, 1, true, true, 2});
  }
  executor_.Dispatch(std::move(rt), nullptr);
  sim_.RunAll();
  for (Key k = 100; k < 110; ++k) {
    EXPECT_FALSE(nodes_[1]->store().Contains(k));
    ASSERT_TRUE(nodes_[2]->store().Contains(k));
    EXPECT_EQ(nodes_[2]->store().Get(k)->version, 0u);  // values untouched
  }
}

}  // namespace
}  // namespace hermes::engine
