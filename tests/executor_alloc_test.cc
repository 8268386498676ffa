// Heap-allocation and shell-reuse tests for the transaction executor.
//
// The executor keeps per-transaction state in pooled shells and reuses its
// per-event buffers, so a steady-state closed loop allocates a fixed,
// deterministic number of times per commit. The first two tests pin that
// count, on Calvin (locks and the event queue) and on Hermes with fusion
// migrations (participant shipments, their pooled key lists and the wire's
// delivery slab); the third checks that a watchdog-aborted transaction's
// shell, recycled with stalled continuations still pointing at its id,
// serves later transactions without harm.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "digest_oracle.h"
#include "engine/cluster.h"
#include "fault/injector.h"
#include "fault/invariant_monitor.h"
#include "workload/client.h"
#include "workload/ycsb.h"

// Heap-allocation counter: global operator new/delete overrides, as in
// bench/bench_micro_routing.cc (a plain counter: the simulator runs on one
// thread).
namespace {
uint64_t g_heap_allocs = 0;
}  // namespace

// GCC pairs our operator new (malloc) against its builtin operator delete
// and warns; the overrides below are a matched malloc/free pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

#if defined(__SANITIZE_ADDRESS__)
#define HERMES_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define HERMES_TEST_SANITIZED 1
#endif
#endif

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;

uint64_t HeapAllocs() { return g_heap_allocs; }

/// Allocations and commits over [300 ms, 600 ms) of a closed YCSB loop
/// (200 clients, half the transactions distributed) on `cluster`, after a
/// warm-up that brings every pool and table to its working size.
struct Window {
  uint64_t allocs = 0;
  uint64_t commits = 0;
  uint64_t migrations = 0;  ///< records the router moved (Hermes only)
  double per_commit() const { return static_cast<double>(allocs) / commits; }
};

Window MeasureWindow(Cluster& cluster) {
  const ClusterConfig& config = cluster.config();
  cluster.Load();

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.distributed_ratio = 0.5;
  wl.length_mean = 2.0;
  wl.seed = 42;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 200, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.Start();

  cluster.RunUntil(MsToSim(300));
  Window w;
  const uint64_t allocs_before = HeapAllocs();
  const uint64_t commits_before = cluster.metrics().total_commits();
  const auto migrations = [&cluster]() -> uint64_t {
    const core::HermesRouter* router = cluster.hermes_router();
    return router != nullptr ? router->stats().migrations : 0;
  };
  const uint64_t migrations_before = migrations();
  cluster.RunUntil(MsToSim(600));
  w.allocs = HeapAllocs() - allocs_before;
  w.commits = cluster.metrics().total_commits() - commits_before;
  w.migrations = migrations() - migrations_before;
  std::printf("allocs=%llu commits=%llu migrations=%llu "
              "allocs_per_commit=%.3f\n",
              static_cast<unsigned long long>(w.allocs),
              static_cast<unsigned long long>(w.commits),
              static_cast<unsigned long long>(w.migrations), w.per_commit());
  return w;
}

/// Checks a window against its pin. `parent_allocs` is the count while
/// each transaction kept its masters' progress in a vector of its own,
/// beside the per-node state, so a failure shows how far a change moved
/// from both.
void ExpectPinned(const Window& w, uint64_t commits, uint64_t allocs,
                  uint64_t parent_allocs) {
#ifdef HERMES_TEST_SANITIZED
  (void)w, (void)commits, (void)allocs, (void)parent_allocs;
  GTEST_SKIP() << "allocation counts are pinned for unsanitized builds only";
#else
  // The virtual-time schedule is deterministic, so both counts are exact.
  EXPECT_EQ(w.commits, commits);
  EXPECT_EQ(w.allocs, allocs)
      << "allocations per commit: " << w.per_commit() << " now, "
      << static_cast<double>(allocs) / commits << " pinned, "
      << static_cast<double>(parent_allocs) / commits
      << " with a separate per-master state vector (" << parent_allocs
      << " allocations)";
#endif
}

TEST(ExecutorAllocTest, SteadyStateAllocationsPerCommitArePinned) {
  // A small Calvin cluster (static ranges, no migrations): the executor,
  // lock manager and event queue do the work, as on google_calvin.
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 4'000;
  config.workers_per_node = 2;
  Cluster cluster(config, RouterKind::kCalvin,
                  std::make_unique<partition::RangePartitionMap>(
                      config.num_records, config.num_nodes));
  const Window w = MeasureWindow(cluster);
  ASSERT_GT(w.commits, 1000u);
  // Earlier counts of this window: 2650 with a separate per-master state
  // vector, 3149 with the sequencer's std::deque queue, 3207 with the
  // cold-field box alone, 16027 before inline key sets and master lists,
  // 31723 before the id rings and pooled hop, ack and delivery slots,
  // 33630 before FinishParticipant's send closure fit sim::Callback
  // inline, 47117 before Calvin's RouteOne reused router-owned scratch,
  // 47151 before key-indexed lock queues, 74382 before pooled transaction
  // shells.
  ExpectPinned(w, /*commits=*/2494, /*allocs=*/2649,  // 1.06 per commit
               /*parent_allocs=*/2650);               // 1.06 per commit
}

TEST(ExecutorAllocTest, SteadyStateAllocationsWithFusionMigrationsArePinned) {
  // The same loop on Hermes with a small fusion table: distributed
  // transactions migrate records to their master and evictions send them
  // on, so participant shipments carry key lists and every message takes
  // a delivery slot, as on google_hermes.
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 4'000;
  config.workers_per_node = 2;
  config.hermes.fusion_table_capacity = 200;
  Cluster cluster(config, RouterKind::kHermes,
                  std::make_unique<partition::RangePartitionMap>(
                      config.num_records, config.num_nodes));
  const Window w = MeasureWindow(cluster);
  ASSERT_GT(w.commits, 1000u);
  ASSERT_GT(w.migrations, 1000u);
  // 4537 with a separate per-master state vector (the same: every
  // transaction has one master), 5225 with the sequencer's std::deque
  // queue, 5427 with the cold-field box alone, 23115 before inline key
  // sets and master lists, 46055 before the id rings and pooled hop, ack
  // and delivery slots.
  ExpectPinned(w, /*commits=*/3443, /*allocs=*/4537,  // 1.32 per commit
               /*parent_allocs=*/4537);               // 1.32 per commit
}

TEST(ExecutorAllocTest, WatchdogAbortedShellIsReusedByLaterTransactions) {
  const ClusterConfig config = oracle::DegradedConfig();
  Cluster cluster(config, RouterKind::kHermes,
                  std::make_unique<partition::RangePartitionMap>(
                      config.num_records, config.num_nodes));
  cluster.Load();

  // One distributed transaction: a read on node 1 and a write on node 2
  // (2000 records per node under the range map).
  TxnRequest txn;
  txn.read_set = {2500};
  txn.write_set = {4500};
  int first_results = 0;
  cluster.Submit(txn, [&first_results](const engine::TxnResult&) {
    ++first_results;
  });
  SimTime now = 0;
  while (cluster.executor().inflight() == 0) {
    ASSERT_LT(now, MsToSim(100)) << "the transaction was never dispatched";
    now += 10;
    cluster.RunUntil(now);
  }
  EXPECT_EQ(cluster.executor().idle_shells(), 0u);
  cluster.CrashNoStall(2);
  cluster.RunUntil(now + MsToSim(2));
  // Frozen at the dead node, with a stalled continuation parked under it.
  const std::string frozen = cluster.executor().DebugString();
  ASSERT_NE(frozen.find("FROZEN stalled=1"), std::string::npos) << frozen;

  // The watchdog aborts it and the shell goes back to the free list.
  cluster.RunUntil(now + engine::kWatchdogDeadlineUs * 3);
  ASSERT_GE(cluster.degraded_ledger().watchdog_aborts(), 1u)
      << cluster.DegradedDebugString();
  EXPECT_EQ(cluster.executor().inflight(), 0u);
  EXPECT_EQ(cluster.executor().idle_shells(), 1u);

  cluster.RejoinNoStall(2);
  cluster.Drain();
  EXPECT_EQ(first_results, 1);

  // Later transactions, one at a time, each take that same shell and
  // commit normally; the stalled continuation never fires into them.
  for (int i = 0; i < 20; ++i) {
    TxnRequest next;
    next.read_set = {static_cast<Key>(2000 + i)};
    next.write_set = {static_cast<Key>(4000 + i), static_cast<Key>(6000 + i)};
    int results = 0;
    bool aborted = true;
    cluster.Submit(next, [&](const engine::TxnResult& r) {
      ++results;
      aborted = r.aborted;
    });
    cluster.Drain();
    ASSERT_EQ(results, 1) << "transaction " << i;
    EXPECT_FALSE(aborted) << "transaction " << i;
    EXPECT_EQ(cluster.executor().inflight(), 0u);
    EXPECT_EQ(cluster.executor().idle_shells(), 1u)
        << "transaction " << i << " did not reuse the pooled shell";
  }

  fault::InvariantMonitor monitor;
  EXPECT_TRUE(monitor.CheckQuiescent(
      cluster, fault::RangeMapFactory(config), "final"))
      << monitor.FailureReport();
}

}  // namespace
}  // namespace hermes
