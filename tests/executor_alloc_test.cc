// Heap-allocation and shell-reuse tests for the transaction executor.
//
// The executor keeps per-transaction state in pooled shells and reuses its
// per-event buffers, so a steady-state closed loop allocates a fixed,
// deterministic number of times per commit. The first test pins that
// count; the second checks that a watchdog-aborted transaction's shell,
// recycled with stalled continuations still pointing at its id, serves
// later transactions without harm.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "digest_oracle.h"
#include "engine/cluster.h"
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

TEST(ExecutorAllocTest, SteadyStateAllocationsPerCommitArePinned) {
  // A small Calvin cluster (static ranges, no migrations) under a closed
  // YCSB loop with half the transactions distributed: the executor,
  // lock manager and event heap do the work, as on google_calvin.
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 4'000;
  config.workers_per_node = 2;
  Cluster cluster(config, RouterKind::kCalvin,
                  std::make_unique<partition::RangePartitionMap>(
                      config.num_records, config.num_nodes));
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

  // Warm up until every pool and table has reached its working size.
  cluster.RunUntil(MsToSim(300));
  const uint64_t allocs_before = HeapAllocs();
  const uint64_t commits_before = cluster.metrics().total_commits();
  cluster.RunUntil(MsToSim(600));
  const uint64_t allocs = HeapAllocs() - allocs_before;
  const uint64_t commits = cluster.metrics().total_commits() - commits_before;
  ASSERT_GT(commits, 1000u);
  const double per_commit = static_cast<double>(allocs) / commits;
  std::printf("allocs=%llu commits=%llu allocs_per_commit=%.3f\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(commits), per_commit);

#ifdef HERMES_TEST_SANITIZED
  GTEST_SKIP() << "allocation counts are pinned for unsanitized builds only";
#else
  // The virtual-time schedule is deterministic, so both counts are exact.
  // Before FinishParticipant's per-destination send closure fit
  // sim::Callback's inline buffer (it heap-allocated once per shipment)
  // this window took kParentAllocs allocations; before Calvin's RouteOne
  // reused router-owned scratch, 47117; before key-indexed lock queues,
  // 47151; before pooled transaction shells, 74382.
  constexpr uint64_t kCommits = 2494;
  constexpr uint64_t kAllocs = 31723;        // 12.72 per commit
  constexpr uint64_t kParentAllocs = 33630;  // 13.48 per commit
  EXPECT_EQ(commits, kCommits);
  EXPECT_EQ(allocs, kAllocs)
      << "allocations per commit: " << per_commit << " now, "
      << static_cast<double>(kAllocs) / kCommits << " pinned, "
      << static_cast<double>(kParentAllocs) / kCommits
      << " before the inline participant-send closure (" << kParentAllocs
      << " allocations)";
#endif
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
  cluster.RunUntil(now + config.degraded.watchdog_deadline_us * 3);
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

  fault::InvariantMonitor monitor(config.num_records);
  EXPECT_TRUE(monitor.CheckRecordSingularity(cluster, "final"));
  EXPECT_TRUE(monitor.CheckNoLostRecords(cluster, "final"));
  EXPECT_TRUE(monitor.ok()) << monitor.FailureReport();
}

}  // namespace
}  // namespace hermes
