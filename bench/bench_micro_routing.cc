// Microbenchmarks for the routing algorithms (google-benchmark), backing
// the paper's §3.2.4 cost analysis: the prescient routing at n=20 nodes
// and b=1000 requests per batch must take only a few milliseconds of real
// CPU per batch (amortized to microseconds per transaction).
//
// `scripts/bench_routing.sh` runs this binary and emits BENCH_routing.json;
// EXPERIMENTS.md records the numbers. Only shipped routers run here: the
// O(b²·n) transcription of Algorithm 1 is the oracle of
// tests/hermes_equivalence_test.cc, not a production path.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/hermes_router.h"
#include "partition/partition_map.h"
#include "routing/calvin_router.h"
#include "routing/tpart_router.h"

// ---------------------------------------------------------------------------
// Heap-allocation counter: global operator new/delete overrides so the
// steady-state benchmarks can report allocations per routed batch. The
// router's Steps 1–3 run entirely out of reusable scratch, so its count
// is exactly the RoutePlan output materialization (RoutedTxn copies and
// access vectors).
// ---------------------------------------------------------------------------
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

// GCC pairs our operator new (malloc) against its builtin operator delete
// and warns; the overrides below are a matched malloc/free pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using hermes::Batch;
using hermes::CostModel;
using hermes::HermesConfig;
using hermes::Key;
using hermes::Rng;
using hermes::TxnRequest;
using hermes::core::HermesRouter;
using hermes::partition::OwnershipMap;
using hermes::routing::Router;

Batch MakeBatch(size_t b, uint64_t records, int reads_per_txn,
                uint64_t seed) {
  Rng rng(seed);
  Batch batch;
  batch.txns.reserve(b);
  for (size_t i = 0; i < b; ++i) {
    TxnRequest txn;
    txn.id = i;
    for (int r = 0; r < reads_per_txn; ++r) {
      txn.read_set.push_back(rng.NextBounded(records));
    }
    txn.write_set = {txn.read_set.front()};
    batch.txns.push_back(std::move(txn));
  }
  return batch;
}

// Contended writes: every transaction writes several keys from a small
// hot pool (not just read_set.front()), so each Step-1 placement moves
// keys that many other candidates read *and write* — the fusion rescoring
// and the Step-3 reader windows are exercised for real.
Batch MakeContendedWriteBatch(size_t b, uint64_t records, int reads_per_txn,
                              int writes_per_txn, uint64_t hot_pool,
                              uint64_t seed) {
  Rng rng(seed);
  Batch batch;
  batch.txns.reserve(b);
  for (size_t i = 0; i < b; ++i) {
    TxnRequest txn;
    txn.id = i;
    for (int r = 0; r < reads_per_txn; ++r) {
      // Half the reads land in the hot pool too: reader lists of the hot
      // keys span most of the batch.
      txn.read_set.push_back(rng.NextBounded(2) == 0
                                 ? rng.NextBounded(hot_pool)
                                 : rng.NextBounded(records));
    }
    for (int w = 0; w < writes_per_txn; ++w) {
      txn.write_set.push_back(rng.NextBounded(hot_pool));
    }
    batch.txns.push_back(std::move(txn));
  }
  return batch;
}

HermesConfig BenchConfig(uint64_t records) {
  HermesConfig config;
  config.fusion_table_capacity = records / 40;
  return config;
}

OwnershipMap RangeOwnership(uint64_t records, int n) {
  return OwnershipMap(
      std::make_unique<hermes::partition::RangePartitionMap>(records, n));
}

/// The timed loop shared by the fresh-batch benchmarks: each iteration
/// generates one batch with `make(seed)` (seeds 7, 8, ...) and routes it.
template <typename MakeFn>
void RouteFreshBatches(benchmark::State& state, Router& router, size_t b,
                       MakeFn make) {
  uint64_t seed = 7;
  for (auto _ : state) {
    Batch batch = make(seed++);
    benchmark::DoNotOptimize(router.RouteBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() * b);
}

void BM_HermesRouteBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const size_t b = static_cast<size_t>(state.range(1));
  const uint64_t records = 1'000'000;
  CostModel costs;
  OwnershipMap ownership = RangeOwnership(records, n);
  HermesRouter router(&ownership, &costs, n, BenchConfig(records));
  RouteFreshBatches(state, router, b, [&](uint64_t seed) {
    return MakeBatch(b, records, 4, seed);
  });
}
BENCHMARK(BM_HermesRouteBatch)
    ->ArgsProduct({{4, 10, 20}, {100, 1000}})
    ->Unit(benchmark::kMillisecond);

// Look-back baselines on the same workload (n=20).
template <typename BaselineRouter>
void RunBaselineRouteBatch(benchmark::State& state) {
  const int n = 20;
  const size_t b = static_cast<size_t>(state.range(0));
  const uint64_t records = 1'000'000;
  CostModel costs;
  OwnershipMap ownership = RangeOwnership(records, n);
  BaselineRouter router(&ownership, &costs, n);
  RouteFreshBatches(state, router, b, [&](uint64_t seed) {
    return MakeBatch(b, records, 4, seed);
  });
}

void BM_CalvinRouteBatch(benchmark::State& state) {
  RunBaselineRouteBatch<hermes::routing::CalvinRouter>(state);
}
BENCHMARK(BM_CalvinRouteBatch)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_TPartRouteBatch(benchmark::State& state) {
  RunBaselineRouteBatch<hermes::routing::TPartRouter>(state);
}
BENCHMARK(BM_TPartRouteBatch)->Arg(1000)->Unit(benchmark::kMillisecond);

// Hot-key contention: many transactions share few keys, stressing the
// reorder/reroute machinery (step 3 does the most work here).
void BM_HermesRouteBatchContended(benchmark::State& state) {
  const int n = 20;
  const size_t b = 1000;
  const uint64_t records = 1000;  // tiny key space: heavy conflicts
  CostModel costs;
  OwnershipMap ownership = RangeOwnership(records, n);
  HermesRouter router(&ownership, &costs, n, HermesConfig{});
  RouteFreshBatches(state, router, b, [&](uint64_t seed) {
    return MakeBatch(b, records, 4, seed);
  });
}
BENCHMARK(BM_HermesRouteBatchContended)->Unit(benchmark::kMillisecond);

// Contended *writes*: multiple hot write keys per transaction force the
// Step-1 fusion rescoring (every placement moves keys with long reader
// and writer lists) and long Step-3 windows — the worst case for a
// rescanning implementation.
void BM_HermesRouteBatchContendedWrites(benchmark::State& state) {
  const int n = 20;
  const size_t b = 1000;
  const uint64_t records = 100'000;
  const uint64_t hot_pool = 64;
  CostModel costs;
  OwnershipMap ownership = RangeOwnership(records, n);
  HermesRouter router(&ownership, &costs, n, HermesConfig{});
  RouteFreshBatches(state, router, b, [&](uint64_t seed) {
    return MakeContendedWriteBatch(b, records, 4, 3, hot_pool, seed);
  });
}
BENCHMARK(BM_HermesRouteBatchContendedWrites)->Unit(benchmark::kMillisecond);

// Steady-state allocation audit: batches are pre-generated and the router
// warmed up, so the timing loop measures routing alone and
// `allocs_per_batch` counts heap allocations per RouteBatch call. This is
// exactly the RoutePlan output (plan/access vectors and TxnRequest copies)
// — Steps 1–3 allocate nothing once the scratch capacity is warm.
void BM_HermesRouteBatchSteadyState(benchmark::State& state) {
  const int n = 20;
  const size_t b = 1000;
  const uint64_t records = 1'000'000;
  CostModel costs;
  OwnershipMap ownership = RangeOwnership(records, n);
  HermesRouter router(&ownership, &costs, n, BenchConfig(records));

  std::vector<Batch> pool;
  for (uint64_t seed = 7; seed < 15; ++seed) {
    pool.push_back(MakeBatch(b, records, 4, seed));
  }
  for (const Batch& batch : pool) {
    benchmark::DoNotOptimize(router.RouteBatch(batch));  // warm scratch
  }

  size_t next = 0;
  uint64_t batches = 0;
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.RouteBatch(pool[next]));
    next = (next + 1) % pool.size();
    ++batches;
  }
  const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  state.SetItemsProcessed(state.iterations() * b);
  state.counters["allocs_per_batch"] =
      batches == 0 ? 0.0
                   : static_cast<double>(after - before) /
                         static_cast<double>(batches);
}
BENCHMARK(BM_HermesRouteBatchSteadyState)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
