// Microbenchmarks for the substrate data structures (google-benchmark):
// conservative ordered lock manager, fusion table, Zipfian generators,
// simulator event queue, and record store.

#include <algorithm>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/fusion_table.h"
#include "sim/simulator.h"
#include "storage/lock_manager.h"
#include "storage/record_store.h"
#include "workload/distributions.h"

namespace {

using hermes::EvictionPolicy;
using hermes::Key;
using hermes::Rng;
using hermes::SimTime;
using hermes::TxnId;

void BM_LockManagerAcquireRelease(benchmark::State& state) {
  constexpr Key kKeys = 100'000;
  const int keys_per_txn = static_cast<int>(state.range(0));
  hermes::storage::LockManager lm;
  Rng rng(1);
  std::vector<TxnId> granted;
  TxnId next = 0;
  for (auto _ : state) {
    const TxnId txn = next++;
    std::vector<hermes::storage::LockRequest> reqs;
    reqs.reserve(keys_per_txn);
    // Distinct keys from a dense space, as the cluster locks them.
    while (static_cast<int>(reqs.size()) < keys_per_txn) {
      const Key key = rng.NextBounded(kKeys);
      if (std::none_of(reqs.begin(), reqs.end(),
                       [key](const auto& r) { return r.key == key; })) {
        reqs.push_back({key, (reqs.size() & 1) != 0});
      }
    }
    granted.clear();
    lm.Acquire(txn, reqs, &granted);
    granted.clear();
    lm.Release(txn, &granted);
  }
  state.SetItemsProcessed(state.iterations() * keys_per_txn);
}
BENCHMARK(BM_LockManagerAcquireRelease)->Arg(2)->Arg(10)->Arg(50);

void BM_LockManagerContendedQueue(benchmark::State& state) {
  // All transactions on one key: measures queue churn.
  hermes::storage::LockManager lm;
  std::vector<TxnId> granted;
  TxnId next = 0;
  constexpr int kDepth = 64;
  const hermes::storage::LockRequest one_key[] = {{1, true}};
  for (TxnId t = 0; t < kDepth; ++t) {
    granted.clear();
    lm.Acquire(next++, one_key, &granted);
  }
  TxnId oldest = 0;
  for (auto _ : state) {
    granted.clear();
    lm.Release(oldest++, &granted);
    granted.clear();
    lm.Acquire(next++, one_key, &granted);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockManagerContendedQueue);

void BM_FusionTablePut(benchmark::State& state) {
  const size_t capacity = static_cast<size_t>(state.range(0));
  hermes::core::FusionTable table(capacity, EvictionPolicy::kLru);
  Rng rng(2);
  std::vector<Key> evicted;
  for (auto _ : state) {
    evicted.clear();
    table.Put(rng.NextBounded(capacity * 4), [](Key) { return false; },
              &evicted);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FusionTablePut)->Arg(1'000)->Arg(100'000);

void BM_FusionTableTouchHit(benchmark::State& state) {
  hermes::core::FusionTable table(100'000, EvictionPolicy::kLru);
  std::vector<Key> evicted;
  for (Key k = 0; k < 100'000; ++k) {
    table.Put(k, [](Key) { return false; }, &evicted);
  }
  Rng rng(3);
  for (auto _ : state) {
    table.Touch(rng.NextBounded(100'000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FusionTableTouchHit);

void BM_ZipfianNext(benchmark::State& state) {
  hermes::workload::ZipfianGenerator zipf(
      static_cast<uint64_t>(state.range(0)), 0.9);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianNext)->Arg(1'000'000)->Arg(200'000'000);

// Self-rescheduling chains spread over ten node lanes, each firing again
// 1-1000 us after it ran: the queue holds one entry per chain, as under a
// cluster's steady state. Items are executed events.
struct SimChains {
  hermes::sim::Simulator sim;
  Rng rng{5};

  void Fire() {
    sim.Schedule(1 + rng.NextBounded(1000), [this] { Fire(); });
  }
};

void BM_SimulatorChains(benchmark::State& state) {
  SimChains chains;
  chains.sim.ConfigureLanes(10);
  for (int i = 0; i < 1024; ++i) {
    chains.sim.ScheduleOnLane(i % 10, chains.rng.NextBounded(1000),
                              [&chains] { chains.Fire(); });
  }
  const uint64_t start = chains.sim.events_executed();
  for (auto _ : state) chains.sim.RunUntil(chains.sim.Now() + 100);
  state.SetItemsProcessed(
      static_cast<int64_t>(chains.sim.events_executed() - start));
}
BENCHMARK(BM_SimulatorChains);

// Chains that collide: each fires again at the same timestamp (a quarter of
// the time), at a multiple of 100 us within 1 ms (so a few dozen chains
// share each such timestamp: a same-time burst), or, once in 64 fires, two
// to five wheel spans ahead (the far heap). Items are executed events.
struct SimBursts {
  hermes::sim::Simulator sim;
  Rng rng{7};

  void Fire() {
    constexpr SimTime kSpan = hermes::sim::Simulator::kWheelSpan;
    const uint64_t r = rng.NextBounded(64);
    const SimTime delay = r < 16    ? 0
                          : r < 63 ? 100 * (1 + rng.NextBounded(10))
                                   : (2 + rng.NextBounded(4)) * kSpan;
    sim.Schedule(delay, [this] { Fire(); });
  }
};

void BM_SimulatorBursts(benchmark::State& state) {
  SimBursts bursts;
  bursts.sim.ConfigureLanes(10);
  for (int i = 0; i < 1024; ++i) {
    bursts.sim.ScheduleOnLane(i % 10, 100 * bursts.rng.NextBounded(10),
                              [&bursts] { bursts.Fire(); });
  }
  const uint64_t start = bursts.sim.events_executed();
  for (auto _ : state) bursts.sim.RunUntil(bursts.sim.Now() + 100);
  state.SetItemsProcessed(
      static_cast<int64_t>(bursts.sim.events_executed() - start));
}
BENCHMARK(BM_SimulatorBursts);

void BM_RecordStoreApplyWrite(benchmark::State& state) {
  hermes::storage::RecordStore store;
  for (Key k = 0; k < 1'000'000; ++k) {
    store.Insert(k, hermes::storage::Record{.value = k});
  }
  Rng rng(6);
  TxnId txn = 0;
  for (auto _ : state) {
    store.ApplyWrite(rng.NextBounded(1'000'000), txn++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordStoreApplyWrite);

void BM_RecordStoreMigrate(benchmark::State& state) {
  // Extract from one store, insert into another (the data-fusion path).
  hermes::storage::RecordStore a, b;
  for (Key k = 0; k < 100'000; ++k) {
    a.Insert(k, hermes::storage::Record{.value = k});
  }
  Key k = 0;
  for (auto _ : state) {
    const Key key = k % 100'000;
    if (auto rec = a.Extract(key)) {
      b.Insert(key, *rec);
    } else {
      auto rec2 = b.Extract(key);
      a.Insert(key, *rec2);
    }
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordStoreMigrate);

}  // namespace

BENCHMARK_MAIN();
