// Property test: the optimized prescient routing (key interning, bucketed
// candidate selection, reusable batch scratch) must be *bit-for-bit*
// equivalent to the straightforward reference implementation of Algorithm 1
// (`HermesConfig::use_reference_routing`). Two routers consume identical
// totally ordered input over their own ownership maps; every batch's
// RoutePlan, the cumulative stats, the fusion-table contents, and the
// ownership overlays must match exactly — across random workloads,
// chunk-migration / provisioning barriers, and every ablation switch.

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/hermes_router.h"
#include "partition/partition_map.h"

namespace hermes::core {
namespace {

using partition::OwnershipMap;
using partition::RangePartitionMap;
using routing::RoutedTxn;
using routing::RoutePlan;

void ExpectPlansEqual(const RoutePlan& ref, const RoutePlan& opt,
                      uint64_t seed, int batch) {
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << " batch=" << batch);
  EXPECT_EQ(ref.routing_cost_us, opt.routing_cost_us);
  ASSERT_EQ(ref.txns.size(), opt.txns.size());
  for (size_t i = 0; i < ref.txns.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "plan position " << i);
    const RoutedTxn& a = ref.txns[i];
    const RoutedTxn& b = opt.txns[i];
    EXPECT_EQ(a.txn.id, b.txn.id);
    EXPECT_EQ(a.txn.kind, b.txn.kind);
    EXPECT_EQ(a.masters, b.masters);
    ASSERT_EQ(a.accesses.size(), b.accesses.size());
    for (size_t k = 0; k < a.accesses.size(); ++k) {
      EXPECT_EQ(a.accesses[k].key, b.accesses[k].key);
      EXPECT_EQ(a.accesses[k].owner, b.accesses[k].owner);
      EXPECT_EQ(a.accesses[k].is_write, b.accesses[k].is_write);
      EXPECT_EQ(a.accesses[k].ship_to_master, b.accesses[k].ship_to_master);
      EXPECT_EQ(a.accesses[k].new_owner, b.accesses[k].new_owner);
    }
    ASSERT_EQ(a.on_commit_returns.size(), b.on_commit_returns.size());
    for (size_t k = 0; k < a.on_commit_returns.size(); ++k) {
      EXPECT_EQ(a.on_commit_returns[k].key, b.on_commit_returns[k].key);
      EXPECT_EQ(a.on_commit_returns[k].from, b.on_commit_returns[k].from);
      EXPECT_EQ(a.on_commit_returns[k].to, b.on_commit_returns[k].to);
    }
  }
}

void ExpectStatsEqual(const HermesRouter::Stats& a,
                      const HermesRouter::Stats& b) {
  EXPECT_EQ(a.routed_txns, b.routed_txns);
  EXPECT_EQ(a.remote_reads, b.remote_reads);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.reroutes, b.reroutes);
  EXPECT_EQ(a.reorders, b.reorders);
}

/// One seeded random workload: several batches of skew-heavy regular
/// transactions, optionally interleaved with chunk-migration and
/// add/remove-node barriers (which reset reorder segments and mutate the
/// active node set mid-sequence).
std::vector<Batch> MakeWorkload(uint64_t seed, int num_nodes,
                                uint64_t records, bool with_barriers) {
  Rng rng(seed);
  std::vector<Batch> batches;
  TxnId next_id = 1;
  const uint64_t hot_keys = 4 + rng.NextBounded(12);  // contention knob
  const int num_batches = 5;
  for (int b = 0; b < num_batches; ++b) {
    Batch batch;
    batch.id = static_cast<BatchId>(b);
    const int txn_count = 30 + static_cast<int>(rng.NextBounded(40));
    for (int t = 0; t < txn_count; ++t) {
      TxnRequest txn;
      txn.id = next_id++;
      const int reads = 1 + static_cast<int>(rng.NextBounded(5));
      for (int r = 0; r < reads; ++r) {
        // Half the reads hammer the hot set so data fusion keeps
        // rescoring; duplicates exercise the sort/dedup path.
        const Key k = rng.NextBounded(2) == 0 ? rng.NextBounded(hot_keys)
                                              : rng.NextBounded(records);
        txn.read_set.push_back(k);
      }
      const int writes = static_cast<int>(rng.NextBounded(3));
      for (int w = 0; w < writes; ++w) {
        txn.write_set.push_back(rng.NextBounded(2) == 0
                                    ? txn.read_set[rng.NextBounded(
                                          txn.read_set.size())]
                                    : rng.NextBounded(hot_keys));
      }
      // Some write-only (blind write) transactions.
      if (txn.write_set.empty() && rng.NextBounded(4) == 0) {
        txn.write_set.push_back(rng.NextBounded(records));
      }
      batch.txns.push_back(std::move(txn));
    }
    if (with_barriers) {
      // A chunk migration mid-batch acts as a reorder barrier.
      if (b == 1) {
        TxnRequest chunk;
        chunk.id = next_id++;
        chunk.kind = TxnKind::kChunkMigration;
        chunk.migration_target =
            static_cast<NodeId>(rng.NextBounded(num_nodes));
        const Key lo = rng.NextBounded(records / 2);
        for (Key k = lo; k < lo + 20; ++k) chunk.write_set.push_back(k);
        batch.txns.insert(batch.txns.begin() + batch.txns.size() / 2,
                          std::move(chunk));
      }
      // Scale out, then back in, with the ranges returned to node 0.
      if (b == 2) {
        TxnRequest add;
        add.id = next_id++;
        add.kind = TxnKind::kAddNode;
        add.migration_target = static_cast<NodeId>(num_nodes);
        batch.txns.insert(batch.txns.begin() + 3, std::move(add));
      }
      if (b == 4) {
        TxnRequest rm;
        rm.id = next_id++;
        rm.kind = TxnKind::kRemoveNode;
        rm.migration_target = static_cast<NodeId>(num_nodes);
        rm.range_moves = {{0, records, 0}};
        batch.txns.insert(batch.txns.begin() + batch.txns.size() / 3,
                          std::move(rm));
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Runs the same workload through a reference-routing router and an
/// optimized one and asserts identical observable behaviour after every
/// batch.
void CheckEquivalence(uint64_t seed, const HermesConfig& base_config,
                      bool with_barriers) {
  Rng knobs(Mix64(seed));
  const int num_nodes = 3 + static_cast<int>(knobs.NextBounded(4));
  const uint64_t records = 200 + knobs.NextBounded(800);

  HermesConfig config = base_config;
  CostModel costs;

  OwnershipMap ownership_ref(
      std::make_unique<RangePartitionMap>(records, num_nodes));
  OwnershipMap ownership_opt(
      std::make_unique<RangePartitionMap>(records, num_nodes));

  HermesConfig ref_config = config;
  ref_config.use_reference_routing = true;
  HermesConfig opt_config = config;
  opt_config.use_reference_routing = false;

  HermesRouter ref(&ownership_ref, &costs, num_nodes, ref_config);
  HermesRouter opt(&ownership_opt, &costs, num_nodes, opt_config);

  const std::vector<Batch> workload =
      MakeWorkload(seed, num_nodes, records, with_barriers);
  for (size_t b = 0; b < workload.size(); ++b) {
    const RoutePlan plan_ref = ref.RouteBatch(workload[b]);
    const RoutePlan plan_opt = opt.RouteBatch(workload[b]);
    ExpectPlansEqual(plan_ref, plan_opt, seed, static_cast<int>(b));
    ExpectStatsEqual(ref.stats(), opt.stats());
    EXPECT_EQ(ref.fusion_table().Checksum(), opt.fusion_table().Checksum());
    EXPECT_EQ(ref.fusion_table().ExportOrder(),
              opt.fusion_table().ExportOrder());
    EXPECT_EQ(ownership_ref.ExportKeyOverlay(),
              ownership_opt.ExportKeyOverlay());
    if (::testing::Test::HasFailure()) return;  // first divergence is enough
  }
}

TEST(HermesEquivalenceTest, RandomWorkloads) {
  HermesConfig config;
  config.fusion_table_capacity = 32;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    CheckEquivalence(seed, config, /*with_barriers=*/false);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(HermesEquivalenceTest, RandomWorkloadsWithBarriers) {
  HermesConfig config;
  config.fusion_table_capacity = 32;
  for (uint64_t seed = 100; seed < 120; ++seed) {
    CheckEquivalence(seed, config, /*with_barriers=*/true);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(HermesEquivalenceTest, ReorderAblated) {
  HermesConfig config;
  config.enable_reorder = false;
  for (uint64_t seed = 200; seed < 220; ++seed) {
    CheckEquivalence(seed, config, seed % 2 == 0);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(HermesEquivalenceTest, RebalanceAblated) {
  HermesConfig config;
  config.enable_rebalance = false;
  for (uint64_t seed = 300; seed < 320; ++seed) {
    CheckEquivalence(seed, config, seed % 2 == 0);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(HermesEquivalenceTest, ForwardPass) {
  HermesConfig config;
  config.backward_pass = false;
  for (uint64_t seed = 400; seed < 420; ++seed) {
    CheckEquivalence(seed, config, seed % 2 == 0);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(HermesEquivalenceTest, TightCapacityFifoEviction) {
  HermesConfig config;
  config.fusion_table_capacity = 4;
  config.eviction_policy = EvictionPolicy::kFifo;
  config.alpha = 0.5;
  for (uint64_t seed = 500; seed < 520; ++seed) {
    CheckEquivalence(seed, config, seed % 2 == 0);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(HermesEquivalenceTest, UnboundedTableLooseAlpha) {
  HermesConfig config;
  config.fusion_table_capacity = 0;
  config.alpha = 8.0;
  for (uint64_t seed = 600; seed < 620; ++seed) {
    CheckEquivalence(seed, config, seed % 2 == 0);
    if (::testing::Test::HasFailure()) break;
  }
}

// The optimized router is a pure function of (config, input): two
// instances fed the same batches stay identical — the property the
// replicated-scheduler design leans on (CLAUDE.md "Determinism").
TEST(HermesEquivalenceTest, OptimizedRouterIsDeterministic) {
  HermesConfig config;
  config.fusion_table_capacity = 16;
  CostModel costs;
  auto run = [&](uint64_t) {
    OwnershipMap ownership(std::make_unique<RangePartitionMap>(500, 4));
    HermesRouter router(&ownership, &costs, 4, config);
    uint64_t digest = 0;
    for (const Batch& batch : MakeWorkload(7, 4, 500, true)) {
      const RoutePlan plan = router.RouteBatch(batch);
      for (const RoutedTxn& rt : plan.txns) {
        digest = Mix64(digest ^ rt.txn.id);
        for (NodeId m : rt.masters) digest = Mix64(digest ^ Mix64(m + 1));
        for (const auto& acc : rt.accesses) {
          digest = Mix64(digest ^ acc.key ^ Mix64(acc.owner + 2) ^
                         Mix64(acc.new_owner + 3) ^
                         (acc.is_write ? 5u : 11u));
        }
      }
    }
    return digest ^ router.fusion_table().Checksum();
  };
  EXPECT_EQ(run(0), run(1));
}

}  // namespace
}  // namespace hermes::core
