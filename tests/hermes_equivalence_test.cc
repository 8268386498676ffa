// Property test: the shipped prescient routing (key interning, bucketed
// candidate selection, reusable batch scratch) must be *bit-for-bit*
// equivalent to the straightforward transcription of Algorithm 1, which
// lives here as the oracle `ReferenceHermesRouter`: a HermesRouter whose
// placement step (Steps 1–3) is the O(b²·n) reference, sharing the
// shipped materialization. Two routers consume identical totally ordered
// input over their own ownership maps; every batch's RoutePlan, the
// cumulative stats, the fusion-table contents, and the ownership overlays
// must match exactly — across random workloads, chunk-migration /
// provisioning barriers, every ablation switch, and a degraded membership
// view.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/membership.h"
#include "common/rng.h"
#include "core/hermes_router.h"
#include "partition/partition_map.h"

namespace hermes::core {
namespace {

using partition::OwnershipMap;
using partition::RangePartitionMap;
using routing::RoutedTxn;
using routing::RoutePlan;

/// Sorted, deduplicated copy of a key list.
std::vector<Key> SortedUnique(std::span<const Key> keys) {
  std::vector<Key> out(keys.begin(), keys.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The oracle: Steps 1–3 as the straightforward transcription of
/// Algorithm 1 (the router's original implementation). Everything else —
/// segmenting, materialization, fusion-table upkeep, stats — is the
/// shipped HermesRouter's.
class ReferenceHermesRouter : public HermesRouter {
 public:
  using HermesRouter::HermesRouter;

 protected:
  uint64_t PlaceSegment(const std::vector<const TxnRequest*>& txns,
                        std::vector<int32_t>* order_out,
                        std::vector<NodeId>* route_out) override;
};

uint64_t ReferenceHermesRouter::PlaceSegment(
    const std::vector<const TxnRequest*>& txns,
    std::vector<int32_t>* order_out, std::vector<NodeId>* route_out) {
  const size_t b = txns.size();
  uint64_t reroutes = 0;
  // Same alive-filtered candidate set as the shipped placement (the two
  // must stay bit-for-bit identical).
  const std::vector<NodeId>& nodes = candidate_nodes();
  const int n = static_cast<int>(nodes.size());
  assert(n > 0);

  // Dense index over candidate nodes (sorted ascending).
  std::unordered_map<NodeId, int> node_index;
  for (int i = 0; i < n; ++i) node_index[nodes[i]] = i;

  // ---- Step 1: order and route requests by minimizing remote reads. ----
  struct Cand {
    std::vector<Key> reads;
    std::vector<Key> writes;
    std::vector<int> read_cnt;   // local read-set keys per active node
    std::vector<int> write_cnt;  // local write-set keys per active node
    int best_idx = 0;
    int best_remote = 0;
    bool placed = false;
  };
  std::vector<Cand> cands(b);

  // Placements made so far in this segment (write keys follow their route).
  std::unordered_map<Key, NodeId> view;
  auto view_owner = [&](Key k) -> NodeId {
    auto it = view.find(k);
    return it != view.end() ? it->second : ownership_->Owner(k);
  };

  std::unordered_map<Key, std::vector<int>> readers_of;
  std::unordered_map<Key, std::vector<int>> writers_of;

  auto compute_best = [&](Cand& c) {
    int best_idx = 0;
    int best_remote = static_cast<int>(c.reads.size()) + 1;
    int best_wlocal = -1;
    for (int i = 0; i < n; ++i) {
      const int remote = static_cast<int>(c.reads.size()) - c.read_cnt[i];
      const int wlocal = c.write_cnt[i];
      // Ties: prefer more local write keys, then the lower node id (scan
      // order is ascending node id, so strict improvement keeps it).
      if (remote < best_remote ||
          (remote == best_remote && wlocal > best_wlocal)) {
        best_remote = remote;
        best_wlocal = wlocal;
        best_idx = i;
      }
    }
    c.best_idx = best_idx;
    c.best_remote = best_remote;
  };

  for (size_t j = 0; j < b; ++j) {
    Cand& c = cands[j];
    c.reads = SortedUnique(txns[j]->read_set);
    c.writes = SortedUnique(txns[j]->write_set);
    c.read_cnt.assign(n, 0);
    c.write_cnt.assign(n, 0);
    for (Key k : c.reads) {
      readers_of[k].push_back(static_cast<int>(j));
      auto it = node_index.find(view_owner(k));
      if (it != node_index.end()) ++c.read_cnt[it->second];
    }
    for (Key k : c.writes) {
      writers_of[k].push_back(static_cast<int>(j));
      auto it = node_index.find(view_owner(k));
      if (it != node_index.end()) ++c.write_cnt[it->second];
    }
    compute_best(c);
  }

  std::vector<int32_t>& order = *order_out;  // candidate index by B' position
  std::vector<NodeId>& route = *route_out;   // route by candidate index
  order.clear();
  order.reserve(b);
  route.assign(b, kInvalidNode);

  for (size_t step = 0; step < b; ++step) {
    // Pick the unplaced candidate with the fewest remote reads; ties go to
    // the earliest submission (stable, deterministic). With reordering
    // ablated, transactions are placed in sequencer order.
    int pick = -1;
    if (config().enable_reorder) {
      for (size_t j = 0; j < b; ++j) {
        if (cands[j].placed) continue;
        if (pick < 0 || cands[j].best_remote < cands[pick].best_remote) {
          pick = static_cast<int>(j);
        }
      }
    } else {
      pick = static_cast<int>(step);
    }
    Cand& c = cands[pick];
    c.placed = true;
    const NodeId x = nodes[c.best_idx];
    route[pick] = x;
    order.push_back(pick);

    // Data fusion: the write-set keys of the placed transaction move to
    // its route, which re-scores transactions that touch those keys.
    // Lookups use find(): operator[] would insert empty lists for
    // write-only keys from inside the hot loop (wasted churn, and a map
    // mutation the optimized path has no reason to mirror).
    for (Key k : c.writes) {
      const NodeId old_owner = view_owner(k);
      if (old_owner == x) continue;
      view[k] = x;
      const auto old_it = node_index.find(old_owner);
      const int old_idx = old_it == node_index.end() ? -1 : old_it->second;
      const int new_idx = c.best_idx;
      if (const auto rit = readers_of.find(k); rit != readers_of.end()) {
        for (int r : rit->second) {
          if (cands[r].placed) continue;
          if (old_idx >= 0) --cands[r].read_cnt[old_idx];
          ++cands[r].read_cnt[new_idx];
          compute_best(cands[r]);
        }
      }
      if (const auto wit = writers_of.find(k); wit != writers_of.end()) {
        for (int w : wit->second) {
          if (cands[w].placed) continue;
          if (old_idx >= 0) --cands[w].write_cnt[old_idx];
          ++cands[w].write_cnt[new_idx];
          compute_best(cands[w]);
        }
      }
    }
  }

  // ---- Step 2: loads, threshold, overloaded / underloaded sets. ----
  // theta = ceil(b/n * (1 + alpha)); the ceiling guarantees the trivial
  // even split is always feasible.
  const auto theta = static_cast<int64_t>(
      std::ceil(static_cast<double>(b) / n * (1.0 + config().alpha)));
  std::vector<int64_t> load(n, 0);
  for (size_t j = 0; j < b; ++j) ++load[node_index[route[j]]];

  auto overloaded = [&](int idx) { return load[idx] > theta; };
  auto underloaded = [&](int idx) { return load[idx] < theta; };
  bool any_over = false;
  for (int i = 0; i < n; ++i) any_over |= overloaded(i);

  // ---- Step 3: backward rerouting off overloaded nodes. ----
  if (any_over && config().enable_rebalance) {
    // Reader / writer positions per key, in B' position order.
    std::unordered_map<Key, std::vector<int>> pos_readers;
    std::unordered_map<Key, std::vector<int>> pos_writers;
    for (size_t p = 0; p < b; ++p) {
      const Cand& c = cands[order[p]];
      for (Key k : c.reads) pos_readers[k].push_back(static_cast<int>(p));
      for (Key k : c.writes) pos_writers[k].push_back(static_cast<int>(p));
    }
    auto owner_at = [&](int pos, Key k) -> NodeId {
      // Placement of k just before position pos: latest earlier writer's
      // route, else the pre-batch owner.
      auto it = pos_writers.find(k);
      if (it != pos_writers.end()) {
        const auto& ws = it->second;
        auto lb = std::lower_bound(ws.begin(), ws.end(), pos);
        if (lb != ws.begin()) return route[order[*std::prev(lb)]];
      }
      return ownership_->Owner(k);
    };
    // Extra remote edges if the txn at `pos` moved from its route to `to`.
    auto added_edges = [&](int pos, NodeId to) -> int {
      const int j = order[pos];
      const NodeId from = route[j];
      int added = 0;
      for (Key k : cands[j].reads) {
        const NodeId at = owner_at(pos, k);
        added += static_cast<int>(at != to) - static_cast<int>(at != from);
      }
      for (Key k : cands[j].writes) {
        // find(), not operator[]: the map must not grow mid-scan (the
        // entry always exists — this txn writes k, so k was indexed).
        const auto wit = pos_writers.find(k);
        assert(wit != pos_writers.end());
        const auto& ws = wit->second;
        auto self = std::upper_bound(ws.begin(), ws.end(), pos);
        const int limit = self == ws.end() ? static_cast<int>(b) : *self;
        auto rit = pos_readers.find(k);
        if (rit == pos_readers.end()) continue;
        for (int q : rit->second) {
          if (q <= pos) continue;
          if (q > limit) break;
          const NodeId rq = route[order[q]];
          added += static_cast<int>(rq != to) - static_cast<int>(rq != from);
        }
      }
      return added;
    };

    for (int delta = 1; delta <= kMaxDelta; ++delta) {
      bool still_over = false;
      for (int step = 0; step < static_cast<int>(b); ++step) {
        const int p = config().backward_pass ? static_cast<int>(b) - 1 - step
                                            : step;
        const int j = order[p];
        const int from_idx = node_index[route[j]];
        if (!overloaded(from_idx)) continue;
        int best_cost = 0;
        int best_u = -1;
        for (int u = 0; u < n; ++u) {
          if (!underloaded(u)) continue;
          const int cost = added_edges(p, nodes[u]);
          if (best_u < 0 || cost < best_cost) {
            best_u = u;
            best_cost = cost;
          }
        }
        if (best_u >= 0 && best_cost <= delta) {
          --load[from_idx];
          ++load[best_u];
          route[j] = nodes[best_u];
          ++reroutes;
        }
      }
      for (int i = 0; i < n; ++i) still_over |= overloaded(i);
      if (!still_over) break;
    }
  }

  return reroutes;
}

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

/// The ownership overlay is the only owner record of a fused key: every
/// key in the fusion table has an overlay entry.
void ExpectFusedKeysInOverlay(const HermesRouter& router,
                              const OwnershipMap& ownership) {
  for (Key k : router.fusion_table().ExportOrder()) {
    EXPECT_TRUE(ownership.HasKeyOverride(k)) << "fused key " << k;
  }
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
        chunk.mutable_extras().migration_target =
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
        add.mutable_extras().migration_target =
            static_cast<NodeId>(num_nodes);
        batch.txns.insert(batch.txns.begin() + 3, std::move(add));
      }
      if (b == 4) {
        TxnRequest rm;
        rm.id = next_id++;
        rm.kind = TxnKind::kRemoveNode;
        TxnRequest::Extras& extras = rm.mutable_extras();
        extras.migration_target = static_cast<NodeId>(num_nodes);
        extras.range_moves = {{0, records, 0}};
        batch.txns.insert(batch.txns.begin() + batch.txns.size() / 3,
                          std::move(rm));
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Runs the same workload through the reference router and the shipped
/// one and asserts identical observable behaviour after every batch. With
/// `with_outage`, both routers share one membership view that marks a
/// node down for batches 1–3 and up again from batch 4, so the
/// alive-filtered candidate set and the fusion eviction filter are
/// compared too.
void CheckEquivalence(uint64_t seed, const HermesConfig& config,
                      bool with_barriers, bool with_outage = false) {
  Rng knobs(Mix64(seed));
  const int num_nodes = 3 + static_cast<int>(knobs.NextBounded(4));
  const uint64_t records = 200 + knobs.NextBounded(800);
  const auto down_node = static_cast<NodeId>(knobs.NextBounded(num_nodes));

  CostModel costs;

  OwnershipMap ownership_ref(
      std::make_unique<RangePartitionMap>(records, num_nodes));
  OwnershipMap ownership_opt(
      std::make_unique<RangePartitionMap>(records, num_nodes));

  ReferenceHermesRouter ref(&ownership_ref, &costs, num_nodes, config);
  HermesRouter opt(&ownership_opt, &costs, num_nodes, config);
  MembershipView membership;
  if (with_outage) {
    ref.set_membership(&membership);
    opt.set_membership(&membership);
  }

  const std::vector<Batch> workload =
      MakeWorkload(seed, num_nodes, records, with_barriers);
  for (size_t b = 0; b < workload.size(); ++b) {
    if (with_outage && b == 1) membership.MarkDown(down_node);
    if (with_outage && b == 4) membership.MarkUp(down_node);
    const RoutePlan plan_ref = ref.RouteBatch(workload[b]);
    const RoutePlan plan_opt = opt.RouteBatch(workload[b]);
    ExpectPlansEqual(plan_ref, plan_opt, seed, static_cast<int>(b));
    if (!membership.alive(down_node)) {
      for (const RoutedTxn& rt : plan_opt.txns) {
        if (rt.txn.kind != TxnKind::kRegular) continue;
        EXPECT_NE(rt.masters.front(), down_node) << "routed to a dead node";
      }
    }
    ExpectStatsEqual(ref.stats(), opt.stats());
    ExpectFusedKeysInOverlay(ref, ownership_ref);
    ExpectFusedKeysInOverlay(opt, ownership_opt);
    EXPECT_EQ(ref.FusionChecksum(), opt.FusionChecksum());
    EXPECT_EQ(ref.fusion_table().ExportOrder(),
              opt.fusion_table().ExportOrder());
    EXPECT_EQ(ownership_ref.ExportKeyOverlay(),
              ownership_opt.ExportKeyOverlay());
    if (::testing::Test::HasFailure()) return;  // first divergence is enough
  }
}

/// Which seeds of a row add the chunk-migration / provisioning barriers.
enum class Barriers { kNever, kAlways, kEvenSeeds };

/// Checks seeds [first, first + count), stopping at the first divergence.
void CheckSeeds(uint64_t first, uint64_t count, const HermesConfig& config,
                Barriers barriers, bool with_outage = false) {
  for (uint64_t seed = first; seed < first + count; ++seed) {
    const bool with_barriers =
        barriers == Barriers::kAlways ||
        (barriers == Barriers::kEvenSeeds && seed % 2 == 0);
    CheckEquivalence(seed, config, with_barriers, with_outage);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(HermesEquivalenceTest, RandomWorkloads) {
  HermesConfig config;
  config.fusion_table_capacity = 32;
  CheckSeeds(1, 24, config, Barriers::kNever);
}

TEST(HermesEquivalenceTest, RandomWorkloadsWithBarriers) {
  HermesConfig config;
  config.fusion_table_capacity = 32;
  CheckSeeds(100, 20, config, Barriers::kAlways);
}

TEST(HermesEquivalenceTest, ReorderAblated) {
  HermesConfig config;
  config.enable_reorder = false;
  CheckSeeds(200, 20, config, Barriers::kEvenSeeds);
}

TEST(HermesEquivalenceTest, RebalanceAblated) {
  HermesConfig config;
  config.enable_rebalance = false;
  CheckSeeds(300, 20, config, Barriers::kEvenSeeds);
}

TEST(HermesEquivalenceTest, ForwardPass) {
  HermesConfig config;
  config.backward_pass = false;
  CheckSeeds(400, 20, config, Barriers::kEvenSeeds);
}

TEST(HermesEquivalenceTest, TightCapacityFifoEviction) {
  HermesConfig config;
  config.fusion_table_capacity = 4;
  config.eviction_policy = EvictionPolicy::kFifo;
  config.alpha = 0.5;
  CheckSeeds(500, 20, config, Barriers::kEvenSeeds);
}

TEST(HermesEquivalenceTest, UnboundedTableLooseAlpha) {
  HermesConfig config;
  config.fusion_table_capacity = 0;
  config.alpha = 8.0;
  CheckSeeds(600, 20, config, Barriers::kEvenSeeds);
}

// Degraded mode: one node is down for three of the five batches. Dead
// nodes drop out of the candidate set and fusion entries homed or owned
// there cannot be evicted until the node is back.
TEST(HermesEquivalenceTest, DegradedMembership) {
  HermesConfig config;
  config.fusion_table_capacity = 8;
  CheckSeeds(700, 20, config, Barriers::kEvenSeeds, /*with_outage=*/true);
}

// The shipped router is a pure function of (config, input): two
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
    return digest ^ router.FusionChecksum();
  };
  EXPECT_EQ(run(0), run(1));
}

}  // namespace
}  // namespace hermes::core
