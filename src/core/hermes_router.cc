#include "core/hermes_router.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/rng.h"

namespace hermes::core {
namespace {

using routing::Access;
using routing::RoutedTxn;
using routing::RoutePlan;

}  // namespace

HermesRouter::HermesRouter(partition::OwnershipMap* ownership,
                           const CostModel* costs, int num_nodes,
                           const HermesConfig& config)
    : Router(ownership, costs, num_nodes),
      config_(config),
      fusion_table_(config.fusion_table_capacity, config.eviction_policy) {}

RoutePlan HermesRouter::RouteBatch(const Batch& batch) {
  RoutePlan plan;
  plan.routing_cost_us = AnalysisCost(batch.txns.size());
  plan.txns.reserve(batch.txns.size());

  // Replica-lease batch boundary: lapse / revoke / grant decisions are
  // evaluated before any transaction of the batch routes, and ride the
  // first routed transaction so dispatch order puts them ahead of every
  // access that depends on them.
  lease_ops_.clear();
  if (lease_table_.enabled()) {
    const MembershipView* view = membership();
    lease_table_.BeginBatch(view == nullptr ? 0 : view->epoch(),
                            view == nullptr || !view->any_down(),
                            candidate_nodes(), *ownership_, &lease_ops_);
  }

  // Special transactions (provisioning markers, chunk migrations) are
  // barriers: regular transactions are reordered only within the runs
  // between them, preserving the relative order the total-order protocol
  // fixed for cluster-topology changes.
  std::vector<const TxnRequest*> segment;
  for (const TxnRequest& txn : batch.txns) {
    if (txn.kind == TxnKind::kRegular) {
      segment.push_back(&txn);
      continue;
    }
    RouteSegment(segment, &plan.txns);
    segment.clear();
    if (txn.kind == TxnKind::kChunkMigration) {
      plan.txns.push_back(PlanChunkMigration(txn));
    } else {
      plan.txns.push_back(PlanProvisioning(txn));
    }
  }
  RouteSegment(segment, &plan.txns);
  if (!lease_ops_.empty() && !plan.txns.empty()) {
    std::vector<routing::ReplicaOp>& ops = plan.txns.front().replica_ops;
    ops.insert(ops.begin(), lease_ops_.begin(), lease_ops_.end());
  }
  return plan;
}

void HermesRouter::RouteSegment(const std::vector<const TxnRequest*>& txns,
                                std::vector<RoutedTxn>* out) {
  if (txns.empty()) return;
  std::vector<int32_t>& order = scratch_.order;
  std::vector<NodeId>& route = scratch_.route;
  stats_.reroutes += PlaceSegment(txns, &order, &route);

  // Materialize plans in B' order against the live ownership map.
  for (size_t p = 0; p < order.size(); ++p) {
    const int32_t j = order[p];
    if (j != static_cast<int32_t>(p)) ++stats_.reorders;
    out->push_back(Materialize(*txns[j], route[j]));
  }
}

// ---------------------------------------------------------------------------
// Placement (Steps 1–3).
//
// The direct transcription of Algorithm 1 (hermes_equivalence_test's
// oracle) is O(b²·n) per segment: every Step-1 placement rescans all b
// candidates, and all per-key state lives in per-batch hash maps.
// This path computes the bit-for-bit identical placement in
// O((K + b + R)·log + R·n) where K is the number of distinct keys and R the
// number of fusion rescores:
//  - keys are interned to dense ids once, turning every map lookup into a
//    vector index;
//  - Step-1 selection uses a bucket queue over remote-read counts with
//    lazy revalidation (amortized O(log b) per placement, same
//    fewest-remote-reads / earliest-submission order);
//  - Step-3 hoists the per-candidate edge computation out of the per-node
//    loop: added_edges(p, u) = hist[from] - hist[u] over one histogram of
//    the move's "edge nodes", so each overloaded position costs
//    O(keys + n) instead of O(keys · n);
//  - all working state lives in scratch_, cleared (not freed) between
//    batches: steady-state routing performs no heap allocation.
// ---------------------------------------------------------------------------
uint64_t HermesRouter::PlaceSegment(const std::vector<const TxnRequest*>& txns,
                                    std::vector<int32_t>* order_out,
                                    std::vector<NodeId>* route_out) {
  const int32_t b = static_cast<int32_t>(txns.size());
  std::vector<int32_t>& order = *order_out;
  std::vector<NodeId>& route = *route_out;
  uint64_t reroutes = 0;
  // Route over the alive subset of active nodes (== active_nodes_ unless
  // degraded mode marked a node down); dead nodes never appear as a
  // candidate destination, so new batches route around the victim.
  const std::vector<NodeId>& nodes = candidate_nodes();
  const int32_t n = static_cast<int32_t>(nodes.size());
  assert(n > 0);
  RouterScratch& s = scratch_;

  // Dense index over candidate nodes (sorted ascending); -1 for nodes
  // outside the candidate set (inactive or dead).
  auto node_index = [&](NodeId node) -> int32_t {
    const auto it = std::lower_bound(nodes.begin(), nodes.end(), node);
    if (it == nodes.end() || *it != node) return -1;
    return static_cast<int32_t>(it - nodes.begin());
  };

  // ---- Intern this segment's keys to dense ids. ----
  s.interner.BeginBatch();
  s.read_span.resize(b);
  s.write_span.resize(b);
  int32_t max_reads = 0;
  for (int32_t j = 0; j < b; ++j) {
    s.read_span[j] = s.interner.AddSet(txns[j]->read_set);
    s.write_span[j] = s.interner.AddSet(txns[j]->write_set);
    max_reads = std::max(max_reads, s.read_span[j].size());
  }
  s.interner.Seal();
  const int32_t num_keys = s.interner.num_keys();

  // Pre-batch owner of every key. Sound to cache: ownership_ is only
  // mutated by Materialize / special transactions, which run after
  // Steps 1–3 of this segment complete.
  s.base_owner.resize(num_keys);
  s.base_owner_idx.resize(num_keys);
  s.cur_owner.resize(num_keys);
  s.cur_owner_idx.resize(num_keys);
  for (int32_t id = 0; id < num_keys; ++id) {
    const NodeId owner = ownership_->Owner(s.interner.KeyOf(id));
    s.base_owner[id] = owner;
    s.base_owner_idx[id] = node_index(owner);
    s.cur_owner[id] = owner;
    s.cur_owner_idx[id] = s.base_owner_idx[id];
  }

  // key id -> candidates reading / writing it (ascending candidate index,
  // because the fill pass walks candidates in order).
  s.readers_of.Reset(num_keys);
  s.writers_of.Reset(num_keys);
  for (int32_t j = 0; j < b; ++j) {
    for (int32_t id : s.interner.IdsOf(s.read_span[j])) {
      s.readers_of.CountItem(id);
    }
    for (int32_t id : s.interner.IdsOf(s.write_span[j])) {
      s.writers_of.CountItem(id);
    }
  }
  s.readers_of.CommitCounts();
  s.writers_of.CommitCounts();
  for (int32_t j = 0; j < b; ++j) {
    for (int32_t id : s.interner.IdsOf(s.read_span[j])) {
      s.readers_of.Fill(id, j);
    }
    for (int32_t id : s.interner.IdsOf(s.write_span[j])) {
      s.writers_of.Fill(id, j);
    }
  }

  // ---- Step 1: order and route requests by minimizing remote reads. ----
  s.read_cnt.assign(static_cast<size_t>(b) * n, 0);
  s.write_cnt.assign(static_cast<size_t>(b) * n, 0);
  s.best_idx.resize(b);
  s.best_remote.resize(b);
  s.placed.assign(b, 0);

  auto compute_best = [&](int32_t j) {
    const int32_t nreads = s.read_span[j].size();
    const int32_t* rc = s.read_cnt.data() + static_cast<size_t>(j) * n;
    const int32_t* wc = s.write_cnt.data() + static_cast<size_t>(j) * n;
    int32_t best_idx = 0;
    int32_t best_remote = nreads + 1;
    int32_t best_wlocal = -1;
    for (int32_t i = 0; i < n; ++i) {
      const int32_t remote = nreads - rc[i];
      const int32_t wlocal = wc[i];
      // Ties: prefer more local write keys, then the lower node id (scan
      // order is ascending node id, so strict improvement keeps it).
      if (remote < best_remote ||
          (remote == best_remote && wlocal > best_wlocal)) {
        best_remote = remote;
        best_wlocal = wlocal;
        best_idx = i;
      }
    }
    s.best_idx[j] = best_idx;
    s.best_remote[j] = best_remote;
  };

  for (int32_t j = 0; j < b; ++j) {
    int32_t* rc = s.read_cnt.data() + static_cast<size_t>(j) * n;
    int32_t* wc = s.write_cnt.data() + static_cast<size_t>(j) * n;
    for (int32_t id : s.interner.IdsOf(s.read_span[j])) {
      const int32_t oi = s.cur_owner_idx[id];
      if (oi >= 0) ++rc[oi];
    }
    for (int32_t id : s.interner.IdsOf(s.write_span[j])) {
      const int32_t oi = s.cur_owner_idx[id];
      if (oi >= 0) ++wc[oi];
    }
    compute_best(j);
  }

  // Every best_remote is in [0, max_reads]: candidates live in a bucket
  // per remote-read count, re-pushed on rescore, stale entries dropped at
  // pop time. With reordering ablated, placement follows sequencer order
  // and the queue is unused.
  const bool reorder = config_.enable_reorder;
  if (reorder) {
    s.bucket_queue.Reset(max_reads + 1);
    for (int32_t j = 0; j < b; ++j) s.bucket_queue.Push(s.best_remote[j], j);
  }

  order.clear();
  route.assign(b, kInvalidNode);
  s.route_idx.assign(b, -1);

  auto rescore = [&](int32_t t, int32_t old_idx, int32_t new_idx,
                     std::vector<int32_t>& cnt) {
    int32_t* c = cnt.data() + static_cast<size_t>(t) * n;
    if (old_idx >= 0) --c[old_idx];
    ++c[new_idx];
    const int32_t prev_remote = s.best_remote[t];
    compute_best(t);
    if (reorder && s.best_remote[t] != prev_remote) {
      s.bucket_queue.Push(s.best_remote[t], t);
    }
  };

  for (int32_t step = 0; step < b; ++step) {
    // Pick the unplaced candidate with the fewest remote reads; ties go
    // to the earliest submission (the bucket heaps pop ascending index).
    const int32_t pick =
        reorder ? s.bucket_queue.Pop([&](int32_t idx, int32_t v) {
          return !s.placed[idx] && s.best_remote[idx] == v;
        })
                : step;
    s.placed[pick] = 1;
    const int32_t x_idx = s.best_idx[pick];
    const NodeId x = nodes[x_idx];
    route[pick] = x;
    s.route_idx[pick] = x_idx;
    order.push_back(pick);

    // Data fusion: the write-set keys of the placed transaction move to
    // its route, which re-scores transactions that touch those keys.
    for (int32_t id : s.interner.IdsOf(s.write_span[pick])) {
      if (s.cur_owner[id] == x) continue;
      const int32_t old_idx = s.cur_owner_idx[id];
      s.cur_owner[id] = x;
      s.cur_owner_idx[id] = x_idx;
      for (int32_t r : s.readers_of.Items(id)) {
        if (!s.placed[r]) rescore(r, old_idx, x_idx, s.read_cnt);
      }
      for (int32_t w : s.writers_of.Items(id)) {
        if (!s.placed[w]) rescore(w, old_idx, x_idx, s.write_cnt);
      }
    }
  }

  // ---- Step 2: loads, threshold, overloaded / underloaded sets. ----
  const auto theta = static_cast<int64_t>(
      std::ceil(static_cast<double>(b) / n * (1.0 + config_.alpha)));
  s.load.assign(n, 0);
  for (int32_t j = 0; j < b; ++j) ++s.load[s.route_idx[j]];
  bool any_over = false;
  for (int32_t i = 0; i < n; ++i) any_over |= s.load[i] > theta;

  // ---- Step 3: backward rerouting off overloaded nodes. ----
  if (any_over && config_.enable_rebalance) {
    // Reader / writer positions per key id, ascending B' position.
    s.pos_readers.Reset(num_keys);
    s.pos_writers.Reset(num_keys);
    for (int32_t p = 0; p < b; ++p) {
      const int32_t j = order[p];
      for (int32_t id : s.interner.IdsOf(s.read_span[j])) {
        s.pos_readers.CountItem(id);
      }
      for (int32_t id : s.interner.IdsOf(s.write_span[j])) {
        s.pos_writers.CountItem(id);
      }
    }
    s.pos_readers.CommitCounts();
    s.pos_writers.CommitCounts();
    for (int32_t p = 0; p < b; ++p) {
      const int32_t j = order[p];
      for (int32_t id : s.interner.IdsOf(s.read_span[j])) {
        s.pos_readers.Fill(id, p);
      }
      for (int32_t id : s.interner.IdsOf(s.write_span[j])) {
        s.pos_writers.Fill(id, p);
      }
    }

    // Dense node index of key id's placement just before position pos:
    // the latest earlier writer's (live) route, else the pre-batch owner.
    auto owner_idx_at = [&](int32_t pos, int32_t id) -> int32_t {
      const auto ws = s.pos_writers.Items(id);
      const auto lb = std::lower_bound(ws.begin(), ws.end(), pos);
      if (lb != ws.begin()) return s.route_idx[order[*std::prev(lb)]];
      return s.base_owner_idx[id];
    };

    for (int delta = 1; delta <= kMaxDelta; ++delta) {
      bool still_over = false;
      for (int32_t step = 0; step < b; ++step) {
        const int32_t p = config_.backward_pass ? b - 1 - step : step;
        const int32_t j = order[p];
        const int32_t from_idx = s.route_idx[j];
        if (s.load[from_idx] <= theta) continue;  // not overloaded

        // Histogram over the move's "edge nodes": the owner feeding each
        // of this txn's reads, plus the routes of later readers inside
        // each write key's window (up to the next writer). Moving the txn
        // from `from` to `to` changes the remote-edge count by
        //   sum over edge nodes of (node != to) - (node != from)
        //     = hist[from] - hist[to],
        // so one O(keys) histogram prices all n candidate destinations.
        // Nodes outside the active set contribute to neither side.
        s.edge_hist.assign(n, 0);
        for (int32_t id : s.interner.IdsOf(s.read_span[j])) {
          const int32_t at = owner_idx_at(p, id);
          if (at >= 0) ++s.edge_hist[at];
        }
        for (int32_t id : s.interner.IdsOf(s.write_span[j])) {
          const auto ws = s.pos_writers.Items(id);
          const auto self = std::upper_bound(ws.begin(), ws.end(), p);
          const int32_t limit = self == ws.end() ? b : *self;
          const auto rs = s.pos_readers.Items(id);
          for (auto it = std::upper_bound(rs.begin(), rs.end(), p);
               it != rs.end() && *it <= limit; ++it) {
            ++s.edge_hist[s.route_idx[order[*it]]];
          }
        }

        const int32_t c_from = s.edge_hist[from_idx];
        int32_t best_cost = 0;
        int32_t best_u = -1;
        for (int32_t u = 0; u < n; ++u) {
          if (s.load[u] >= theta) continue;  // not underloaded
          const int32_t cost = c_from - s.edge_hist[u];
          if (best_u < 0 || cost < best_cost) {
            best_u = u;
            best_cost = cost;
          }
        }
        if (best_u >= 0 && best_cost <= delta) {
          --s.load[from_idx];
          ++s.load[best_u];
          route[j] = nodes[best_u];
          s.route_idx[j] = best_u;
          ++reroutes;
        }
      }
      for (int32_t i = 0; i < n; ++i) still_over |= s.load[i] > theta;
      if (!still_over) break;
    }
  }

  return reroutes;
}

RoutedTxn HermesRouter::Materialize(const TxnRequest& txn, NodeId x) {
  RoutedTxn rt;
  rt.txn = txn;
  rt.masters = {x};
  ++stats_.routed_txns;

  auto& merged = scratch_.merged;
  MergedAccessSetInto(txn, &merged);
  rt.accesses.reserve(merged.size());
  for (const auto& [k, is_write] : merged) {
    const NodeId cur = ownership_->Owner(k);
    Access a;
    a.key = k;
    a.owner = cur;
    a.is_write = is_write;
    a.ship_to_master = (cur != x);
    if (is_write && cur != x) {
      a.new_owner = x;
      ++stats_.migrations;
    }
    if (lease_table_.enabled()) {
      // Feed the windowed popularity counters, and serve reads of leased
      // keys from the route's own copy: no shipment, no remote wait. The
      // primary record (and its lock order) is untouched — the shared
      // lock moves to the reading master itself.
      if (is_write) {
        lease_table_.ObserveWrite(k);
      } else {
        // Only remote reads feed the hotness counter: a lease localizes
        // reads arriving from non-owner masters, so reads that are
        // already local carry no signal (a locally hot key would pay
        // write fan-out for zero read benefit).
        if (cur != x) lease_table_.ObserveRead(k);
        if (cur != x && lease_table_.IsHolder(k, x)) {
          a.owner = x;
          a.ship_to_master = false;
          a.replica_read = true;
          ++stats_.replica_reads;
        }
      }
    }
    if (a.ship_to_master) ++stats_.remote_reads;
    rt.accesses.push_back(a);
  }

  // Fusion-table maintenance: write keys now live at the route (entries
  // exist only for keys away from home, and the overlay holds their
  // owner); read hits refresh LRU recency. An eviction victim keeps its
  // slot if it is one of the transaction's own write keys (mid-migration
  // to the master, it cannot also ship home) or, in degraded mode, if its
  // homeward shipment would touch a dead node (either end) — it waits for
  // the node to rejoin. With no membership view installed every node is
  // alive, so fault-free routing only pins. `merged` is key-sorted, so
  // the filtered write-key list stays sorted for binary search.
  auto& pinned = scratch_.pinned;
  pinned.clear();
  for (const auto& [k, is_write] : merged) {
    if (is_write) pinned.push_back(k);
  }
  const auto keep = [&](Key victim) {
    return std::binary_search(pinned.begin(), pinned.end(), victim) ||
           !NodeAlive(ownership_->Owner(victim)) ||
           !NodeAlive(ownership_->Home(victim));
  };
  auto& evicted = scratch_.evicted;
  evicted.clear();
  for (const auto& [k, is_write] : merged) {
    if (!is_write) {
      fusion_table_.Touch(k);
      continue;
    }
    if (ownership_->Home(k) == x) {
      fusion_table_.Erase(k);
      ownership_->ClearKeyOwner(k);
    } else {
      fusion_table_.Put(k, keep, &evicted);
      ownership_->SetKeyOwner(k, x);
    }
  }

  // Evicted keys migrate back home, appended to this transaction's plan
  // (§4.1); the client-visible commit does not wait for these shipments.
  // A victim is never a write key of this transaction, so its overlay
  // entry still names the owner it had when it was evicted.
  for (Key ev : evicted) {
    ++stats_.evictions;
    const NodeId cur = ownership_->Owner(ev);
    const NodeId home = ownership_->Home(ev);
    HERMES_TRACE(tracer_, obs::EventKind::kFusionEvict, cur, kInvalidTxn, ev);
    if (digest_ != nullptr) digest_->Mix(ev);
    ownership_->ClearKeyOwner(ev);
    if (cur == home) continue;
    Access a;
    a.key = ev;
    a.owner = cur;
    a.is_write = true;
    a.ship_to_master = false;
    a.new_owner = home;
    rt.accesses.push_back(a);
    ++stats_.migrations;
  }
  return rt;
}

RoutedTxn HermesRouter::PlanChunkMigration(const TxnRequest& txn) {
  RoutedTxn rt;
  rt.txn = txn;
  const NodeId dst = txn.migration_target();
  rt.masters = {dst};
  Key lo = 0, hi = 0;
  bool first = true;
  for (Key k : txn.write_set) {
    if (first) {
      lo = hi = k;
      first = false;
    } else {
      lo = std::min(lo, k);
      hi = std::max(hi, k);
    }
    // Hot keys tracked by the fusion table are skipped: they keep moving
    // with normal traffic and the chunk transaction never touches them,
    // so cold migration does not interfere with hot-data access (§3.3).
    if (fusion_table_.Contains(k)) continue;
    // Any other key lands at dst, its new home, so a per-key placement left
    // by a node removal must not outlive the range move.
    const NodeId cur = ownership_->Owner(k);
    ownership_->ClearKeyOwner(k);
    if (cur == dst) continue;
    rt.accesses.push_back(Access{k, cur, /*is_write=*/true,
                                 /*ship_to_master=*/true,
                                 /*new_owner=*/dst});
  }
  if (!first) ownership_->SetRangeOwner(lo, hi, dst);
  HERMES_TRACE(tracer_, obs::EventKind::kChunkMigration, dst, txn.id, lo,
               rt.accesses.size());
  return rt;
}

RoutedTxn HermesRouter::PlanProvisioning(const TxnRequest& txn) {
  RoutedTxn rt;
  rt.txn = txn;
  rt.masters = {active_nodes_.empty() ? 0 : active_nodes_.front()};
  HERMES_TRACE(tracer_, obs::EventKind::kNodeProvision, txn.migration_target(),
               txn.id, static_cast<Key>(-1),
               static_cast<uint64_t>(txn.kind));
  if (txn.kind == TxnKind::kAddNode) {
    OnAddNode(txn.migration_target());
    return rt;
  }
  // Removal: hot records on the leaving node are re-homed via data fusion
  // — each fusion entry pointing at the leaver ships to the node that will
  // own its range (from the marker's range plan), or its current home.
  const NodeId leaver = txn.migration_target();
  auto dest_for = [&](Key k) -> NodeId {
    for (const auto& mv : txn.range_moves()) {
      if (k >= mv.lo && k <= mv.hi) return mv.target;
    }
    return ownership_->Home(k);
  };
  // Each such key leaves the fusion table, so it keeps an overlay entry
  // only while dest is not its home (a chunk migration later re-homes it).
  for (Key k : fusion_table_.ExportOrder()) {
    if (ownership_->Owner(k) != leaver) continue;
    const NodeId dest = dest_for(k);
    fusion_table_.Erase(k);
    if (dest == ownership_->Home(k)) {
      ownership_->ClearKeyOwner(k);
    } else {
      ownership_->SetKeyOwner(k, dest);
    }
    if (dest == leaver) continue;
    rt.accesses.push_back(Access{k, leaver, /*is_write=*/true,
                                 /*ship_to_master=*/false,
                                 /*new_owner=*/dest});
    ++stats_.migrations;
  }
  OnRemoveNode(leaver);
  return rt;
}

void HermesRouter::RestoreFusionTable(const std::vector<Key>& order) {
  for (Key k : order) {
    if (!ownership_->HasKeyOverride(k)) {
      throw std::out_of_range("fusion-table key missing from the overlay");
    }
  }
  fusion_table_.Restore(order);
}

uint64_t HermesRouter::FusionChecksum() const {
  uint64_t sum = 0;
  for (Key k : fusion_table_.ExportOrder()) {
    sum ^= Mix64(Mix64(k) ^ static_cast<uint64_t>(ownership_->Owner(k) + 7));
  }
  return sum;
}

}  // namespace hermes::core
