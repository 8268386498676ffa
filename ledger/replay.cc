#include "replay.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "alloc_counter.h"
#include "common/membership.h"
#include "common/rng.h"
#include "core/hermes_router.h"
#include "partition/partition_map.h"
#include "routing/calvin_router.h"
#include "sim/simulator.h"
#include "storage/lock_manager.h"
#include "storage/record_store.h"

namespace hermes::ledger {
namespace {

using routing::Access;
using routing::RoutedTxn;
using routing::RoutePlan;

/// Mirror of the scheduler's placement fold (src/engine/scheduler.cc,
/// MixPlacement): transaction id, masters, each access's (key, owner,
/// migration target, flags), return shipments and replica ops.
void MixPlacement(DecisionDigest& digest, const RoutedTxn& rt) {
  digest.Mix(rt.txn.id);
  for (NodeId m : rt.masters) {
    digest.Mix(static_cast<uint64_t>(static_cast<uint32_t>(m)) + 1);
  }
  for (const Access& a : rt.accesses) {
    digest.Mix(a.key);
    digest.Mix((static_cast<uint64_t>(static_cast<uint32_t>(a.owner)) << 32) |
               static_cast<uint32_t>(a.new_owner));
    digest.Mix((static_cast<uint64_t>(a.replica_read) << 2) |
               (static_cast<uint64_t>(a.is_write) << 1) |
               static_cast<uint64_t>(a.ship_to_master));
  }
  for (const routing::ReturnShipment& s : rt.on_commit_returns) {
    digest.Mix(s.key);
    digest.Mix((static_cast<uint64_t>(static_cast<uint32_t>(s.from)) << 32) |
               static_cast<uint32_t>(s.to));
  }
  for (const routing::ReplicaOp& op : rt.replica_ops) {
    digest.Mix(op.key);
    digest.Mix((static_cast<uint64_t>(static_cast<uint32_t>(op.node)) << 32) |
               static_cast<uint32_t>(op.source));
    digest.Mix(static_cast<uint64_t>(op.kind) + 1);
  }
}

bool Migrates(const Access& a) {
  return a.new_owner != kInvalidNode && a.new_owner != a.owner;
}

bool IsMaster(const RoutedTxn& rt, NodeId node) {
  return std::find(rt.masters.begin(), rt.masters.end(), node) !=
         rt.masters.end();
}

/// One transaction's lock requests per involved node, ascending node id,
/// built as TxnExecutor::Dispatch builds them: a lock at each access's
/// owner, an exclusive fence where a record migrates to a master, and
/// duplicate keys merged with exclusive winning.
std::vector<std::pair<NodeId, std::vector<storage::LockRequest>>> LockSets(
    const RoutedTxn& rt) {
  std::map<NodeId, std::vector<storage::LockRequest>> by_node;
  const bool regular = rt.txn.kind == TxnKind::kRegular;
  for (const Access& a : rt.accesses) {
    by_node[a.owner].push_back(storage::LockRequest{a.key, a.is_write});
    if (regular && Migrates(a) && IsMaster(rt, a.new_owner)) {
      by_node[a.new_owner].push_back(storage::LockRequest{a.key, true});
    }
  }
  for (auto& [node, reqs] : by_node) {
    std::sort(reqs.begin(), reqs.end(),
              [](const storage::LockRequest& x, const storage::LockRequest& y) {
                if (x.key != y.key) return x.key < y.key;
                return x.exclusive > y.exclusive;
              });
    reqs.erase(std::unique(reqs.begin(), reqs.end(),
                           [](const storage::LockRequest& x,
                              const storage::LockRequest& y) {
                             return x.key == y.key;
                           }),
               reqs.end());
  }
  return {by_node.begin(), by_node.end()};
}

}  // namespace

RouterReplay ReplayRouter(const Workload& w, const std::vector<Batch>& batches,
                          bool keep_plans, SpanRecorder* spans, int parent) {
  const ClusterConfig& c = w.config;
  partition::OwnershipMap ownership(w.InitialPartitioning());
  std::unique_ptr<routing::Router> router;
  if (w.kind == engine::RouterKind::kCalvin) {
    router = std::make_unique<routing::CalvinRouter>(&ownership, &c.costs,
                                                     c.num_nodes);
  } else {
    auto hermes = std::make_unique<core::HermesRouter>(&ownership, &c.costs,
                                                       c.num_nodes, c.hermes);
    if (c.replication.enabled) hermes->EnableReplication(&c.replication);
    router = std::move(hermes);
  }
  // The cluster installs an all-alive membership view; so does the replay.
  MembershipView membership;
  router->set_membership(&membership);

  RouterReplay out;
  if (keep_plans) out.plans.reserve(batches.size());
  for (const Batch& batch : batches) {
    const int span = spans != nullptr ? spans->Begin("route_batch", parent)
                                      : SpanRecorder::kNoParent;
    const uint64_t allocs_before = AllocCount();
    if (spans != nullptr) SetAllocCounting(true);
    const int64_t start = WallNs();
    RoutePlan plan = router->RouteBatch(batch);
    out.route_ns += WallNs() - start;
    if (spans != nullptr) {
      SetAllocCounting(false);
      out.allocs += AllocCount() - allocs_before;
      spans->End(span);
    }
    for (const RoutedTxn& rt : plan.txns) {
      MixPlacement(out.placement, rt);
      ++out.txns;
      for (const Access& a : rt.accesses) {
        if (!a.is_write) ++out.reads;
        if (a.ship_to_master) ++out.remote_reads;
        if (a.replica_read) ++out.replica_reads;
        if (Migrates(a)) ++out.migrations;
      }
    }
    if (keep_plans) out.plans.push_back(std::move(plan));
  }
  return out;
}

LockReplay ReplayLocks(const std::vector<RoutePlan>& plans, int num_nodes,
                       size_t window, SpanRecorder& spans) {
  struct TxnLocks {
    TxnId id;
    std::vector<std::pair<NodeId, std::vector<storage::LockRequest>>> sets;
  };
  std::vector<TxnLocks> txns;
  LockReplay out;
  for (const RoutePlan& plan : plans) {
    for (const RoutedTxn& rt : plan.txns) {
      txns.push_back(TxnLocks{rt.txn.id, LockSets(rt)});
      for (const auto& [node, reqs] : txns.back().sets) {
        out.requests += reqs.size();
      }
    }
  }
  out.txns = txns.size();

  std::vector<std::unique_ptr<storage::LockManager>> locks;
  for (int n = 0; n < num_nodes; ++n) {
    locks.push_back(std::make_unique<storage::LockManager>());
  }
  std::vector<TxnId> granted;
  auto release = [&](const TxnLocks& t) {
    for (const auto& [node, reqs] : t.sets) {
      locks[node]->Release(t.id, &granted);
      granted.clear();
    }
  };
  window = std::max<size_t>(window, 1);
  const int64_t start = WallNs();
  for (size_t i = 0; i < txns.size(); ++i) {
    for (const auto& [node, reqs] : txns[i].sets) {
      locks[node]->Acquire(txns[i].id, reqs, &granted);
      granted.clear();
    }
    if (i >= window) release(txns[i - window]);
  }
  for (size_t i = txns.size() > window ? txns.size() - window : 0;
       i < txns.size(); ++i) {
    release(txns[i]);
  }
  out.ns = WallNs() - start;
  spans.Add("lock_replay", SpanRecorder::kNoParent, start, start + out.ns);
  return out;
}

StoreReplay ReplayStore(const Workload& w, const std::vector<RoutePlan>& plans,
                        SpanRecorder& spans) {
  enum class OpKind : uint8_t { kGet, kWrite, kMove };
  struct Op {
    OpKind kind;
    NodeId node;
    NodeId to;
    Key key;
    TxnId txn;
  };
  std::vector<Op> ops;
  for (const RoutePlan& plan : plans) {
    for (const RoutedTxn& rt : plan.txns) {
      const auto& ws = rt.txn.write_set;
      for (const Access& a : rt.accesses) {
        if (a.replica_read) continue;
        const bool moves = Migrates(a);
        const NodeId at = moves ? a.new_owner : a.owner;
        if (moves) {
          ops.push_back(Op{OpKind::kMove, a.owner, a.new_owner, a.key, 0});
        }
        // Fusion evictions are exclusive moves of keys outside the write
        // set: they cost the move and nothing else.
        if (a.is_write && std::find(ws.begin(), ws.end(), a.key) != ws.end()) {
          ops.push_back(Op{OpKind::kWrite, at, at, a.key, rt.txn.id});
        } else if (!moves) {
          ops.push_back(Op{OpKind::kGet, at, at, a.key, rt.txn.id});
        }
      }
    }
  }

  const ClusterConfig& c = w.config;
  std::vector<std::unique_ptr<storage::RecordStore>> stores;
  for (int n = 0; n < c.num_nodes; ++n) {
    stores.push_back(std::make_unique<storage::RecordStore>());
  }
  partition::OwnershipMap ownership(w.InitialPartitioning());
  for (Key k = 0; k < c.num_records; ++k) {
    storage::Record record;
    record.value = Mix64(k);
    stores[ownership.Owner(k)]->Insert(k, record);
  }

  StoreReplay out;
  const int64_t start = WallNs();
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kGet:
        if (stores[op.node]->Get(op.key) == nullptr) ++out.misses;
        ++out.ops;
        break;
      case OpKind::kWrite:
        if (!stores[op.node]->ApplyWrite(op.key, op.txn)) ++out.misses;
        ++out.ops;
        break;
      case OpKind::kMove:
        if (std::optional<storage::Record> r = stores[op.node]->Extract(op.key)) {
          stores[op.to]->Insert(op.key, *r);
        } else {
          ++out.misses;
        }
        out.ops += 2;
        break;
    }
  }
  out.ns = WallNs() - start;
  spans.Add("store_replay", SpanRecorder::kNoParent, start, start + out.ns);
  return out;
}

namespace {

/// 40 bytes of payload; with the driver pointer each closure captures 48.
struct QueuePayload {
  uint64_t a, b, c, d, e;
};

struct QueueDriver {
  sim::Simulator* sim;
  int lanes;
  uint64_t remaining;
};

void FireQueueEvent(QueueDriver* d, QueuePayload p) {
  if (d->remaining == 0) return;
  --d->remaining;
  p.a = Mix64(p.a);
  p.b += p.a;
  const int lane = static_cast<int>(p.a % static_cast<uint64_t>(d->lanes + 1)) - 1;
  const SimTime delay = 10 * (1 + (p.a >> 16) % 8);
  d->sim->ScheduleOnLane(lane, delay, [d, p] { FireQueueEvent(d, p); });
}

}  // namespace

double SimQueueNsPerEvent(int lanes, uint64_t events) {
  constexpr int kChains = 1024;
  static_assert(sizeof(QueuePayload) + sizeof(QueueDriver*) == 48);
  sim::Simulator sim;
  sim.ConfigureLanes(lanes, /*threads=*/0);
  QueueDriver driver{&sim, lanes, events};
  for (int i = 0; i < kChains; ++i) {
    QueuePayload p{static_cast<uint64_t>(i), 0, 0, 0, 0};
    sim.ScheduleOnLane(i % (lanes + 1) - 1, 0,
                       [d = &driver, p] { FireQueueEvent(d, p); });
  }
  const int64_t start = WallNs();
  sim.RunAll();
  const int64_t ns = WallNs() - start;
  return sim.events_executed() == 0
             ? 0.0
             : static_cast<double>(ns) /
                   static_cast<double>(sim.events_executed());
}

}  // namespace hermes::ledger
