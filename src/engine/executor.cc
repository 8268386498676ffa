#include "engine/executor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <map>
#include <memory>

#if defined(__SANITIZE_ADDRESS__)
#define HERMES_ASAN_SHELLS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HERMES_ASAN_SHELLS 1
#endif
#endif
#ifdef HERMES_ASAN_SHELLS
#include <sanitizer/asan_interface.h>
#define HERMES_POISON_SHELL(p) ASAN_POISON_MEMORY_REGION((p), sizeof(*(p)))
#define HERMES_UNPOISON_SHELL(p) ASAN_UNPOISON_MEMORY_REGION((p), sizeof(*(p)))
#else
#define HERMES_POISON_SHELL(p) ((void)(p))
#define HERMES_UNPOISON_SHELL(p) ((void)(p))
#endif

namespace hermes::engine {
namespace {

using routing::Access;
using routing::RoutedTxn;

template <typename T>
void SortUnique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Packs one planned access into a TraceEvent arg: new-owner node in the
/// high bits, write/ship flags in the low two.
uint64_t PackAccessArg(const routing::Access& acc) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(acc.new_owner)) << 2) |
         (acc.is_write ? 2u : 0u) | (acc.ship_to_master ? 1u : 0u);
}

constexpr Key kNoKey = static_cast<Key>(-1);

/// Entry for `node` in a node-sorted state vector, inserted in order if
/// absent. Invalidates references to other entries when it inserts.
template <typename State>
State& SortedEntry(std::vector<std::pair<NodeId, State>>& states,
                   NodeId node) {
  auto it = std::lower_bound(
      states.begin(), states.end(), node,
      [](const std::pair<NodeId, State>& e, NodeId n) { return e.first < n; });
  if (it == states.end() || it->first != node) {
    it = states.emplace(it, node, State{});
  }
  return it->second;
}

/// Same for a vector of states that carry their own `node` field.
template <typename State>
State& SortedEntry(std::vector<State>& states, NodeId node) {
  auto it = std::lower_bound(
      states.begin(), states.end(), node,
      [](const State& e, NodeId n) { return e.node < n; });
  if (it == states.end() || it->node != node) {
    it = states.emplace(it);
    it->node = node;
  }
  return *it;
}

}  // namespace

TxnExecutor::TxnExecutor(sim::Simulator* sim, net::Wire* wire,
                         Metrics* metrics, const CostModel* costs,
                         std::vector<std::unique_ptr<Node>>* nodes)
    : sim_(sim), net_(wire), metrics_(metrics), costs_(costs), nodes_(nodes) {}

TxnExecutor::~TxnExecutor() {
  for (auto& shell : idle_shells_) HERMES_UNPOISON_SHELL(shell.get());
}

std::unique_ptr<TxnExecutor::Active> TxnExecutor::TakeShell() {
  if (idle_shells_.empty()) return std::make_unique<Active>();
  std::unique_ptr<Active> shell = std::move(idle_shells_.back());
  idle_shells_.pop_back();
  HERMES_UNPOISON_SHELL(shell.get());
  return shell;
}

void TxnExecutor::RetireActive(TxnId id) {
  std::unique_ptr<Active> shell = actives_.Take(id);
  assert(shell != nullptr);
  // Reset every field, releasing the plan, the client callback and any
  // stalled steps; the small per-node, write-key and owned-index buffers
  // keep their capacity.
  Active& a = *shell;
  std::vector<NodeState> nodes = std::move(a.nodes);
  std::vector<Key> write_keys = std::move(a.write_keys);
  std::vector<uint32_t> owned = std::move(a.owned);
  a = Active{};
  nodes.clear();
  write_keys.clear();
  owned.clear();
  a.nodes = std::move(nodes);
  a.write_keys = std::move(write_keys);
  a.owned = std::move(owned);
  HERMES_POISON_SHELL(shell.get());
  idle_shells_.push_back(std::move(shell));
}

TxnExecutor::NodeState* TxnExecutor::StateFor(Active& a, NodeId node) {
  for (NodeState& state : a.nodes) {
    if (state.node == node) return &state;
  }
  return nullptr;
}

bool TxnExecutor::IsMaster(const Active& a, NodeId node) {
  for (NodeId m : a.plan.masters) {
    if (m == node) return true;
  }
  return false;
}

void TxnExecutor::Dispatch(RoutedTxn plan, CommitCallback on_commit) {
  const TxnId id = plan.txn.id;
  assert(!plan.masters.empty());
  if (HERMES_TRACE_ACTIVE(tracer_)) {
    tracer_->Record(obs::EventKind::kTxnDispatch, plan.masters[0], id, kNoKey,
                    plan.accesses.size());
    for (const auto& acc : plan.accesses) {
      tracer_->Record(obs::EventKind::kAccess, acc.owner, id, acc.key,
                      PackAccessArg(acc));
    }
  }
  // Replica-lease maintenance rides the plan in dispatch (= total) order:
  // holder-set changes first, then the install shipments, so a read
  // routed later in this batch already sees the holder registered.
  if (lease_mgr_ != nullptr) {
    for (const routing::ReplicaOp& op : plan.replica_ops) {
      if (op.kind == routing::ReplicaOpKind::kInstall) {
        lease_mgr_->BeginInstall(op.key, op.node, op.source);
        StartReplicaInstall(op.key, op.source, op.node, id);
      } else {
        lease_mgr_->Revoke(op.key, op.node);
      }
    }
  }

  std::unique_ptr<Active> shell = TakeShell();
  Active& a = *shell;
  a.plan = std::move(plan);
  a.on_commit = std::move(on_commit);
  a.dispatch_time = sim_->Now();
  a.write_keys.assign(a.plan.txn.write_set.begin(),
                      a.plan.txn.write_set.end());
  SortUnique(a.write_keys);

  // Migration fence: a record moving to a master that will write it is
  // exclusively locked at the destination until commit, so transactions
  // routed there later in the total order cannot read it early.
  const bool regular = a.plan.txn.kind == TxnKind::kRegular;
  auto fenced = [&a, regular](const Access& acc) {
    return regular && acc.new_owner != kInvalidNode &&
           acc.new_owner != acc.owner && IsMaster(a, acc.new_owner);
  };

  // The involved nodes, in ascending order: owners, fence destinations and
  // masters. `owned_end` counts each node's accesses for now.
  const std::vector<Access>& accesses = a.plan.accesses;
  bool any_fence = false;
  for (const Access& acc : accesses) {
    ++SortedEntry(a.nodes, acc.owner).owned_end;
    if (fenced(acc)) {
      SortedEntry(a.nodes, acc.new_owner);
      any_fence = true;
    }
  }
  for (NodeId m : a.plan.masters) SortedEntry(a.nodes, m).is_master = true;
  uint32_t owned_at = 0;
  for (NodeState& state : a.nodes) {
    state.owned_begin = owned_at;
    owned_at += state.owned_end;
    state.owned_end = state.owned_begin;
  }

  // Group owned accesses per involved node.
  a.owned.resize(accesses.size());
  for (uint32_t i = 0; i < accesses.size(); ++i) {
    a.owned[StateFor(a, accesses[i].owner)->owned_end++] = i;
  }

  // Count expected shipments per master: one message per (source node,
  // master) pair with at least one shipped access.
  std::vector<NodeId> targets = node_pool_.Take();
  for (const NodeState& state : a.nodes) {
    const NodeId node = state.node;
    targets.clear();
    for (uint32_t i : OwnedOf(a, state)) {
      const Access& acc = accesses[i];
      if (!acc.ship_to_master) continue;
      if (acc.new_owner != kInvalidNode && acc.new_owner != node &&
          IsMaster(a, acc.new_owner)) {
        // The migration message itself carries the value to the master.
        targets.push_back(acc.new_owner);
        continue;
      }
      // Read copy (including reads whose record migrates to a non-master,
      // e.g. a return-migration home): one message per remote master.
      for (NodeId m : a.plan.masters) {
        if (m != node) targets.push_back(m);
      }
    }
    SortUnique(targets);
    for (NodeId t : targets) ++StateFor(a, t)->pending_messages;
    const std::span<const uint32_t> owned = OwnedOf(a, state);
    if (std::any_of(owned.begin(), owned.end(), [&](uint32_t i) {
          return Ships(a, accesses[i], node);
        })) {
      ++a.participants_pending;
    }
  }
  node_pool_.Give(std::move(targets));

  a.distributed = a.nodes.size() > 1;
  actives_.Insert(id, std::move(shell));

  // Enqueue all lock requests in total order (ascending node id within the
  // transaction; Dispatch itself is called in total order). Each node's
  // requests are built in scratch and deduplicated (a key can appear as
  // both a normal access and a fence/eviction access): exclusive wins.
  std::vector<storage::LockRequest> reqs = lock_pool_.Take();
  std::vector<TxnId> granted = granted_pool_.Take();
  for (NodeState& state : a.nodes) {
    reqs.clear();
    for (uint32_t i : OwnedOf(a, state)) {
      const Access& acc = accesses[i];
      reqs.push_back(storage::LockRequest{acc.key, acc.is_write});
    }
    if (any_fence) {
      for (const Access& acc : accesses) {
        if (acc.new_owner == state.node && fenced(acc)) {
          reqs.push_back(storage::LockRequest{acc.key, true});
        }
      }
    }
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
    state.locks = static_cast<uint32_t>(reqs.size());
    granted.clear();
    NodeAt(state.node).locks().Acquire(id, reqs, &granted);
    ProcessGrants(state.node, granted);
  }
  lock_pool_.Give(std::move(reqs));
  granted_pool_.Give(std::move(granted));
}

void TxnExecutor::ProcessGrants(NodeId node,
                                const std::vector<TxnId>& granted) {
  for (TxnId t : granted) {
    if (Active* a = Live(t)) Run(*a, node, Phase::kGrant);
  }
}

bool TxnExecutor::Ships(const Active& a, const Access& acc, NodeId node) {
  const bool migrates = acc.new_owner != kInvalidNode && acc.new_owner != node;
  const bool copies = acc.ship_to_master &&
                      (a.plan.masters.size() > 1 || a.plan.masters[0] != node);
  return migrates || copies;
}

void TxnExecutor::Run(Active& a, NodeId node, Phase phase) {
  if (phase != Phase::kCommit && NodeDead(node)) {
    // The node died before this step: the transaction cannot progress
    // here. Nothing of the step has happened (a send phase extracts its
    // records all at once, below), so rejoin re-runs it from the top, or
    // the watchdog reclassifies the transaction first. A grant stays
    // ungranted; a master re-tests its readiness.
    FreezeStalled(a, node, phase);
    return;
  }
  NodeState& state = *StateFor(a, node);
  switch (phase) {
    case Phase::kGrant:
      return OnGranted(a, state);
    case Phase::kRead:
      return StartParticipant(a, state);
    case Phase::kShip:
      return FinishParticipant(a, state);
    case Phase::kMasterReady:
      return CheckMasterReady(a, state);
    case Phase::kCommit:
      return CommitMaster(a, state);
  }
}

void TxnExecutor::OnGranted(Active& a, NodeState& state) {
  assert(!state.granted);
  const NodeId node = state.node;
  state.granted = true;
  state.grant_time = sim_->Now();

  // Participant side: ship records once they are physically present.
  const std::vector<Access>& accesses = a.plan.accesses;
  const TxnId id = a.plan.txn.id;
  std::vector<Key> needed = key_pool_.Take();
  for (uint32_t i : OwnedOf(a, state)) {
    if (Ships(a, accesses[i], node)) needed.push_back(accesses[i].key);
  }
  if (!needed.empty()) {
    SortUnique(needed);
    WaitPresence(node, needed, Resume(id, node, Phase::kRead));
  }
  key_pool_.Give(std::move(needed));

  // Master side: wait for the local records, and for the lease copies of
  // replica reads (the primary lives elsewhere), then check readiness.
  if (!state.is_master) return;
  std::vector<Key> local = key_pool_.Take();
  std::vector<Key> replica = key_pool_.Take();
  for (uint32_t i : OwnedOf(a, state)) {
    const Access& acc = accesses[i];
    if (acc.replica_read && lease_mgr_ != nullptr) {
      replica.push_back(acc.key);
    } else {
      local.push_back(acc.key);
    }
  }
  SortUnique(local);
  auto present = [this, id, node]() {
    Active* act = Live(id);
    if (act == nullptr) return;
    if (--StateFor(*act, node)->presence_waits == 0) {
      Run(*act, node, Phase::kMasterReady);
    }
  };
  state.presence_waits = replica.empty() ? 1 : 2;
  if (!replica.empty()) {
    SortUnique(replica);
    lease_mgr_->WaitCopies(node, replica, present);
  }
  WaitPresence(node, local, present);
  key_pool_.Give(std::move(local));
  key_pool_.Give(std::move(replica));
}

void TxnExecutor::StartParticipant(Active& a, NodeState& state) {
  // Local storage reads for everything this node ships, on a worker.
  const NodeId node = state.node;
  const std::span<const uint32_t> owned = OwnedOf(a, state);
  const auto ops = static_cast<size_t>(
      std::count_if(owned.begin(), owned.end(), [&](uint32_t i) {
        return Ships(a, a.plan.accesses[i], node);
      }));
  NodeAt(node).workers().Submit(costs_->storage_op_us * ops,
                                Resume(a.plan.txn.id, node, Phase::kShip));
}

void TxnExecutor::FinishParticipant(Active& a, NodeState& state) {
  const NodeId node = state.node;
  Node& src = NodeAt(node);
  const std::vector<Access>& accesses = a.plan.accesses;

  // Build one message per destination: read copies to masters, record
  // moves to their new owners. Copies are snapshotted before any move
  // extracts the record.
  // Sorted by destination node.
  std::vector<std::pair<NodeId, Shipment>> shipments = shipment_pool_.Take();

  for (uint32_t i : OwnedOf(a, state)) {
    const Access& acc = accesses[i];
    const bool migrates =
        acc.new_owner != kInvalidNode && acc.new_owner != node;
    const bool migrates_to_master =
        migrates && IsMaster(a, acc.new_owner);
    if (!acc.ship_to_master || migrates_to_master) continue;
    // Read copy to every remote master (for records migrating to a
    // non-master destination, the copy and the move are separate
    // messages).
    for (NodeId m : a.plan.masters) {
      if (m == node) continue;
      Shipment& s = SortedEntry(shipments, m);
      s.bytes += costs_->record_bytes;
      s.to_master = true;
    }
  }
  for (uint32_t i : OwnedOf(a, state)) {
    const Access& acc = accesses[i];
    const bool migrates =
        acc.new_owner != kInvalidNode && acc.new_owner != node;
    if (!migrates) continue;
    src.store().Ship(acc.key, acc.new_owner);
    HERMES_TRACE(tracer_, obs::EventKind::kRecordExtract, node, a.plan.txn.id,
                 acc.key, static_cast<uint32_t>(acc.new_owner));
    Shipment& s = SortedEntry(shipments, acc.new_owner);
    if (s.moves.empty()) s.moves = key_pool_.Take();
    s.moves.push_back(acc.key);
    s.bytes += costs_->record_bytes;
    if (acc.ship_to_master && IsMaster(a, acc.new_owner)) s.to_master = true;
  }

  const TxnId id = a.plan.txn.id;
  // Regular transactions block on these shipments (foreground); chunk
  // migrations and provisioning markers move data in the background (bulk,
  // eligible for envelope coalescing on the wire substrate).
  const TrafficClass ship_cls = a.plan.txn.kind == TxnKind::kRegular
                                    ? TrafficClass::kForeground
                                    : TrafficClass::kBulk;
  uint64_t migrated = 0;
  for (auto& [dest, shipment] : shipments) {
    migrated += shipment.moves.size();
    // The master flag rides the destination's low bit, so the closure fits
    // sim::Callback's inline buffer and the send does not allocate it.
    const uint32_t to = static_cast<uint32_t>(dest) << 1 |
                        static_cast<uint32_t>(shipment.to_master);
    auto deliver = [this, id, node, to,
                    moves = std::move(shipment.moves)]() mutable {
      const auto to_node = static_cast<NodeId>(to >> 1);
      for (Key key : moves) DeliverRecord(to_node, key, node, id);
      key_pool_.Give(std::move(moves));
      Active* act = Live(id);
      if (act == nullptr || (to & 1) == 0) return;
      NodeState& m = *StateFor(*act, to_node);
      assert(m.is_master && m.pending_messages > 0);
      --m.pending_messages;
      ++m.messages_received;
      Run(*act, to_node, Phase::kMasterReady);
    };
    static_assert(sizeof(deliver) <= sim::Callback::kInlineBytes);
    net_->Send(node, dest, shipment.bytes, ship_cls, std::move(deliver));
  }
  shipment_pool_.Give(std::move(shipments));
  // Early release: participants that are not masters give their locks up
  // right after shipping (their part of the transaction is over). Lock
  // state is node-local, so the release and its grant chain stay on this
  // lane; the shared bookkeeping (metrics, participant counter, possible
  // completion) rides the epoch barrier at the same virtual time.
  std::vector<TxnId> granted = granted_pool_.Take();
  if (!state.is_master) {
    src.locks().Release(id, &granted);
  }
  sim_->Defer([this, id, migrated]() {
    if (migrated > 0) metrics_->RecordMigrations(sim_->Now(), migrated);
    Active* act = Live(id);
    if (act == nullptr) return;
    --act->participants_pending;
    MaybeComplete(*act);  // may retire `act`
  });
  ProcessGrants(node, granted);
  granted_pool_.Give(std::move(granted));
}

void TxnExecutor::CheckMasterReady(Active& a, NodeState& state) {
  if (state.started || !state.granted || state.presence_waits > 0 ||
      state.pending_messages > 0) {
    return;
  }
  state.started = true;
  const SimTime ready_time = sim_->Now();
  if (ready_time > state.grant_time) {
    a.remote_wait_us += ready_time - state.grant_time;
  }
  // Execution cost: fixed logic + per-record logic + local storage ops.
  const std::span<const uint32_t> owned = OwnedOf(a, state);
  size_t local_ops = owned.size();
  if (a.plan.masters.size() == 1) {
    local_ops += a.write_keys.size();  // every write applies here
  } else {
    for (uint32_t i : owned) {
      if (a.plan.accesses[i].is_write) ++local_ops;
    }
  }
  const SimTime cost = costs_->txn_logic_us +
                       costs_->txn_logic_per_record_us * a.plan.txn.NumOps() +
                       costs_->storage_op_us * local_ops +
                       costs_->msg_processing_us * state.messages_received;
  a.exec_us += cost;
  NodeAt(state.node).workers().Submit(
      cost, Resume(a.plan.txn.id, state.node, Phase::kCommit));
}

void TxnExecutor::CommitMaster(Active& a, NodeState& state) {
  const NodeId master_node = state.node;
  Node& node = NodeAt(master_node);
  const TxnId id = a.plan.txn.id;
  const bool single_master = a.plan.masters.size() == 1;
  // A single master applies every write; with several, each write applies
  // at the master that owns its key.
  const std::span<const uint32_t> owned = OwnedOf(a, state);
  auto applies_here = [&](Key k) {
    return single_master ||
           std::any_of(owned.begin(), owned.end(), [&](uint32_t i) {
             const Access& acc = a.plan.accesses[i];
             return acc.key == k && acc.is_write;
           });
  };

  if (a.plan.txn.kind == TxnKind::kRegular) {
    // Apply writes with UNDO pre-images; a user abort rolls them back but
    // the migration plan already executed (§4.2).
    for (Key k : a.write_keys) {
      if (!applies_here(k)) continue;
      const storage::Record* pre = node.store().Get(k);
      assert(pre != nullptr && "write target not present at master");
      node.undo().RecordPreImage(id, k, *pre);
      node.store().ApplyWrite(k, id);
    }
    if (a.plan.txn.user_abort) {
      node.undo().Abort(id, &node.store());
    } else {
      node.undo().Commit(id);
    }
  }

  // Replica-lease write fan-out: every committed write of a leased key
  // sends the full post-commit record snapshot to the sorted holder set
  // (batch-ordered: the commit itself is ordered by this master's lock).
  // Holders apply version-max, so late or duplicated updates converge.
  // Each key fans out from the master that applied it (the same
  // applies-here test as the write loop above), so multi-master plans
  // refresh copies exactly once per key. The holder set is
  // exclusive-written, lane-read — safe here.
  if (lease_mgr_ != nullptr && a.plan.txn.kind == TxnKind::kRegular &&
      !a.plan.txn.user_abort) {
    uint64_t fanout_work = 0;
    for (Key k : a.write_keys) {
      if (!applies_here(k)) continue;
      const std::vector<NodeId>* holders = lease_mgr_->HoldersOf(k);
      if (holders == nullptr) continue;
      const storage::Record* rec = node.store().Get(k);
      if (rec == nullptr) continue;
      const storage::Record snapshot = *rec;
      for (NodeId h : *holders) {
        if (h == master_node) {
          // The primary migrated onto a holder: refresh its copy in place
          // (own lane, own shard), no network hop.
          lease_mgr_->ApplyCopy(h, k, snapshot, /*install=*/false, id);
          continue;
        }
        fanout_work += costs_->storage_op_us;
        // Batch-ordered apply: the holder is already consuming this
        // epoch's sequenced batch stream, so the refresh costs it one
        // storage op, not a point-to-point RPC deserialization (only the
        // initial install pays msg_processing for its fetch).
        // The snapshot rides field by field so the 32-bit version and
        // holder share a word and the closure fits sim::Callback inline.
        auto refresh = [this, k, id, value = snapshot.value,
                        writer = snapshot.last_writer,
                        version = snapshot.version, h]() {
          if (NodeDead(h)) return;
          NodeAt(h).workers().Submit(costs_->storage_op_us, [] {});
          lease_mgr_->ApplyCopy(h, k, storage::Record{value, writer, version},
                                /*install=*/false, id);
        };
        static_assert(sizeof(refresh) <= sim::Callback::kInlineBytes);
        net_->Send(master_node, h, costs_->record_bytes, TrafficClass::kBulk,
                   std::move(refresh));
      }
    }
    if (fanout_work > 0) node.workers().Submit(fanout_work, [] {});
  }

  std::vector<TxnId> granted = granted_pool_.Take();
  node.locks().Release(id, &granted);
  // The done-counter is shared across masters (different node lanes) and
  // the acknowledgment does cross-node work (return-shipment extracts),
  // so both run at the epoch barrier, at this same virtual time. The
  // grant chain is node-local and stays on this lane.
  sim_->Defer([this, id]() { OnMasterDone(id); });
  ProcessGrants(master_node, granted);
  granted_pool_.Give(std::move(granted));
}

void TxnExecutor::OnMasterDone(TxnId id) {
  Active* live = Live(id);
  if (live == nullptr) return;
  Active& a = *live;
  ++a.masters_done;
  if (a.masters_done == static_cast<int>(a.plan.masters.size())) {
    Acknowledge(a);
    MaybeComplete(a);  // may retire `a`
  }
}

void TxnExecutor::MaybeComplete(Active& a) {
  if (a.acked && a.participants_pending == 0) {
    frozen_ids_.erase(a.plan.txn.id);
    RetireActive(a.plan.txn.id);  // `a` is a parked shell from here on
  }
}

void TxnExecutor::Acknowledge(Active& a) {
  assert(!sim_->in_lane_context() &&
         "acknowledgment does cross-node work; exclusive context only");
  // Return shipments: checked-out records go home after commit. The
  // write-back is real work: the sender reads and serializes each record,
  // the receiver deserializes and re-inserts it — this is the overhead
  // data fusion avoids (§6.3).
  uint64_t returns = 0;
  // Per-sender worker time, sorted by node.
  std::vector<std::pair<NodeId, uint64_t>> send_work = work_pool_.Take();
  for (const routing::ReturnShipment& r : a.plan.on_commit_returns) {
    NodeAt(r.from).store().Ship(r.key, r.to);
    HERMES_TRACE(tracer_, obs::EventKind::kRecordExtract, r.from,
                 a.plan.txn.id, r.key, static_cast<uint32_t>(r.to));
    ++returns;
    SortedEntry(send_work, r.from) += costs_->storage_op_us;
    net_->Send(r.from, r.to, costs_->record_bytes, TrafficClass::kBulk,
               [this, r, id = a.plan.txn.id]() {
                 if (!NodeDead(r.to)) {
                   NodeAt(r.to).workers().Submit(
                       costs_->storage_op_us + costs_->msg_processing_us,
                       [] {});
                 }
                 DeliverRecord(r.to, r.key, r.from, id);
               });
  }
  for (const auto& [node, work] : send_work) {
    NodeAt(node).workers().Submit(work, [] {});
  }
  work_pool_.Give(std::move(send_work));
  if (returns > 0) metrics_->RecordMigrations(sim_->Now(), returns);

  TxnResult result;
  result.id = a.plan.txn.id;
  result.aborted = a.plan.txn.user_abort;
  result.distributed = a.distributed;
  result.latency.scheduling_us =
      a.dispatch_time > a.plan.txn.submit_time
          ? a.dispatch_time - a.plan.txn.submit_time
          : 0;
  // Lock wait: time from dispatch until the (last) master held its locks.
  SimTime lock_wait = 0;
  for (const NodeState& state : a.nodes) {
    if (state.is_master && state.grant_time > a.dispatch_time) {
      lock_wait = std::max(lock_wait, state.grant_time - a.dispatch_time);
    }
  }
  result.latency.lock_wait_us = lock_wait;
  result.latency.remote_wait_us = a.remote_wait_us;
  result.latency.storage_us = a.exec_us;

  // Phase spans: the lifecycle timeline of §2.1, laid end to end from
  // submit time. Purely derived from the latency breakdown computed above.
  const NodeId master = a.plan.masters[0];
  if (HERMES_TRACE_ACTIVE(tracer_)) {
    const TxnId tid = a.plan.txn.id;
    SimTime at = a.plan.txn.submit_time;
    tracer_->RecordSpan(obs::EventKind::kPhaseSequence, master, tid, kNoKey,
                        at, result.latency.scheduling_us);
    at += result.latency.scheduling_us;
    tracer_->RecordSpan(obs::EventKind::kPhaseLockWait, master, tid, kNoKey,
                        at, result.latency.lock_wait_us);
    at += result.latency.lock_wait_us;
    tracer_->RecordSpan(obs::EventKind::kPhaseRemoteWait, master, tid, kNoKey,
                        at, result.latency.remote_wait_us);
    at += result.latency.remote_wait_us;
    tracer_->RecordSpan(obs::EventKind::kPhaseExecute, master, tid, kNoKey,
                        at, result.latency.storage_us);
  }

  if (result.aborted) {
    ++aborted_;
  } else {
    ++committed_;
  }
  a.acked = true;

  // Client acknowledgment is one network hop away.
  const uint32_t slot = acks_.Put(
      Ack{result, std::move(a.on_commit), a.plan.txn.submit_time, master,
          a.plan.txn.kind == TxnKind::kRegular});
  sim_->Schedule(costs_->net_latency_us, [this, slot]() { DeliverAck(slot); });
}

void TxnExecutor::DeliverAck(uint32_t slot) {
  Ack ack = acks_.Take(slot);
  TxnResult& result = ack.result;
  const SimTime now = sim_->Now();
  result.latency.total_us = now > ack.submit ? now - ack.submit : 0;
  const SimTime accounted =
      result.latency.scheduling_us + result.latency.lock_wait_us +
      result.latency.remote_wait_us + result.latency.storage_us;
  result.latency.other_us =
      result.latency.total_us > accounted ? result.latency.total_us - accounted
                                          : 0;
  if (ack.regular) {
    metrics_->RecordCommit(now, result.latency, result.distributed,
                           result.aborted);
  }
  HERMES_TRACE(tracer_,
               result.aborted ? obs::EventKind::kTxnAbort
                              : obs::EventKind::kTxnCommit,
               ack.master, result.id, kNoKey, result.latency.total_us);
  if (ack.cb) ack.cb(result);
}

std::string TxnExecutor::DebugString() const {
  std::string out;
  char buf[256];
  actives_.ForEach([&](TxnId id, const std::unique_ptr<Active>& a) {
    std::snprintf(buf, sizeof(buf),
                  "txn %llu kind=%d attempt=%u%s%s stalled=%zu:\n",
                  static_cast<unsigned long long>(id),
                  static_cast<int>(a->plan.txn.kind), a->plan.txn.attempt(),
                  a->plan.txn.retry_of() != kInvalidTxn ? " retry" : "",
                  a->frozen ? " FROZEN" : "", a->stalled.size());
    out += buf;
    for (const NodeState& st : a->nodes) {
      const NodeId node = st.node;
      std::snprintf(buf, sizeof(buf),
                    "  node %d granted=%d master=%d locks=%u owned=%u\n",
                    node, st.granted, st.is_master, st.locks,
                    st.owned_end - st.owned_begin);
      out += buf;
      if (st.is_master) {
        std::snprintf(buf, sizeof(buf),
                      "  master %d pending=%d waits=%d started=%d\n", node,
                      st.pending_messages, st.presence_waits, st.started);
        out += buf;
      }
      for (uint32_t i : OwnedOf(*a, st)) {
        const Access& acc = a->plan.accesses[i];
        if ((*nodes_)[node]->store().Contains(acc.key)) continue;
        const NodeId actually = Records().location(acc.key);
        std::snprintf(buf, sizeof(buf),
                      "    MISSING key=%llu (w=%d ship=%d new=%d) actually at "
                      "node %d\n",
                      static_cast<unsigned long long>(acc.key), acc.is_write,
                      acc.ship_to_master, acc.new_owner, actually);
        out += buf;
      }
    }
  });
  for (size_t n = 0; n < presence_.num_nodes(); ++n) {
    const auto node = static_cast<NodeId>(n);
    for (Key key : presence_.Keys(node)) {
      std::snprintf(buf, sizeof(buf),
                    "presence wait: node=%d key=%llu (%zu)\n", node,
                    static_cast<unsigned long long>(key),
                    presence_.Count(node, key));
      out += buf;
    }
  }
  const storage::RecordTable& records = Records();
  for (Key key = 0; key < records.num_keys(); ++key) {
    const NodeId to = records.in_flight_to(key);
    if (to == kInvalidNode) continue;
    const auto s = suppressed_.find(key);
    if (s == suppressed_.end()) {
      std::snprintf(buf, sizeof(buf), "in flight: key=%llu -> node %d\n",
                    static_cast<unsigned long long>(key), to);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "in flight: key=%llu node %d -> node %d (txn %llu) "
                    "SUPPRESSED\n",
                    static_cast<unsigned long long>(key), s->second.from, to,
                    static_cast<unsigned long long>(s->second.carrier));
    }
    out += buf;
  }
  for (const auto& [key, node] : displaced_) {
    std::snprintf(buf, sizeof(buf),
                  "displaced: key=%llu physically at node %d\n",
                  static_cast<unsigned long long>(key), node);
    out += buf;
  }
  return out;
}

void TxnExecutor::WaitPresence(NodeId node, std::span<const Key> keys,
                               sim::Callback ready) {
  const storage::RecordStore& store = NodeAt(node).store();
  presence_.Wait(
      node, keys, [&store](Key k) { return !store.Contains(k); },
      std::move(ready));
}

void TxnExecutor::Freeze(Active& a) {
  // The frozen flag and the sorted watchdog index are shared across
  // nodes; lane-side freezes (the dead-node gate firing on the dead node's
  // lane) land at the epoch barrier, same virtual time. Captured by id:
  // the transaction may complete at the same barrier.
  const TxnId id = a.plan.txn.id;
  sim_->Defer([this, id]() {
    Active* a = Live(id);
    if (a == nullptr) return;
    a->frozen = true;
    frozen_ids_.insert(id);
  });
}

void TxnExecutor::FreezeStalled(Active& a, NodeId node, Phase phase) {
  // Same barrier discipline as Freeze(); additionally records the stopped
  // step so ResumeStalled can re-run it.
  const TxnId id = a.plan.txn.id;
  sim_->Defer([this, id, node, phase]() {
    Active* live = Live(id);
    if (live == nullptr) return;
    live->frozen = true;
    frozen_ids_.insert(id);
    live->stalled.push_back(Stall{node, phase});
  });
}

void TxnExecutor::ResumeStalled(NodeId node) {
  // Sorted snapshot: resume order is total regardless of hash salt, and
  // a step may complete its transaction (erasing it from the live index)
  // while later ids still wait their turn.
  const std::vector<TxnId> frozen(frozen_ids_.begin(), frozen_ids_.end());
  for (TxnId id : frozen) {
    Active* live = Live(id);
    if (live == nullptr) {
      frozen_ids_.erase(id);
      continue;
    }
    Active& a = *live;
    // Only acknowledged transactions resume. Their writes are already
    // committed in serial order — what stalled is pure record shipment,
    // which lands correctly at any later time (destinations presence-wait
    // on the record itself). An un-acked frozen transaction must NOT be
    // resurrected: while it was frozen, later transactions may have
    // overtaken its serial position through the re-routed ownership map,
    // so replaying its writes now would fold them in the wrong order.
    // The watchdog UNDO-aborts those (recorded, so replay flips them to
    // §4.2 user-aborts at the right log position).
    if (!a.acked) continue;
    // This node's steps move out, in freeze order: re-running one may
    // freeze the transaction again, appending to `stalled`.
    const auto mine = std::stable_partition(
        a.stalled.begin(), a.stalled.end(),
        [node](const Stall& st) { return st.node != node; });
    if (mine == a.stalled.end()) continue;
    const std::vector<Stall> steps(mine, a.stalled.end());
    a.stalled.erase(mine, a.stalled.end());
    if (a.stalled.empty()) {
      // No other dead node holds this transaction; it either completes
      // now or freezes again if a step hits another down node.
      a.frozen = false;
      frozen_ids_.erase(id);
    }
    HERMES_TRACE(tracer_, obs::EventKind::kTxnResume, node, id, kNoKey,
                 steps.size());
    for (const Stall& st : steps) {
      if (Active* live_now = Live(id)) Run(*live_now, node, st.phase);
    }
  }
}

void TxnExecutor::StartReplicaInstall(Key key, NodeId source, NodeId holder,
                                      TxnId txn) {
  // Locate the primary: at the routed source (the lease table's owner,
  // always a node), else follow an in-flight migration to its destination,
  // else wherever the table locates it (displaced during an outage). The
  // copy is a snapshot — the primary is never extracted, so record
  // singularity is untouched. If the record never materializes at `src`
  // (crash mid-flight), the waiter idles harmlessly: the membership epoch
  // change lapses the lease and wakes every read blocked on the copy.
  assert(source != kInvalidNode);
  NodeId from = source;
  if (!NodeAt(from).store().Contains(key)) {
    const NodeId to = Records().in_flight_to(key);
    const NodeId at = to != kInvalidNode ? to : Records().location(key);
    if (at != kInvalidNode) from = at;
  }
  if (from == kInvalidNode) return;
  const NodeId src = from;
  WaitPresence(src, std::span<const Key>(&key, 1),
               [this, key, src, holder, txn]() {
    // A presence waiter runs in the delivery event that landed its key,
    // and no waiter extracts a record in that event, so the primary is
    // still here. Losing it would wedge every read waiting on the copy.
    // The assert fires only in builds with asserts live (Debug, the ubsan
    // preset); a Release build that reached this case would dereference
    // null, so a run hunting for it must use such a build.
    const storage::Record* rec = NodeAt(src).store().Get(key);
    assert(rec != nullptr && "the primary left before its replica install");
    const storage::Record snapshot = *rec;
    NodeAt(src).workers().Submit(costs_->storage_op_us, [] {});
    if (src == holder) {
      // The primary is itself a holder (a lease covers every candidate so
      // the key stays locally readable wherever the primary later
      // migrates): its copy snapshots the local record, no network hop.
      lease_mgr_->ApplyCopy(holder, key, snapshot, /*install=*/true, txn);
      return;
    }
    // Field by field, like CommitMaster's refresh, to fit inline.
    auto install = [this, key, txn, value = snapshot.value,
                    writer = snapshot.last_writer, version = snapshot.version,
                    holder]() {
      if (NodeDead(holder)) return;
      NodeAt(holder).workers().Submit(costs_->msg_processing_us, [] {});
      lease_mgr_->ApplyCopy(holder, key,
                            storage::Record{value, writer, version},
                            /*install=*/true, txn);
    };
    static_assert(sizeof(install) <= sim::Callback::kInlineBytes);
    net_->Send(src, holder, costs_->record_bytes, TrafficClass::kBulk,
               std::move(install));
  });
}

void TxnExecutor::DeliverRecord(NodeId node, Key key, NodeId from,
                                TxnId carrier) {
  if (NodeDead(node)) {
    // The destination died while the record was on the wire. Suppress the
    // delivery (the record stays in flight in the table, so singularity
    // holds) and arm a deterministic reclaim: after kReclaimTimeoutUs
    // the sender lands the record back and notes the divergence from the
    // ownership map; if the node rejoins first, OnNodeUp flushes it.
    // Suppression mutates shared state (the suppressed set, the frozen
    // index), so it rides the barrier when the delivery ran lane-side.
    sim_->Defer([this, node, key, from, carrier]() {
      assert(Records().in_flight_to(key) == node &&
             !suppressed_.contains(key) &&
             "one message carries a shipped key, so it is suppressed once");
      suppressed_[key] = Suppressed{from, node, carrier};
      HERMES_TRACE(tracer_, obs::EventKind::kRecordSuppress, node, carrier,
                   key);
      // Freeze the carrying transaction: its shipment will never complete.
      if (Active* a = Live(carrier)) Freeze(*a);
      sim_->Schedule(kReclaimTimeoutUs,
                     [this, key, carrier]() { ReclaimSuppressed(key, carrier); });
    });
    return;
  }
  HERMES_TRACE(tracer_, obs::EventKind::kRecordDeliver, node, carrier, key);
  NodeAt(node).store().Land(key);
  for (sim::Callback& w : presence_.Take(node, key)) w();
}

void TxnExecutor::ReclaimSuppressed(Key key, TxnId carrier) {
  auto sit = suppressed_.find(key);
  if (sit == suppressed_.end()) return;  // flushed at rejoin
  const Suppressed e = sit->second;
  if (e.carrier != carrier) return;  // re-shipped since
  if (!NodeDead(e.to)) return;  // rejoined; OnNodeUp owns the flush
  if (NodeDead(e.from)) {
    // Overlapping fault windows: the source is down too (a detector
    // suspect while the destination's crash outage is still open).
    // Landing the record there now would only hit DeliverRecord's
    // suppress branch again. Keep it suppressed and retry one timeout
    // later; whichever side comes back first resolves it (OnNodeUp
    // flushes on the destination's rejoin).
    sim_->Schedule(kReclaimTimeoutUs,
                   [this, key, carrier]() { ReclaimSuppressed(key, carrier); });
    return;
  }
  suppressed_.erase(sit);
  displaced_[key] = e.from;
  if (ledger_ != nullptr) ledger_->RecordReclaim();
  HERMES_TRACE(tracer_, obs::EventKind::kRecordReclaim, e.from, carrier, key);
  DeliverRecord(e.from, key, e.from, kInvalidTxn);
}

void TxnExecutor::EnableDegraded(const MembershipView* membership,
                                 DegradedLedger* ledger,
                                 DegradedAbortHandler on_abort) {
  membership_ = membership;
  ledger_ = ledger;
  degraded_abort_ = std::move(on_abort);
}

void TxnExecutor::OnNodeDown(NodeId node) {
  assert(membership_ != nullptr && !membership_->alive(node) &&
         "cluster must MarkDown before notifying the executor");
  (void)node;
  // Transactions freeze lazily as their events hit the dead node; the
  // sweep below reclassifies them. One chain per outage window.
  if (watchdog_armed_) return;
  watchdog_armed_ = true;
  sim_->Schedule(kWatchdogDeadlineUs, [this]() { WatchdogSweep(); });
}

void TxnExecutor::OnNodeUp(NodeId node) {
  // Flush records that were suppressed mid-flight toward the node: the
  // rebuilt (detached-in-place) store plus these deliveries equals the
  // state a fault-free replay produces. Reclaim timers still pending
  // find their entry gone and no-op. std::map keeps the order total.
  std::vector<Key> flush;
  for (const auto& [key, e] : suppressed_) {
    if (e.to == node) flush.push_back(key);
  }
  for (Key k : flush) {
    auto it = suppressed_.find(k);
    assert(it != suppressed_.end());
    const NodeId from = it->second.from;
    suppressed_.erase(it);
    DeliverRecord(node, k, from, kInvalidTxn);
  }
  // Then re-run the steps the dead-node gate stalled there. A stalled
  // participant may carry a planned migration whose ownership change is
  // already visible to routing — until the resumed send phase ships the
  // record, every toucher routed to the new owner presence-waits on it.
  // The watchdog cannot clean these up: the master may have committed
  // and acknowledged without waiting on a pure-migration participant,
  // and acknowledged transactions are never UNDO-aborted.
  ResumeStalled(node);
}

void TxnExecutor::WatchdogSweep() {
  // frozen_ids_ is a sorted index maintained by Freeze(), so the abort
  // order is total.
  const std::vector<TxnId> doomed(frozen_ids_.begin(), frozen_ids_.end());
  for (TxnId id : doomed) {
    Active* a = Live(id);
    if (a != nullptr && !a->acked) AbortActive(*a);
  }
  if (membership_ != nullptr && membership_->any_down()) {
    sim_->Schedule(kWatchdogPeriodUs, [this]() { WatchdogSweep(); });
  } else {
    // One final sweep always runs after rejoin (this one), catching
    // transactions frozen between the last in-outage sweep and MarkUp.
    watchdog_armed_ = false;
  }
}

void TxnExecutor::AbortActive(Active& a) {
  const TxnId id = a.plan.txn.id;
  assert(!a.acked && "watchdog must not abort an acknowledged transaction");
  // No-stall degraded mode is scoped to single-master plans without
  // return shipments (the Hermes router); multi-master baselines use the
  // stalling crash model instead.
  assert(a.plan.on_commit_returns.empty() &&
         "watchdog abort with return shipments is out of scope");
  HERMES_TRACE(tracer_, obs::EventKind::kWatchdogAbort, a.plan.masters[0], id,
               a.plan.accesses.empty() ? kNoKey : a.plan.accesses[0].key,
               a.plan.accesses.size());
  // Classify every planned migration that did not complete. The router
  // updated the ownership map at routing time, so a record that never
  // moved now sits where ownership no longer points.
  std::vector<Key> stranded;
  for (const Access& acc : a.plan.accesses) {
    if (acc.new_owner == kInvalidNode || acc.new_owner == acc.owner) continue;
    const Key k = acc.key;
    // Delivery (or reclaim) owns a record still in flight.
    if (Records().in_flight_to(k) != kInvalidNode) continue;
    if (NodeAt(acc.new_owner).store().Contains(k)) continue;  // landed
    if (!NodeAt(acc.owner).store().Contains(k)) continue;     // moved since
    const bool src_alive = !NodeDead(acc.owner);
    const bool dst_alive = !NodeDead(acc.new_owner);
    if (src_alive && dst_alive) {
      // Both ends alive (the transaction froze elsewhere): the move MUST
      // happen now — later transactions are already routed to new_owner.
      ReshipRecord(k, acc.owner, acc.new_owner);
    } else if (!src_alive) {
      // Record locked inside the dead store: stranded. Touchers are
      // blocked by the cluster until rejoin reconciliation reships it.
      stranded.push_back(k);
      displaced_[k] = acc.owner;
    } else {
      // Destination dead, source alive: ownership points at the dead
      // node, so touchers are blocked anyway; note the divergence for
      // rejoin reconciliation.
      displaced_[k] = acc.owner;
    }
  }
  SortUnique(stranded);
  // A stranded key breaks the record's custody chain: the rejoin reship
  // jumps the record to its final ownership position, so every already-
  // dispatched transaction expecting it at an intermediate live waypoint
  // would wait forever — and, worse, could commit out of serial order if
  // a later migration happens to revisit its node. Freeze those touchers
  // (in id order) so the sweep UNDO-aborts and records them; replay flips
  // them to §4.2 user-aborts at the same log position, where their writes
  // fold and roll back in serial order. Touchers at dead waypoints are
  // already frozen by the dead-node gate; acknowledged touchers already
  // committed before the strand (the record cannot be both stranded and
  // present at their master).
  if (!stranded.empty()) {
    actives_.ForEach([&](TxnId oid, const std::unique_ptr<Active>& other) {
      if (oid == id || other->acked || other->frozen) return;
      for (const Access& oacc : other->plan.accesses) {
        if (std::binary_search(stranded.begin(), stranded.end(), oacc.key)) {
          Freeze(*other);
          return;
        }
      }
    });
  }
  // Release locks (granted or queued) at every involved node; grants are
  // processed only after the transaction is gone.
  std::vector<std::pair<NodeId, std::vector<TxnId>>> grants;
  for (const NodeState& state : a.nodes) {
    std::vector<TxnId> g;
    NodeAt(state.node).locks().Release(id, &g);
    if (!g.empty()) grants.emplace_back(state.node, std::move(g));
  }
  ++aborted_;
  if (ledger_ != nullptr) ledger_->RecordWatchdogAbort();
  TxnRequest txn = std::move(a.plan.txn);
  CommitCallback cb = std::move(a.on_commit);
  frozen_ids_.erase(id);
  RetireActive(id);  // `a` is a parked shell from here on
  for (auto& [node, g] : grants) ProcessGrants(node, g);
  if (degraded_abort_) {
    degraded_abort_(std::move(txn), std::move(cb), std::move(stranded));
  }
}

void TxnExecutor::ReshipRecord(Key key, NodeId from, NodeId to) {
  NodeAt(from).store().Ship(key, to);
  HERMES_TRACE(tracer_, obs::EventKind::kRecordReship, from, kInvalidTxn, key,
               static_cast<uint32_t>(to));
  if (ledger_ != nullptr) ledger_->RecordReship();
  NodeAt(from).workers().Submit(costs_->storage_op_us, [] {});
  net_->Send(from, to, costs_->record_bytes, TrafficClass::kBulk,
             [this, key, from, to]() {
               if (!NodeDead(to)) {
                 NodeAt(to).workers().Submit(
                     costs_->storage_op_us + costs_->msg_processing_us, [] {});
               }
               DeliverRecord(to, key, from, kInvalidTxn);
             });
}

}  // namespace hermes::engine
