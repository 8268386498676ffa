#ifndef HERMES_STORAGE_LOCK_MANAGER_H_
#define HERMES_STORAGE_LOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/id_ring.h"
#include "common/inline_vec.h"
#include "common/types.h"

namespace hermes::storage {

/// One lock to take: shared for reads, exclusive for writes/migrations.
struct LockRequest {
  Key key;
  bool exclusive;
};

/// Cluster-wide lock queues indexed by key. Keys are dense (the cluster
/// loads exactly 0..num_records-1), so the table keeps one chain head per
/// key and the queues themselves in a slab; each node's LockManager is a
/// view that owns the queues tagged with its node id.
///
/// A key's chain holds one queue per node that currently has requests on
/// it. Almost every chain is one queue long: a key is normally locked only
/// at its owner. The exception is a migration, which locks the key at its
/// source and takes an exclusive fence lock at its destination, so the
/// same key is queued on two nodes at once.
///
/// The table is cluster-wide rather than per node because a per-node dense
/// index would cost 4 B per key per node, and every node touches most of
/// the key space over a run; one shared head array costs 4 B per key in
/// total. A queue freed by its last release keeps its waiter capacity on a
/// LIFO free list, so steady-state locking does not allocate.
class LockTable {
 public:
  /// Pre-sizes the chain heads for keys [0, num_keys). Never shrinks. Only
  /// an optimisation: a key past the end grows the table on first use.
  void Reserve(size_t num_keys) {
    if (num_keys > head_.size()) head_.resize(num_keys, kNone);
  }

 private:
  friend class LockManager;

  static constexpr uint32_t kNone = UINT32_MAX;

  /// One request in a queue. `txn_slot` indexes the owning LockManager's
  /// transaction slab (a queue belongs to exactly one node's view).
  struct Waiter {
    uint32_t txn_slot;
    bool exclusive;
    bool granted;
  };
  /// Per-key, per-node FIFO of requests. `next` links the key's chain
  /// while the queue is live and the free list once it is freed.
  struct Queue {
    Key key = 0;
    NodeId node = kInvalidNode;
    uint32_t next = kNone;
    /// Inline up to two waiters: most keys are locked by one transaction
    /// at a time.
    InlineVec<Waiter> waiters;
  };

  /// Slot of `node`'s queue for `key`, linking a new empty one into the
  /// key's chain if there is none. May grow the slab: any Queue reference
  /// taken before the call is invalidated.
  uint32_t FindOrAdd(Key key, NodeId node);

  /// Unlinks the emptied queue `q` from its key's chain and frees it.
  void Unlink(uint32_t q);

  /// First queue of each key's chain, or kNone.
  std::vector<uint32_t> head_;
  std::vector<Queue> slab_;
  /// Head of the free list threaded through Queue::next.
  uint32_t free_ = kNone;
};

/// One node's view of a LockTable, implementing Calvin's conservative
/// ordered locking: every transaction enqueues all its local lock requests
/// at once, in the global total order, before executing. Grants are
/// strictly FIFO per key (a shared block is granted as the longest
/// all-shared prefix), which rules out both deadlock and non-deterministic
/// aborts — and produces the clogging behaviour the paper describes when a
/// lock holder stalls on the network.
///
/// Each transaction's state sits in a slab slot holding handles to its
/// queues in request order, so Release walks its queues without a key
/// lookup and a waiter reaches its transaction through the slot. The
/// transaction index (TxnId -> slot) is an IdRing, read only on entry to
/// Acquire, Release and HoldsAll: a subtraction and a mask, no hash.
class LockManager {
 public:
  /// A standalone lock manager over a private table (unit tests, offline
  /// replay).
  LockManager();
  /// Node `node`'s view of a shared table.
  LockManager(LockTable* table, NodeId node) : table_(table), node_(node) {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Enqueues every request of `txn` on this node. Must be called at most
  /// once per transaction per node, in total-order sequence. Transactions
  /// whose final local lock was granted by this call (possibly `txn`
  /// itself, possibly none) are appended to `*newly_granted`.
  ///
  /// Duplicate keys within `reqs` are the caller's bug; the strongest mode
  /// must be pre-merged (a read-modify-write key is one exclusive lock).
  void Acquire(TxnId txn, std::span<const LockRequest> reqs,
               std::vector<TxnId>* newly_granted);

  /// Releases every lock `txn` holds or waits for on this node, granting
  /// successors; transactions that became fully granted are appended to
  /// `*newly_granted`.
  void Release(TxnId txn, std::vector<TxnId>* newly_granted);

  /// True once all of `txn`'s local locks are granted (false for unknown
  /// transactions).
  bool HoldsAll(TxnId txn) const;

  /// Number of transactions known to this node (granted or waiting).
  size_t num_txns() const { return index_.size(); }

  /// Number of keys with at least one request queued on this node
  /// (diagnostics).
  size_t num_active_keys() const { return active_keys_; }

 private:
  using Waiter = LockTable::Waiter;

  struct TxnState {
    TxnId id = kInvalidTxn;
    size_t pending = 0;
    /// Handles of this transaction's queues, in request order (inline up
    /// to four). A freed slot keeps the capacity.
    InlineVec<uint32_t> queues;
  };

  /// Grants the longest grantable prefix of `queue`; appends transactions
  /// that became fully granted to `*newly_granted`.
  void GrantFront(InlineVec<Waiter>& queue,
                  std::vector<TxnId>* newly_granted);

  void NoteGranted(uint32_t slot, std::vector<TxnId>* newly_granted);

  /// True iff the granted waiters of `queue` are exactly its grantable
  /// prefix (Debug-build check after every queue change): Acquire's O(1)
  /// shared grant looks only at the waiter ahead, which relies on it.
  static bool GrantedPrefix(const InlineVec<Waiter>& queue);

  /// Set only for a standalone lock manager.
  std::unique_ptr<LockTable> owned_;
  LockTable* table_;
  NodeId node_;
  /// Slot + 1 of each known transaction (0 is the ring's empty entry).
  IdRing<uint32_t> index_;
  std::vector<TxnState> txns_;
  std::vector<uint32_t> free_txns_;
  size_t active_keys_ = 0;
};

}  // namespace hermes::storage

#endif  // HERMES_STORAGE_LOCK_MANAGER_H_
