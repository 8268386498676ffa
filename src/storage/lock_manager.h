#ifndef HERMES_STORAGE_LOCK_MANAGER_H_
#define HERMES_STORAGE_LOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "common/vector_pool.h"

namespace hermes::storage {

/// One lock to take: shared for reads, exclusive for writes/migrations.
struct LockRequest {
  Key key;
  bool exclusive;
};

/// Per-node lock table implementing Calvin's conservative ordered locking:
/// every transaction enqueues all its local lock requests at once, in the
/// global total order, before executing. Grants are strictly FIFO per key
/// (a shared block is granted as the longest all-shared prefix), which
/// rules out both deadlock and non-deterministic aborts — and produces the
/// clogging behaviour the paper describes when a lock holder stalls on the
/// network.
class LockManager {
 public:
  LockManager() = default;

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

  /// Number of transactions known to this table (granted or waiting).
  size_t num_txns() const { return txns_.size(); }

  /// Number of keys with at least one queued request (diagnostics).
  size_t num_active_keys() const { return queues_.size(); }

 private:
  struct Waiter {
    TxnId txn;
    bool exclusive;
    bool granted;
  };
  struct TxnState {
    std::vector<Key> keys;
    size_t pending = 0;
  };

  /// Grants the longest grantable prefix of `queue`; appends transactions
  /// that became fully granted to `*newly_granted`.
  void GrantFront(std::vector<Waiter>& queue,
                  std::vector<TxnId>* newly_granted);

  void NoteGranted(TxnId txn, std::vector<TxnId>* newly_granted);

  /// Per-key FIFO of requests. A FlatMap insert or erase invalidates
  /// references into either table, so every method re-looks-up after one.
  FlatMap<Key, std::vector<Waiter>> queues_;
  FlatMap<TxnId, TxnState> txns_;
  /// Emptied queues and key lists, reused so steady-state locking does
  /// not allocate.
  VectorPool<Waiter> spare_queues_;
  VectorPool<Key> spare_keys_;
};

}  // namespace hermes::storage

#endif  // HERMES_STORAGE_LOCK_MANAGER_H_
