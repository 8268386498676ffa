#include "storage/lock_manager.h"

#include <cassert>

namespace hermes::storage {

void LockManager::Acquire(TxnId txn, std::span<const LockRequest> reqs,
                          std::vector<TxnId>* newly_granted) {
  assert(!txns_.contains(txn) && "Acquire called twice for one txn");
  // `state` stays valid: nothing below inserts into or erases from txns_.
  TxnState& state = txns_[txn];
  state.keys = spare_keys_.Take();
  state.keys.reserve(reqs.size());
  state.pending = reqs.size();
  if (reqs.empty()) {
    newly_granted->push_back(txn);
    return;
  }
  auto grant_own = [&] {
    if (--state.pending == 0) newly_granted->push_back(txn);
  };
  for (const LockRequest& req : reqs) {
    state.keys.push_back(req.key);
    auto [qit, fresh] = queues_.try_emplace(req.key);
    std::vector<Waiter>& queue = qit->second;
    if (fresh) queue = spare_queues_.Take();
    queue.push_back(Waiter{txn, req.exclusive, /*granted=*/false});
    if (queue.size() == 1) {
      // Only occupant: grant immediately.
      queue.front().granted = true;
      grant_own();
    } else if (!req.exclusive) {
      // Shared request joins the granted group iff everything ahead of it
      // is a granted shared lock.
      bool all_shared_granted = true;
      for (size_t i = 0; i + 1 < queue.size(); ++i) {
        if (queue[i].exclusive || !queue[i].granted) {
          all_shared_granted = false;
          break;
        }
      }
      if (all_shared_granted) {
        queue.back().granted = true;
        grant_own();
      }
    }
  }
}

void LockManager::Release(TxnId txn, std::vector<TxnId>* newly_granted) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;
  std::vector<Key> keys = std::move(it->second.keys);
  txns_.erase(it);
  for (Key key : keys) {
    auto qit = queues_.find(key);
    if (qit == queues_.end()) continue;
    std::vector<Waiter>& queue = qit->second;
    for (auto w = queue.begin(); w != queue.end(); ++w) {
      if (w->txn == txn) {
        queue.erase(w);
        break;
      }
    }
    if (queue.empty()) {
      spare_queues_.Give(std::move(queue));
      queues_.erase(qit);
    } else {
      GrantFront(queue, newly_granted);
    }
  }
  spare_keys_.Give(std::move(keys));
}

void LockManager::GrantFront(std::vector<Waiter>& queue,
                             std::vector<TxnId>* newly_granted) {
  if (queue.front().exclusive) {
    if (!queue.front().granted) {
      queue.front().granted = true;
      NoteGranted(queue.front().txn, newly_granted);
    }
    return;
  }
  // Grant the all-shared prefix.
  for (Waiter& w : queue) {
    if (w.exclusive) break;
    if (!w.granted) {
      w.granted = true;
      NoteGranted(w.txn, newly_granted);
    }
  }
}

void LockManager::NoteGranted(TxnId txn, std::vector<TxnId>* newly_granted) {
  TxnState& state = txns_.at(txn);
  if (state.pending > 0) --state.pending;
  if (state.pending == 0) newly_granted->push_back(txn);
}

bool LockManager::HoldsAll(TxnId txn) const {
  auto it = txns_.find(txn);
  return it != txns_.end() && it->second.pending == 0;
}

}  // namespace hermes::storage
