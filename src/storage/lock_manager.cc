#include "storage/lock_manager.h"

#include <cassert>

namespace hermes::storage {

uint32_t LockTable::FindOrAdd(Key key, NodeId node) {
  if (key >= head_.size()) Reserve(key + 1);
  for (uint32_t q = head_[key]; q != kNone; q = slab_[q].next) {
    if (slab_[q].node == node) return q;
  }
  uint32_t q = free_;
  if (q != kNone) {
    free_ = slab_[q].next;
  } else {
    q = static_cast<uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Queue& queue = slab_[q];
  queue.key = key;
  queue.node = node;
  queue.next = head_[key];
  head_[key] = q;
  return q;
}

void LockTable::Unlink(uint32_t q) {
  Queue& queue = slab_[q];
  assert(queue.waiters.empty());
  uint32_t* link = &head_[queue.key];
  while (*link != q) link = &slab_[*link].next;
  *link = queue.next;
  queue.next = free_;
  free_ = q;
}

LockManager::LockManager()
    : owned_(std::make_unique<LockTable>()), table_(owned_.get()), node_(0) {}

void LockManager::Acquire(TxnId txn, std::span<const LockRequest> reqs,
                          std::vector<TxnId>* newly_granted) {
  assert(index_.Find(txn) == nullptr && "Acquire called twice for one txn");
  uint32_t slot;
  if (!free_txns_.empty()) {
    slot = free_txns_.back();
    free_txns_.pop_back();
  } else {
    slot = static_cast<uint32_t>(txns_.size());
    txns_.emplace_back();
  }
  index_.Insert(txn, slot + 1);
  // `state` stays valid: nothing below grows txns_.
  TxnState& state = txns_[slot];
  state.id = txn;
  state.pending = reqs.size();
  state.queues.reserve(reqs.size());
  if (reqs.empty()) {
    newly_granted->push_back(txn);
    return;
  }
  auto grant_own = [&] {
    if (--state.pending == 0) newly_granted->push_back(txn);
  };
  for (const LockRequest& req : reqs) {
    const uint32_t q = table_->FindOrAdd(req.key, node_);
    state.queues.push_back(q);
    InlineVec<Waiter>& queue = table_->slab_[q].waiters;
    if (queue.empty()) ++active_keys_;
    queue.push_back(Waiter{slot, req.exclusive, /*granted=*/false});
    if (queue.size() == 1) {
      // Only occupant: grant immediately.
      queue.front().granted = true;
      grant_own();
    } else if (!req.exclusive) {
      // Shared request joins the granted group iff everything ahead of it
      // is a granted shared lock. The granted waiters are exactly the
      // grantable prefix, so that holds iff the waiter just ahead is a
      // granted shared lock.
      const Waiter& ahead = queue[queue.size() - 2];
      if (ahead.granted && !ahead.exclusive) {
        queue.back().granted = true;
        grant_own();
      }
    }
    assert(GrantedPrefix(queue));
  }
}

void LockManager::Release(TxnId txn, std::vector<TxnId>* newly_granted) {
  const uint32_t entry = index_.Take(txn);
  if (entry == 0) return;
  const uint32_t slot = entry - 1;
  // Grants below touch other slots only, and nothing grows txns_.
  InlineVec<uint32_t>& handles = txns_[slot].queues;
  for (uint32_t q : handles) {
    InlineVec<Waiter>& queue = table_->slab_[q].waiters;
    for (Waiter* w = queue.begin(); w != queue.end(); ++w) {
      if (w->txn_slot == slot) {
        queue.erase(w, w + 1);
        break;
      }
    }
    if (queue.empty()) {
      table_->Unlink(q);
      --active_keys_;
    } else {
      GrantFront(queue, newly_granted);
      assert(GrantedPrefix(queue));
    }
  }
  handles.clear();
  free_txns_.push_back(slot);
}

void LockManager::GrantFront(InlineVec<Waiter>& queue,
                             std::vector<TxnId>* newly_granted) {
  if (queue.front().exclusive) {
    if (!queue.front().granted) {
      queue.front().granted = true;
      NoteGranted(queue.front().txn_slot, newly_granted);
    }
    return;
  }
  // Grant the all-shared prefix.
  for (Waiter& w : queue) {
    if (w.exclusive) break;
    if (!w.granted) {
      w.granted = true;
      NoteGranted(w.txn_slot, newly_granted);
    }
  }
}

bool LockManager::GrantedPrefix(const InlineVec<Waiter>& queue) {
  // The grantable prefix: a lone exclusive front, or every shared waiter
  // ahead of the first exclusive one.
  size_t grantable = queue.empty() ? 0 : 1;
  if (!queue.empty() && !queue.front().exclusive) {
    while (grantable < queue.size() && !queue[grantable].exclusive) {
      ++grantable;
    }
  }
  for (size_t i = 0; i < queue.size(); ++i) {
    if (queue[i].granted != (i < grantable)) return false;
  }
  return true;
}

void LockManager::NoteGranted(uint32_t slot,
                              std::vector<TxnId>* newly_granted) {
  TxnState& state = txns_[slot];
  if (state.pending > 0) --state.pending;
  if (state.pending == 0) newly_granted->push_back(state.id);
}

bool LockManager::HoldsAll(TxnId txn) const {
  const uint32_t* entry = index_.Find(txn);
  return entry != nullptr && txns_[*entry - 1].pending == 0;
}

}  // namespace hermes::storage
