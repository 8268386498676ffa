// Property tests for the conservative ordered lock manager: randomized
// acquire/release schedules checked against the protocol's invariants,
// and several node views of one shared LockTable checked call by call
// against a per-node reference implementation.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/lock_manager.h"

namespace hermes::storage {
namespace {

struct TxnSpec {
  std::vector<LockRequest> reqs;
  bool granted = false;
  bool released = false;
};

class LockManagerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockManagerPropertyTest, RandomScheduleUpholdsInvariants) {
  Rng rng(GetParam());
  LockManager lm;
  constexpr int kTxns = 400;
  constexpr int kKeys = 40;

  std::vector<TxnSpec> txns(kTxns);
  std::vector<TxnId> grant_log;  // order of full grants
  // Per-key order of exclusive grants must follow acquire order.
  std::map<Key, std::vector<TxnId>> acquire_order;

  auto note_granted = [&](const std::vector<TxnId>& granted) {
    for (TxnId t : granted) {
      ASSERT_FALSE(txns[t].granted) << "double grant of txn " << t;
      txns[t].granted = true;
      grant_log.push_back(t);
      // Invariant: exclusivity. Collect currently granted txns and check
      // no key has two exclusive holders or an exclusive + shared mix.
      std::map<Key, int> exclusive_holders;
      std::map<Key, int> shared_holders;
      for (TxnId u = 0; u < kTxns; ++u) {
        if (!txns[u].granted || txns[u].released) continue;
        for (const LockRequest& r : txns[u].reqs) {
          (r.exclusive ? exclusive_holders[r.key] : shared_holders[r.key])++;
        }
      }
      for (const auto& [key, count] : exclusive_holders) {
        EXPECT_LE(count, 1) << "two exclusive holders on key " << key;
        if (count == 1) {
          EXPECT_EQ(shared_holders[key], 0)
              << "exclusive + shared holders on key " << key;
        }
      }
    }
  };

  TxnId next = 0;
  std::vector<TxnId> live;
  std::vector<TxnId> granted_buf;
  for (int step = 0; step < 3 * kTxns; ++step) {
    const bool do_acquire =
        next < kTxns && (live.empty() || rng.NextBounded(100) < 55);
    granted_buf.clear();
    if (do_acquire) {
      TxnSpec& spec = txns[next];
      std::set<Key> keys;
      const int nkeys = 1 + static_cast<int>(rng.NextBounded(5));
      while (static_cast<int>(keys.size()) < nkeys) {
        keys.insert(rng.NextBounded(kKeys));
      }
      for (Key k : keys) {
        spec.reqs.push_back({k, rng.NextBounded(2) == 0});
        acquire_order[k].push_back(next);
      }
      lm.Acquire(next, spec.reqs, &granted_buf);
      live.push_back(next);
      ++next;
    } else if (!live.empty()) {
      // Release a random live txn (granted or still waiting — both legal).
      const size_t pick = rng.NextBounded(live.size());
      const TxnId victim = live[pick];
      live.erase(live.begin() + pick);
      txns[victim].released = true;
      lm.Release(victim, &granted_buf);
    }
    note_granted(granted_buf);
  }
  // Drain: release everything still live; all remaining non-released txns
  // must eventually be granted before their release (liveness).
  while (!live.empty()) {
    const TxnId victim = live.front();
    live.erase(live.begin());
    granted_buf.clear();
    txns[victim].released = true;
    lm.Release(victim, &granted_buf);
    note_granted(granted_buf);
  }
  EXPECT_EQ(lm.num_txns(), 0u);
  EXPECT_EQ(lm.num_active_keys(), 0u);

  // Invariant: per key, exclusive grants happen in acquire order relative
  // to each other (FIFO; shared grants may batch).
  std::map<Key, std::vector<TxnId>> exclusive_grants;
  for (TxnId t : grant_log) {
    for (const LockRequest& r : txns[t].reqs) {
      if (r.exclusive) exclusive_grants[r.key].push_back(t);
    }
  }
  for (const auto& [key, grants] : exclusive_grants) {
    // Filter the acquire order to granted exclusive txns of this key.
    std::vector<TxnId> expected;
    for (TxnId t : acquire_order[key]) {
      for (const LockRequest& r : txns[t].reqs) {
        if (r.key == key && r.exclusive && txns[t].granted) {
          expected.push_back(t);
        }
      }
    }
    EXPECT_EQ(grants, expected) << "exclusive grant order on key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockManagerPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// The per-node algorithm the key-indexed table must reproduce exactly: one
// ordered map of FIFO queues per node, transactions found by id.
class ReferenceLockManager {
 public:
  void Acquire(TxnId txn, const std::vector<LockRequest>& reqs,
               std::vector<TxnId>* newly_granted) {
    TxnState& state = txns_[txn];
    state.pending = reqs.size();
    if (reqs.empty()) {
      newly_granted->push_back(txn);
      return;
    }
    for (const LockRequest& req : reqs) {
      state.keys.push_back(req.key);
      std::vector<Waiter>& queue = queues_[req.key];
      queue.push_back(Waiter{txn, req.exclusive, false});
      bool grant = queue.size() == 1;
      if (!grant && !req.exclusive) {
        grant = std::all_of(queue.begin(), queue.end() - 1,
                            [](const Waiter& w) {
                              return !w.exclusive && w.granted;
                            });
      }
      if (grant) {
        queue.back().granted = true;
        if (--state.pending == 0) newly_granted->push_back(txn);
      }
    }
  }

  void Release(TxnId txn, std::vector<TxnId>* newly_granted) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) return;
    const std::vector<Key> keys = std::move(it->second.keys);
    txns_.erase(it);
    for (Key key : keys) {
      std::vector<Waiter>& queue = queues_.at(key);
      queue.erase(std::find_if(queue.begin(), queue.end(),
                               [&](const Waiter& w) { return w.txn == txn; }));
      if (queue.empty()) {
        queues_.erase(key);
        continue;
      }
      auto grant = [&](Waiter& w) {
        if (w.granted) return;
        w.granted = true;
        if (--txns_.at(w.txn).pending == 0) newly_granted->push_back(w.txn);
      };
      if (queue.front().exclusive) {
        grant(queue.front());
        continue;
      }
      for (Waiter& w : queue) {
        if (w.exclusive) break;
        grant(w);
      }
    }
  }

  bool HoldsAll(TxnId txn) const {
    auto it = txns_.find(txn);
    return it != txns_.end() && it->second.pending == 0;
  }
  size_t num_txns() const { return txns_.size(); }
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
  std::map<Key, std::vector<Waiter>> queues_;
  std::map<TxnId, TxnState> txns_;
};

class SharedLockTableDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedLockTableDifferentialTest, MatchesPerNodeReferenceCallByCall) {
  Rng rng(GetParam());
  constexpr NodeId kNodes = 3;
  constexpr Key kKeys = 24;
  constexpr size_t kMaxLive = 24;
  constexpr int kSteps = 6000;

  // Reserved below the key space, so the heads also grow mid-run.
  LockTable table;
  table.Reserve(kKeys / 2);
  std::vector<std::unique_ptr<LockManager>> nodes;
  std::vector<ReferenceLockManager> refs(kNodes);
  for (NodeId n = 0; n < kNodes; ++n) {
    nodes.push_back(std::make_unique<LockManager>(&table, n));
  }

  std::vector<std::pair<TxnId, NodeId>> live;  // (txn, node) not released
  std::vector<TxnId> got;
  std::vector<TxnId> want;
  auto check = [&](NodeId n, const char* op, TxnId txn) {
    ASSERT_EQ(got, want) << op << " txn " << txn << " node " << n;
    for (NodeId m = 0; m < kNodes; ++m) {
      ASSERT_EQ(nodes[m]->num_txns(), refs[m].num_txns()) << "node " << m;
      ASSERT_EQ(nodes[m]->num_active_keys(), refs[m].num_active_keys())
          << "node " << m;
    }
    ASSERT_EQ(nodes[n]->HoldsAll(txn), refs[n].HoldsAll(txn))
        << op << " txn " << txn << " node " << n;
    for (const auto& [t, m] : live) {
      ASSERT_EQ(nodes[m]->HoldsAll(t), refs[m].HoldsAll(t))
          << "txn " << t << " node " << m;
    }
  };

  // Ids count up from `next`; now and then a parked transaction re-enters
  // with an id from `parked`, below every id issued so far, so each node's
  // transaction index grows below its base.
  TxnId next = 1000;
  TxnId parked = 999;
  for (int step = 0; step < kSteps; ++step) {
    const bool do_acquire =
        live.empty() ||
        (live.size() < kMaxLive && rng.NextBounded(100) < 50);
    if (do_acquire) {
      // One transaction on 1-3 nodes; with a small key space, the same key
      // is often queued at two or three nodes at once (the migration
      // fence case).
      const TxnId txn = rng.NextBounded(40) == 0 ? parked-- : next++;
      const int fanout = 1 + static_cast<int>(rng.NextBounded(kNodes));
      std::set<NodeId> at;
      while (static_cast<int>(at.size()) < fanout) {
        at.insert(static_cast<NodeId>(rng.NextBounded(kNodes)));
      }
      for (NodeId n : at) {
        std::vector<LockRequest> reqs;
        if (rng.NextBounded(50) != 0) {
          std::set<Key> keys;
          const int nkeys = 1 + static_cast<int>(rng.NextBounded(4));
          while (static_cast<int>(keys.size()) < nkeys) {
            keys.insert(rng.NextBounded(kKeys));
          }
          for (Key k : keys) reqs.push_back({k, rng.NextBounded(2) == 0});
          // Requests arrive in any key order; grants follow it.
          for (size_t i = reqs.size(); i > 1; --i) {
            std::swap(reqs[i - 1], reqs[rng.NextBounded(i)]);
          }
        }
        got.clear();
        want.clear();
        nodes[n]->Acquire(txn, reqs, &got);
        refs[n].Acquire(txn, reqs, &want);
        check(n, "Acquire", txn);
        live.emplace_back(txn, n);
      }
    } else if (rng.NextBounded(20) == 0) {
      // Release of an id no node knows: one not issued yet, or one below
      // every issued id. Nothing changes.
      const TxnId txn = rng.NextBounded(2) == 0 ? next : parked;
      const auto n = static_cast<NodeId>(rng.NextBounded(kNodes));
      got.clear();
      want.clear();
      nodes[n]->Release(txn, &got);
      refs[n].Release(txn, &want);
      check(n, "Release of an unknown id", txn);
    } else {
      // Release at one node, granted or still waiting (a watchdog abort
      // releases waiters too).
      const size_t pick = rng.NextBounded(live.size());
      const auto [txn, n] = live[pick];
      live.erase(live.begin() + pick);
      got.clear();
      want.clear();
      nodes[n]->Release(txn, &got);
      refs[n].Release(txn, &want);
      check(n, "Release", txn);
    }
  }
  for (const auto& [txn, n] : live) {
    got.clear();
    want.clear();
    nodes[n]->Release(txn, &got);
    refs[n].Release(txn, &want);
    check(n, "Release", txn);
  }
  for (NodeId n = 0; n < kNodes; ++n) {
    EXPECT_EQ(nodes[n]->num_txns(), 0u);
    EXPECT_EQ(nodes[n]->num_active_keys(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedLockTableDifferentialTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace hermes::storage
