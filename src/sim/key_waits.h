#ifndef HERMES_SIM_KEY_WAITS_H_
#define HERMES_SIM_KEY_WAITS_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "sim/callback.h"

namespace hermes::sim {

/// "Run this once these keys are present at node n": the executor's record
/// presence waits and the lease manager's copy waits. Waiters park per node
/// and key in arrival order; whoever makes a key present at a node Takes
/// that key's waiters and runs them. Shard `n` is touched only by node n's
/// lane (or the exclusive slice), and shards grow on first use.
class KeyWaits {
 public:
  KeyWaits() = default;
  KeyWaits(const KeyWaits&) = delete;
  KeyWaits& operator=(const KeyWaits&) = delete;

  /// Runs `ready` once a waiter on each key of `keys` that `missing(key)`
  /// reports absent has been taken and run, or at once when none is. One
  /// missing key parks `ready` itself; several share a countdown. `keys`
  /// is read before returning and not kept.
  template <typename Missing>
  void Wait(NodeId node, std::span<const Key> keys, Missing missing,
            Callback ready) {
    size_t count = 0;
    Key only = 0;
    for (Key k : keys) {
      if (missing(k) && count++ == 0) only = k;
    }
    if (count == 0) {
      ready();
      return;
    }
    Shard& shard = ShardOf(node);
    if (count == 1) {
      shard[only].push_back(std::move(ready));
      return;
    }
    const uint32_t slot = countdowns_.Start(count, std::move(ready));
    for (Key k : keys) {
      if (missing(k)) shard[k].push_back(countdowns_.Waiter(slot));
    }
  }

  /// Removes and returns `node`'s waiters on `key` in arrival order (none
  /// for a node or key never waited on). Callers run them only after the
  /// removal: a woken waiter may wait again on the same shard.
  std::vector<Callback> Take(NodeId node, Key key) {
    if (static_cast<size_t>(node) >= shards_.size()) return {};
    Shard& shard = shards_[static_cast<size_t>(node)];
    const auto it = shard.find(key);
    if (it == shard.end()) return {};
    std::vector<Callback> waiters = std::move(it->second);
    shard.erase(it);
    return waiters;
  }

  /// Keys with waiters at `node`, sorted (diagnostics).
  std::vector<Key> Keys(NodeId node) const {
    if (static_cast<size_t>(node) >= shards_.size()) return {};
    return shards_[static_cast<size_t>(node)].SortedKeys();
  }

  /// Number of waiters on `key` at `node` (diagnostics).
  size_t Count(NodeId node, Key key) const {
    if (static_cast<size_t>(node) >= shards_.size()) return 0;
    const Shard& shard = shards_[static_cast<size_t>(node)];
    const auto it = shard.find(key);
    return it == shard.end() ? 0 : it->second.size();
  }

  /// Nodes that have had a waiter (diagnostics iterate [0, num_nodes())).
  size_t num_nodes() const { return shards_.size(); }

  /// Waits on several missing keys still counting down.
  size_t pending_countdowns() const { return countdowns_.size(); }

 private:
  using Shard = FlatMap<Key, std::vector<Callback>>;

  Shard& ShardOf(NodeId node) {
    const size_t idx = static_cast<size_t>(node);
    if (idx >= shards_.size()) shards_.resize(idx + 1);
    return shards_[idx];
  }

  std::vector<Shard> shards_;
  Countdowns countdowns_;
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_KEY_WAITS_H_
