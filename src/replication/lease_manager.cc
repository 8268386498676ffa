#include "replication/lease_manager.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/rng.h"

namespace hermes::replication {

void LeaseManager::BeginInstall(Key key, NodeId holder, NodeId source) {
  const auto [hit, inserted] = holders_.try_emplace(key);
  if (inserted) leased_keys_.insert(key);
  std::vector<NodeId>& set = hit->second;
  const auto it = std::lower_bound(set.begin(), set.end(), holder);
  if (it == set.end() || *it != holder) {
    set.insert(it, holder);
    HERMES_TRACE(tracer_, obs::EventKind::kLeaseGrant, holder, kInvalidTxn,
                 key, /*arg=*/static_cast<uint64_t>(source));
  }
}

void LeaseManager::Revoke(Key key, NodeId holder) {
  const auto hit = holders_.find(key);
  if (hit != holders_.end()) {
    std::vector<NodeId>& set = hit->second;
    const auto it = std::lower_bound(set.begin(), set.end(), holder);
    if (it != set.end() && *it == holder) {
      set.erase(it);
      ++revokes_;
      HERMES_TRACE(tracer_, obs::EventKind::kLeaseRevoke, holder, kInvalidTxn,
                   key, /*arg=*/0);
    }
    if (set.empty()) {
      holders_.erase(hit);
      leased_keys_.erase(key);
    }
  }
  DropCopy(holder, key);
}

void LeaseManager::LapseAll() {
  // Each shard's waiters, in key order; woken shard by shard once every
  // lease is gone.
  std::vector<std::vector<sim::Callback>> woken(shards_.size());
  for (Key key : leased_keys_) {
    for (NodeId holder : holders_.at(key)) {
      ++lapses_;
      HERMES_TRACE(tracer_, obs::EventKind::kLeaseRevoke, holder, kInvalidTxn,
                   key, /*arg=*/1);
      for (sim::Callback& w : waits_.Take(holder, key)) {
        woken[static_cast<size_t>(holder)].push_back(std::move(w));
      }
    }
  }
  holders_.clear();
  leased_keys_.clear();
  for (size_t node = 0; node < shards_.size(); ++node) {
    assert(waits_.Keys(static_cast<NodeId>(node)).empty());
    shards_[node].copy_records.clear();
    for (sim::Callback& w : woken[node]) w();
  }
}

void LeaseManager::DropCopy(NodeId node, Key key) {
  if (static_cast<size_t>(node) >= shards_.size()) return;
  Shard(node).copy_records.erase(key);
  for (sim::Callback& w : waits_.Take(node, key)) w();
}

bool LeaseManager::Holds(Key key, NodeId node) const {
  const auto hit = holders_.find(key);
  return hit != holders_.end() &&
         std::binary_search(hit->second.begin(), hit->second.end(), node);
}

void LeaseManager::ApplyCopy(NodeId node, Key key,
                             const storage::Record& record, bool install,
                             TxnId txn) {
  // Revoked or lapsed while the snapshot was on the wire.
  if (!Holds(key, node)) return;
  NodeShard& shard = Shard(node);
  const auto [it, inserted] = shard.copy_records.try_emplace(key, record);
  if (!inserted && record.version >= it->second.version) it->second = record;
  if (install) {
    ++shard.installs;
  } else {
    ++shard.updates;
  }
  HERMES_TRACE(tracer_,
               install ? obs::EventKind::kReplicaInstall
                       : obs::EventKind::kReplicaUpdate,
               node, txn, key, /*arg=*/record.version);
  for (sim::Callback& w : waits_.Take(node, key)) w();
}

bool LeaseManager::CopyPresent(NodeId node, Key key) const {
  if (static_cast<size_t>(node) >= shards_.size()) return false;
  return Shard(node).copy_records.contains(key);
}

const std::vector<NodeId>* LeaseManager::HoldersOf(Key key) const {
  const auto it = holders_.find(key);
  return it == holders_.end() ? nullptr : &it->second;
}

void LeaseManager::WaitCopies(NodeId node, const std::vector<Key>& keys,
                              sim::Callback ready) {
  const NodeShard& shard = Shard(node);
  // An unleased key never blocks: the lease was revoked after routing, and
  // the read proceeds as a plain local read.
  waits_.Wait(
      node, keys,
      [&](Key k) { return !shard.copy_records.contains(k) && Holds(k, node); },
      std::move(ready));
}

uint64_t LeaseManager::Checksum() const {
  uint64_t sum = 0;
  for (Key key : leased_keys_) {
    for (NodeId node : holders_.at(key)) {
      if (static_cast<size_t>(node) >= shards_.size()) continue;
      const auto it = Shard(node).copy_records.find(key);
      if (it == Shard(node).copy_records.end()) continue;
      const storage::Record& r = it->second;
      sum ^= Mix64(Mix64(key ^ (static_cast<uint64_t>(node) << 48)) ^
                   r.value ^ (static_cast<uint64_t>(r.version) << 32));
    }
  }
  return sum;
}

std::vector<std::tuple<NodeId, Key, storage::Record>>
LeaseManager::SnapshotCopies() const {
  std::vector<std::tuple<NodeId, Key, storage::Record>> out;
  for (Key key : leased_keys_) {
    for (NodeId node : holders_.at(key)) {
      if (static_cast<size_t>(node) >= shards_.size()) continue;
      const auto it = Shard(node).copy_records.find(key);
      if (it != Shard(node).copy_records.end()) {
        out.emplace_back(node, key, it->second);
      }
    }
  }
  // Key order within each node survives the stable regroup by node.
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::get<0>(a) < std::get<0>(b);
  });
  return out;
}

void LeaseManager::CorruptCopyForTest(NodeId node, Key key) {
  NodeShard& shard = Shard(node);
  const auto it = shard.copy_records.find(key);
  if (it != shard.copy_records.end()) it->second.value ^= 0xDEADBEEF;
}

uint64_t LeaseManager::installs() const {
  uint64_t n = 0;
  for (const NodeShard& s : shards_) n += s.installs;
  return n;
}

uint64_t LeaseManager::updates() const {
  uint64_t n = 0;
  for (const NodeShard& s : shards_) n += s.updates;
  return n;
}

size_t LeaseManager::num_copies() const {
  size_t n = 0;
  for (const NodeShard& s : shards_) n += s.copy_records.size();
  return n;
}

std::string LeaseManager::DebugString() const {
  std::string out;
  char buf[160];
  for (Key key : leased_keys_) {
    const std::vector<NodeId>& set = holders_.at(key);
    std::snprintf(buf, sizeof(buf), "lease: key=%llu holders=[",
                  static_cast<unsigned long long>(key));
    out += buf;
    for (size_t i = 0; i < set.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%d", i == 0 ? "" : " ",
                    static_cast<int>(set[i]));
      out += buf;
    }
    out += "]\n";
  }
  for (size_t node = 0; node < shards_.size(); ++node) {
    const NodeShard& shard = shards_[node];
    for (Key key : leased_keys_) {
      const auto it = shard.copy_records.find(key);
      if (it == shard.copy_records.end()) continue;
      std::snprintf(buf, sizeof(buf),
                    "copy: node=%zu key=%llu version=%u\n", node,
                    static_cast<unsigned long long>(key), it->second.version);
      out += buf;
    }
    for (Key key : leased_keys_) {
      const size_t waiting = waits_.Count(static_cast<NodeId>(node), key);
      if (waiting == 0) continue;
      std::snprintf(buf, sizeof(buf),
                    "copy wait: node=%zu key=%llu (%zu)\n", node,
                    static_cast<unsigned long long>(key), waiting);
      out += buf;
    }
  }
  return out;
}

}  // namespace hermes::replication
