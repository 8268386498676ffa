#include "core/fusion_table.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"

namespace hermes::core {

FusionTable::FusionTable(size_t capacity, EvictionPolicy policy)
    : capacity_(capacity), policy_(policy) {}

std::optional<NodeId> FusionTable::Lookup(Key key, bool touch) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  if (touch && policy_ == EvictionPolicy::kLru) {
    TouchEntry(it->second, key);
  }
  return it->second.node;
}

std::optional<NodeId> FusionTable::Peek(Key key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second.node;
}

void FusionTable::TouchEntry(Entry& entry, Key key) {
  order_.erase(entry.pos);
  order_.push_back(key);
  entry.pos = std::prev(order_.end());
}

void FusionTable::Put(Key key, NodeId node, std::vector<Key>* evicted) {
  PutPinnedImpl(key, node, [](Key) { return false; }, evicted);
}

void FusionTable::PutPinned(Key key, NodeId node, const HashSet<Key>& pinned,
                            std::vector<Key>* evicted) {
  PutPinnedImpl(
      key, node, [&](Key k) { return pinned.contains(k); }, evicted);
}

void FusionTable::PutPinned(Key key, NodeId node,
                            std::span<const Key> sorted_pinned,
                            std::vector<Key>* evicted) {
  PutPinnedImpl(
      key, node,
      [&](Key k) {
        return std::binary_search(sorted_pinned.begin(), sorted_pinned.end(),
                                  k);
      },
      evicted);
}

template <typename PinnedFn>
void FusionTable::PutPinnedImpl(Key key, NodeId node, PinnedFn&& is_pinned,
                                std::vector<Key>* evicted) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.node = node;
    if (policy_ == EvictionPolicy::kLru) TouchEntry(it->second, key);
  } else {
    order_.push_back(key);
    entries_[key] = Entry{node, std::prev(order_.end())};
  }
  if (capacity_ == 0) return;
  auto victim = order_.begin();
  while (entries_.size() > capacity_ && victim != order_.end()) {
    if (is_pinned(*victim) ||
        (evictable_ != nullptr && !evictable_(*victim))) {
      ++victim;  // pinned / filtered entries keep their slot and recency
      continue;
    }
    const Key evictee = *victim;
    victim = order_.erase(victim);
    auto entry = entries_.find(evictee);
    HERMES_TRACE(tracer_, obs::EventKind::kFusionEvict, entry->second.node,
                 kInvalidTxn, evictee);
    entries_.erase(entry);
    if (digest_ != nullptr) digest_->Mix(evictee);
    evicted->push_back(evictee);
  }
}

void FusionTable::Erase(Key key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  order_.erase(it->second.pos);
  entries_.erase(it);
}

std::vector<Key> FusionTable::ExportOrder() const {
  return {order_.begin(), order_.end()};
}

void FusionTable::Restore(const std::vector<std::pair<Key, NodeId>>& entries,
                          const std::vector<Key>& order) {
  entries_.clear();
  order_.clear();
  for (Key key : order) {
    auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const std::pair<Key, NodeId>& e, Key k) { return e.first < k; });
    if (it == entries.end() || it->first != key) {
      throw std::out_of_range("fusion-table key missing from the overlay");
    }
    order_.push_back(key);
    entries_[key] = Entry{it->second, std::prev(order_.end())};
  }
}

uint64_t FusionTable::Checksum() const {
  uint64_t sum = 0;
  // detlint:allow(unordered-iter) order-insensitive XOR fold, not a decision
  for (const auto& [key, entry] : entries_) {
    sum ^= Mix64(Mix64(key) ^ static_cast<uint64_t>(entry.node + 7));
  }
  return sum;
}

}  // namespace hermes::core
