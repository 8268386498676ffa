#ifndef HERMES_CORE_FUSION_TABLE_H_
#define HERMES_CORE_FUSION_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/flat_map.h"
#include "common/types.h"

namespace hermes::core {

/// The fusion table (§3.1, §4.1): the bounded set of hot record keys
/// placed away from their home partitions, logically replicated on every
/// scheduler. Replicas are never synchronized over the network — each
/// scheduler derives identical contents by running the deterministic
/// prescient routing over the same totally ordered input, so this class
/// must be strictly deterministic: eviction order is FIFO or LRU over an
/// explicit recency list, never hash-map iteration order.
///
/// The table holds keys and their recency only. A fused key's partition
/// is its entry in the ownership map's per-key overlay
/// (partition::OwnershipMap::Owner), which the router writes alongside
/// every Put and Erase and clears on eviction.
///
/// When an insertion pushes the table past capacity, the eviction victims
/// are returned to the caller; the router appends them to the current
/// transaction's write-set so their records migrate back to their home
/// partitions (§4.1).
class FusionTable {
 public:
  /// `capacity` == 0 means unbounded: keys are fused and never evicted
  /// (bench_ablation_hermes's "unbounded" row).
  FusionTable(size_t capacity, EvictionPolicy policy);

  FusionTable(const FusionTable&) = delete;
  FusionTable& operator=(const FusionTable&) = delete;

  /// Whether `key` is tracked; never perturbs recency.
  bool Contains(Key key) const { return index_.contains(key); }

  /// A routing read of `key`: under LRU a tracked key becomes the most
  /// recent; otherwise a no-op.
  void Touch(Key key) {
    if (policy_ != EvictionPolicy::kLru) return;
    if (const auto it = index_.find(key); it != index_.end()) {
      MoveToBack(it->second);
    }
  }

  /// Tracks `key` (a tracked key refreshes its recency under LRU), then
  /// evicts in recency order while the table is over capacity, appending
  /// each victim to `*evicted`. A victim for which `keep(victim)` is true
  /// (the router's pinned write keys and degraded-mode test) keeps its
  /// slot and recency; `keep` must be a pure function of deterministic
  /// state. If every entry is kept the table temporarily overflows.
  template <typename KeepFn>
  void Put(Key key, KeepFn&& keep, std::vector<Key>* evicted) {
    const auto [it, inserted] = index_.try_emplace(key, 0u);
    if (inserted) {
      it->second = Append(key);
    } else if (policy_ == EvictionPolicy::kLru) {
      MoveToBack(it->second);
    }
    if (capacity_ == 0) return;
    for (uint32_t slot = head_; index_.size() > capacity_ && slot != kNil;) {
      const uint32_t next = links_[slot].next;
      const Key victim = links_[slot].key;
      if (!keep(victim)) {
        Remove(slot);
        index_.erase(victim);
        evicted->push_back(victim);
      }
      slot = next;
    }
  }

  /// Drops `key` (its record migrated back home or left with its node).
  void Erase(Key key) {
    if (const auto it = index_.find(key); it != index_.end()) {
      Remove(it->second);
      index_.erase(it);
    }
  }

  size_t size() const { return index_.size(); }

  /// Keys in eviction order (front = next victim), for checkpointing.
  std::vector<Key> ExportOrder() const;

  /// Rebuilds the table from a checkpoint's recency order (front = next
  /// victim). Throws std::invalid_argument if a key repeats.
  void Restore(const std::vector<Key>& order);

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  /// One recency-list node. Free slab slots are chained through `next`.
  struct Link {
    Key key;
    uint32_t prev;
    uint32_t next;
  };

  /// Takes a free slab slot (or grows the slab) for `key` and links it
  /// as the most recent entry.
  uint32_t Append(Key key);
  void PushBack(uint32_t slot);
  void Unlink(uint32_t slot);
  void MoveToBack(uint32_t slot) {
    if (slot == tail_) return;
    Unlink(slot);
    PushBack(slot);
  }
  /// Unlinks `slot` and returns it to the free list.
  void Remove(uint32_t slot) {
    Unlink(slot);
    links_[slot].next = free_;
    free_ = slot;
  }

  size_t capacity_;
  EvictionPolicy policy_;
  std::vector<Link> links_;  ///< slab of recency-list nodes
  uint32_t head_ = kNil;     ///< oldest / next eviction victim
  uint32_t tail_ = kNil;     ///< most recent
  uint32_t free_ = kNil;     ///< first free slab slot
  FlatMap<Key, uint32_t> index_;  ///< key -> slab slot
};

}  // namespace hermes::core

#endif  // HERMES_CORE_FUSION_TABLE_H_
