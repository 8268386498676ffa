#ifndef HERMES_PARTITION_PARTITION_MAP_H_
#define HERMES_PARTITION_PARTITION_MAP_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"

namespace hermes::partition {

/// Static (initial) placement policy mapping keys to home partitions.
/// Implementations must be pure functions of the key.
class PartitionMap {
 public:
  virtual ~PartitionMap() = default;

  /// Home partition of `key`.
  virtual NodeId Owner(Key key) const = 0;

  virtual int num_partitions() const = 0;
};

/// Equal-width contiguous ranges: key k lives on k / range_size (the
/// paper's "naive range partition" default).
class RangePartitionMap : public PartitionMap {
 public:
  RangePartitionMap(uint64_t num_records, int num_partitions);

  NodeId Owner(Key key) const override;
  int num_partitions() const override { return num_partitions_; }

 private:
  int num_partitions_;
  uint64_t range_size_;
};

/// Hash placement: Owner = mix(key) % n. Co-accessed ranges scatter, which
/// creates distributed transactions (Fig. 13's "hash-based" setting).
class HashPartitionMap : public PartitionMap {
 public:
  HashPartitionMap(uint64_t num_records, int num_partitions);

  NodeId Owner(Key key) const override;
  int num_partitions() const override { return num_partitions_; }

 private:
  int num_partitions_;
};

/// Explicit range boundaries: partition i owns [bounds[i], bounds[i+1]).
/// Used for skewed initial placements (Fig. 13) and as Schism's output
/// representation.
class CustomRangePartitionMap : public PartitionMap {
 public:
  /// `bounds` holds num_partitions+1 ascending split points covering the
  /// whole key space.
  explicit CustomRangePartitionMap(std::vector<Key> bounds);

  NodeId Owner(Key key) const override;
  int num_partitions() const override {
    return static_cast<int>(bounds_.size()) - 1;
  }

 private:
  std::vector<Key> bounds_;
};

/// Arbitrary (non-contiguous) assignment of fixed-size key ranges to
/// partitions: Owner(k) = owners[k / range_size]. This is the output
/// representation of the Schism/MetisLite offline partitioner.
class MappedRangePartitionMap : public PartitionMap {
 public:
  MappedRangePartitionMap(uint64_t range_size, std::vector<NodeId> owners,
                          int num_partitions);

  NodeId Owner(Key key) const override;
  int num_partitions() const override { return num_partitions_; }

 private:
  uint64_t range_size_;
  std::vector<NodeId> owners_;
  int num_partitions_;
};

/// Live ownership view used by every scheduler: a static base map, an
/// interval overlay for coarse-grained (cold/Clay) reassignments, and a
/// per-key overlay for fine-grained (fusion) placements. Lookup order:
/// per-key overlay, interval overlay, base. Keys are dense, so the per-key
/// overlay is a vector indexed by key (kInvalidNode = no override) that
/// grows to the largest key ever placed.
class OwnershipMap {
 public:
  explicit OwnershipMap(std::unique_ptr<PartitionMap> base);

  OwnershipMap(const OwnershipMap&) = delete;
  OwnershipMap& operator=(const OwnershipMap&) = delete;

  NodeId Owner(Key key) const {
    if (key < key_overlay_.size() && key_overlay_[key] != kInvalidNode) {
      return key_overlay_[key];
    }
    return Home(key);
  }

  /// Home of a key: interval overlay then base (ignores fusion placements).
  /// Evicted fusion-table records migrate back here.
  NodeId Home(Key key) const;

  /// Fine-grained placement (fusion-table bookkeeping writes through here).
  void SetKeyOwner(Key key, NodeId node);
  void ClearKeyOwner(Key key);
  bool HasKeyOverride(Key key) const {
    return key < key_overlay_.size() && key_overlay_[key] != kInvalidNode;
  }

  /// Coarse-grained reassignment of [lo, hi] (inclusive), splitting any
  /// overlapping interval entries.
  void SetRangeOwner(Key lo, Key hi, NodeId node);

  /// Interval overlay as (lo, hi, owner) triples, for checkpointing.
  std::vector<std::tuple<Key, Key, NodeId>> ExportIntervals() const;
  void RestoreIntervals(const std::vector<std::tuple<Key, Key, NodeId>>& iv);

  /// Per-key overlay as (key, owner) pairs in ascending key order, for
  /// checkpointing.
  std::vector<std::pair<Key, NodeId>> ExportKeyOverlay() const;
  void RestoreKeyOverlay(const std::vector<std::pair<Key, NodeId>>& overlay);

  const PartitionMap& base() const { return *base_; }
  size_t num_interval_entries() const { return intervals_.size(); }
  size_t num_key_overrides() const { return num_key_overrides_; }

 private:
  std::unique_ptr<PartitionMap> base_;
  /// lo -> (hi inclusive, owner); non-overlapping.
  std::map<Key, std::pair<Key, NodeId>> intervals_;
  /// key -> owner, kInvalidNode where the key has no override.
  std::vector<NodeId> key_overlay_;
  size_t num_key_overrides_ = 0;
};

}  // namespace hermes::partition

#endif  // HERMES_PARTITION_PARTITION_MAP_H_
