#include "partition/partition_map.h"

#include <algorithm>
#include <cassert>

#include "common/rng.h"

namespace hermes::partition {

RangePartitionMap::RangePartitionMap(uint64_t num_records, int num_partitions)
    : num_partitions_(num_partitions) {
  assert(num_partitions > 0);
  range_size_ = (num_records + num_partitions - 1) / num_partitions;
  if (range_size_ == 0) range_size_ = 1;
}

NodeId RangePartitionMap::Owner(Key key) const {
  NodeId node = static_cast<NodeId>(key / range_size_);
  return std::min<NodeId>(node, num_partitions_ - 1);
}

HashPartitionMap::HashPartitionMap(uint64_t /*num_records*/,
                                   int num_partitions)
    : num_partitions_(num_partitions) {
  assert(num_partitions > 0);
}

NodeId HashPartitionMap::Owner(Key key) const {
  return static_cast<NodeId>(Mix64(key) % num_partitions_);
}

CustomRangePartitionMap::CustomRangePartitionMap(std::vector<Key> bounds)
    : bounds_(std::move(bounds)) {
  assert(bounds_.size() >= 2);
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

NodeId CustomRangePartitionMap::Owner(Key key) const {
  // First bound strictly greater than key, minus one, clamped to range.
  auto it = std::upper_bound(bounds_.begin(), bounds_.end(), key);
  if (it == bounds_.begin()) return 0;
  NodeId node = static_cast<NodeId>(std::distance(bounds_.begin(), it)) - 1;
  return std::min(node, static_cast<NodeId>(bounds_.size()) - 2);
}

MappedRangePartitionMap::MappedRangePartitionMap(uint64_t range_size,
                                                 std::vector<NodeId> owners,
                                                 int num_partitions)
    : range_size_(range_size),
      owners_(std::move(owners)),
      num_partitions_(num_partitions) {
  assert(range_size_ > 0);
  assert(!owners_.empty());
}

NodeId MappedRangePartitionMap::Owner(Key key) const {
  const uint64_t range = key / range_size_;
  if (range >= owners_.size()) return owners_.back();
  return owners_[range];
}

OwnershipMap::OwnershipMap(std::unique_ptr<PartitionMap> base)
    : base_(std::move(base)) {}

NodeId OwnershipMap::Home(Key key) const {
  if (!intervals_.empty()) {
    auto it = intervals_.upper_bound(key);
    if (it != intervals_.begin()) {
      --it;
      if (key >= it->first && key <= it->second.first) {
        return it->second.second;
      }
    }
  }
  return base_->Owner(key);
}

void OwnershipMap::SetKeyOwner(Key key, NodeId node) {
  assert(node != kInvalidNode);
  if (key >= key_overlay_.size()) key_overlay_.resize(key + 1, kInvalidNode);
  if (key_overlay_[key] == kInvalidNode) ++num_key_overrides_;
  key_overlay_[key] = node;
}

void OwnershipMap::ClearKeyOwner(Key key) {
  if (!HasKeyOverride(key)) return;
  key_overlay_[key] = kInvalidNode;
  --num_key_overrides_;
}

std::vector<std::pair<Key, NodeId>> OwnershipMap::ExportKeyOverlay() const {
  std::vector<std::pair<Key, NodeId>> out;
  out.reserve(num_key_overrides_);
  for (Key key = 0; key < key_overlay_.size(); ++key) {
    if (key_overlay_[key] != kInvalidNode) {
      out.emplace_back(key, key_overlay_[key]);
    }
  }
  return out;
}

void OwnershipMap::RestoreKeyOverlay(
    const std::vector<std::pair<Key, NodeId>>& overlay) {
  std::fill(key_overlay_.begin(), key_overlay_.end(), kInvalidNode);
  num_key_overrides_ = 0;
  for (const auto& [key, node] : overlay) SetKeyOwner(key, node);
}

std::vector<std::tuple<Key, Key, NodeId>> OwnershipMap::ExportIntervals()
    const {
  std::vector<std::tuple<Key, Key, NodeId>> out;
  out.reserve(intervals_.size());
  for (const auto& [lo, rest] : intervals_) {
    out.emplace_back(lo, rest.first, rest.second);
  }
  return out;
}

void OwnershipMap::RestoreIntervals(
    const std::vector<std::tuple<Key, Key, NodeId>>& iv) {
  intervals_.clear();
  for (const auto& [lo, hi, node] : iv) {
    intervals_[lo] = {hi, node};
  }
}

void OwnershipMap::SetRangeOwner(Key lo, Key hi, NodeId node) {
  assert(lo <= hi);
  // Trim or split any interval overlapping [lo, hi].
  auto it = intervals_.upper_bound(lo);
  if (it != intervals_.begin()) --it;
  while (it != intervals_.end() && it->first <= hi) {
    const Key cur_lo = it->first;
    const Key cur_hi = it->second.first;
    const NodeId cur_owner = it->second.second;
    if (cur_hi < lo) {
      ++it;
      continue;
    }
    it = intervals_.erase(it);
    if (cur_lo < lo) {
      intervals_[cur_lo] = {lo - 1, cur_owner};
    }
    if (cur_hi > hi) {
      it = intervals_.insert({hi + 1, {cur_hi, cur_owner}}).first;
      ++it;
    }
  }
  intervals_[lo] = {hi, node};
}

}  // namespace hermes::partition
