#include "core/fusion_table.h"

#include <stdexcept>

namespace hermes::core {

FusionTable::FusionTable(size_t capacity, EvictionPolicy policy)
    : capacity_(capacity), policy_(policy) {}

uint32_t FusionTable::Append(Key key) {
  uint32_t slot = free_;
  if (slot == kNil) {
    slot = static_cast<uint32_t>(links_.size());
    links_.emplace_back();
  } else {
    free_ = links_[slot].next;
  }
  links_[slot].key = key;
  PushBack(slot);
  return slot;
}

void FusionTable::PushBack(uint32_t slot) {
  links_[slot].prev = tail_;
  links_[slot].next = kNil;
  (tail_ == kNil ? head_ : links_[tail_].next) = slot;
  tail_ = slot;
}

void FusionTable::Unlink(uint32_t slot) {
  const Link& link = links_[slot];
  (link.prev == kNil ? head_ : links_[link.prev].next) = link.next;
  (link.next == kNil ? tail_ : links_[link.next].prev) = link.prev;
}

std::vector<Key> FusionTable::ExportOrder() const {
  std::vector<Key> order;
  order.reserve(index_.size());
  for (uint32_t slot = head_; slot != kNil; slot = links_[slot].next) {
    order.push_back(links_[slot].key);
  }
  return order;
}

void FusionTable::Restore(const std::vector<Key>& order) {
  links_.clear();
  index_.clear();
  head_ = tail_ = free_ = kNil;
  for (Key key : order) {
    const auto [it, inserted] = index_.try_emplace(key, 0u);
    if (!inserted) {
      throw std::invalid_argument("fusion-table key repeats in the order");
    }
    it->second = Append(key);
  }
}

}  // namespace hermes::core
