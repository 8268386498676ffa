#ifndef HERMES_COMMON_SLOT_POOL_H_
#define HERMES_COMMON_SLOT_POOL_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hermes {

/// Payloads parked by index while the event that consumes them is queued:
/// the event's closure captures `{this, slot}`, which fits sim::Callback's
/// inline buffer, instead of the payload itself. Freed slots are reused
/// last-in first-out, so once the pool has held its peak population,
/// parking a payload never allocates. A slot number is an address, never
/// an input to a decision.
template <typename T>
class SlotPool {
 public:
  /// Parks `value` and returns its slot.
  uint32_t Put(T&& value) {
    if (free_.empty()) {
      slots_.push_back(std::move(value));
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(value);
    return slot;
  }

  /// Moves the payload out of `slot` and frees the slot, so the caller can
  /// run the payload while it parks others.
  T Take(uint32_t slot) {
    T out = std::move(slots_[slot]);
    free_.push_back(slot);
    return out;
  }

  /// Frees `slot` without moving its payload out: a caller that consumed
  /// the payload in place through operator[] hands the slot back here.
  /// The moved-from payload stays until the next Put overwrites it.
  void Free(uint32_t slot) { free_.push_back(slot); }

  /// The payload parked in `slot`, in place; valid until the next Put.
  T& operator[](uint32_t slot) { return slots_[slot]; }

  /// Number of parked payloads.
  size_t size() const { return slots_.size() - free_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<uint32_t> free_;
};

}  // namespace hermes

#endif  // HERMES_COMMON_SLOT_POOL_H_
