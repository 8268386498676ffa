#ifndef HERMES_COMMON_ID_RING_H_
#define HERMES_COMMON_ID_RING_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.h"

namespace hermes {

/// A table keyed by transaction id for ids that are dense and mostly
/// increasing: the sequencer hands them out one by one, so the live ids of
/// the executor's transaction table or the cluster's pending callbacks fill
/// a narrow window. Entry `id` lives in `slot[id - base]` of a power-of-two
/// circular buffer, so a lookup is a subtraction and a mask, with no hash
/// and no probe.
///
///  - Holes are allowed: a slot holding an empty `T` has no entry.
///  - Taking the lowest (or highest) entry pops every empty slot at that
///    end, so storage follows the window of live ids, not every id ever
///    inserted.
///  - An id below `base` prepends slots (a parked transaction released
///    after an outage re-enters with its old id).
///  - Once the last entry is taken the window is empty, and the next
///    insert sets a new base anywhere (a checkpoint restore).
///
/// `T` must be default-constructible and movable, and convert to `bool`:
/// true when it holds an entry (`std::unique_ptr`, `std::function`). The
/// buffer grows like a vector; a reference into it is valid until the
/// next `Insert`.
template <typename T>
class IdRing {
 public:
  /// The entry for `id`, or nullptr when it has none.
  const T* Find(TxnId id) const {
    if (id < base_ || id - base_ >= span_) return nullptr;
    const T& slot = slots_[(head_ + (id - base_)) & (slots_.size() - 1)];
    return slot ? &slot : nullptr;
  }
  T* Find(TxnId id) { return const_cast<T*>(std::as_const(*this).Find(id)); }

  /// Stores `value`, which must be non-empty, as the entry for `id`, which
  /// must have none.
  T& Insert(TxnId id, T value) {
    assert(value && "an empty value would be a hole");
    if (span_ == 0) {
      Grow(1);
      head_ = 0;
      base_ = id;
      span_ = 1;
    } else if (id < base_) {
      const size_t n = base_ - id;
      Grow(span_ + n);
      head_ = (head_ - n) & (slots_.size() - 1);
      base_ = id;
      span_ += n;
    } else if (id - base_ >= span_) {
      Grow(id - base_ + 1);
      span_ = id - base_ + 1;
    }
    T& slot = At(id - base_);
    assert(!slot && "id already has an entry");
    slot = std::move(value);
    ++live_;
    return slot;
  }

  /// Moves the entry for `id` out (an empty `T` when it has none) and pops
  /// the empty slots this leaves at either end of the window.
  T Take(TxnId id) {
    T* slot = Find(id);
    if (slot == nullptr) return T{};
    T out = std::move(*slot);
    *slot = T{};
    --live_;
    while (span_ > 0 && !At(0)) {
      head_ = (head_ + 1) & (slots_.size() - 1);
      ++base_;
      --span_;
    }
    while (span_ > 0 && !At(span_ - 1)) --span_;
    return out;
  }

  /// Calls `f(id, entry)` for every entry in increasing id order. `f` may
  /// not insert or take.
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t i = 0; i < span_; ++i) {
      const T& slot = slots_[(head_ + i) & (slots_.size() - 1)];
      if (slot) f(base_ + i, slot);
    }
  }

  /// Number of entries.
  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// The lowest id the window covers, and the window's width in slots
  /// (from the lowest to the highest entry; 0 when empty).
  TxnId base() const { return base_; }
  size_t span() const { return span_; }
  /// Slots allocated: the smallest power of two (16 at least) that held
  /// the widest window so far.
  size_t capacity() const { return slots_.size(); }

 private:
  T& At(size_t offset) {
    return slots_[(head_ + offset) & (slots_.size() - 1)];
  }

  /// Makes room for a window of `span` slots, laying the current window
  /// out from physical slot 0.
  void Grow(size_t span) {
    if (span <= slots_.size()) return;
    size_t cap = slots_.empty() ? 16 : slots_.size();
    while (cap < span) cap *= 2;
    std::vector<T> grown(cap);
    for (size_t i = 0; i < span_; ++i) grown[i] = std::move(At(i));
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;  ///< physical slot of `base_`
  size_t span_ = 0;
  size_t live_ = 0;
  TxnId base_ = 0;
};

}  // namespace hermes

#endif  // HERMES_COMMON_ID_RING_H_
