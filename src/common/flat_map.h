#ifndef HERMES_COMMON_FLAT_MAP_H_
#define HERMES_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace hermes {

/// Test-only window onto a FlatMap's slot order (defined in the tests, not
/// in the library), so tests can check that the salt permutes it.
struct FlatMapPeer;

/// The library's one hash container: a salted open-addressing map for the
/// sparse or bounded tables (the lock manager's transaction index, the
/// executor's presence shards, the fusion table, the baselines' edge
/// maps, the lease manager's holders and copies). Per-key state over the dense key space (records,
/// lock-queue heads, the ownership overlay) and range-indexed state are
/// plain vectors, and tables keyed by the dense transaction id are IdRings.
/// Linear probing over one power-of-two slot array, backward-shift erase
/// (no tombstones, so a long-lived entry never degrades later probes), and
/// detail::SaltAndFinalize mixing, so HERMES_HASH_SALT permutes slot order.
///
/// Slot order is unreachable: there is no begin(), so a range-for over a
/// FlatMap does not compile, and SortedKeys() is the one way to visit every
/// entry. end() exists only as find()'s "absent" sentinel.
///
/// Differences from std::unordered_map that callers must respect:
///  - ANY insert or erase invalidates every iterator and reference into
///    the map (erase shifts later entries back into the freed slot). Hold
///    values behind a unique_ptr when a reference must survive them.
///  - Keys and values must be default-constructible and movable; a free
///    slot holds a default-constructed pair.
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class FlatMap {
  struct Slot {
    std::pair<K, V> kv;
    bool used = false;
  };

  /// A handle on one entry, as returned by find() and try_emplace(). It
  /// does not advance: there is no order to advance in.
  template <bool kConst>
  class Iter {
    using SlotPtr = std::conditional_t<kConst, const Slot*, Slot*>;
    using Pair = std::conditional_t<kConst, const std::pair<K, V>,
                                    std::pair<K, V>>;

   public:
    Iter() = default;
    explicit Iter(SlotPtr slot) : slot_(slot) {}
    operator Iter<true>() const  // NOLINT: iterator -> const_iterator
      requires(!kConst)
    {
      return Iter<true>(slot_);
    }

    Pair& operator*() const { return slot_->kv; }
    Pair* operator->() const { return &slot_->kv; }
    bool operator==(const Iter& o) const { return slot_ == o.slot_; }

   private:
    friend class FlatMap;
    SlotPtr slot_ = nullptr;
  };

 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;
  using size_type = size_t;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;
  FlatMap(std::initializer_list<value_type> init) {
    reserve(init.size());
    for (const value_type& kv : init) try_emplace(kv.first, kv.second);
  }
  FlatMap(const FlatMap&) = default;
  FlatMap& operator=(const FlatMap&) = default;
  FlatMap(FlatMap&& o) noexcept
      : slots_(std::move(o.slots_)), size_(std::exchange(o.size_, 0)) {
    o.slots_.clear();
  }
  FlatMap& operator=(FlatMap&& o) noexcept {
    slots_ = std::move(o.slots_);
    size_ = std::exchange(o.size_, 0);
    o.slots_.clear();
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  iterator end() { return iterator(slots_.data() + slots_.size()); }
  const_iterator end() const {
    return const_iterator(slots_.data() + slots_.size());
  }

  iterator find(const K& key) {
    const size_t i = Probe(key);
    return i == kNone ? end() : iterator(&slots_[i]);
  }
  const_iterator find(const K& key) const {
    const size_t i = Probe(key);
    return i == kNone ? end() : const_iterator(&slots_[i]);
  }
  bool contains(const K& key) const { return Probe(key) != kNone; }

  V& at(const K& key) {
    const size_t i = Probe(key);
    if (i == kNone) throw std::out_of_range("FlatMap::at");
    return slots_[i].kv.second;
  }
  const V& at(const K& key) const {
    const size_t i = Probe(key);
    if (i == kNone) throw std::out_of_range("FlatMap::at");
    return slots_[i].kv.second;
  }

  V& operator[](const K& key) { return try_emplace(key).first->second; }

  /// Inserts `key -> V(args...)` unless `key` is present; returns the
  /// entry and whether it was inserted.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    size_t i = Locate(key);
    if (slots_[i].used) return {iterator(&slots_[i]), false};
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.size() * 2);
      i = Locate(key);
    }
    Slot& s = slots_[i];
    s.kv.first = key;
    s.kv.second = V(std::forward<Args>(args)...);
    s.used = true;
    ++size_;
    return {iterator(&s), true};
  }

  size_t erase(const K& key) {
    const size_t i = Probe(key);
    if (i == kNone) return 0;
    EraseSlot(i);
    return 1;
  }
  void erase(const_iterator it) {
    EraseSlot(static_cast<size_t>(it.slot_ - slots_.data()));
  }

  /// Drops every entry, keeping the slot array.
  void clear() {
    for (Slot& s : slots_) {
      if (s.used) s = Slot{};
    }
    size_ = 0;
  }

  /// Sizes the slot array so `n` entries fit without a rehash.
  void reserve(size_t n) {
    size_t cap = slots_.empty() ? kMinCapacity : slots_.size();
    while (n * 4 > cap * 3) cap *= 2;
    if (cap != slots_.size()) Rehash(cap);
  }

  /// Every key, ascending: the one way to visit the whole map.
  std::vector<K> SortedKeys() const {
    std::vector<K> keys;
    keys.reserve(size_);
    for (const Slot& s : slots_) {
      if (s.used) keys.push_back(s.kv.first);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Same contents (order-insensitive).
  friend bool operator==(const FlatMap& a, const FlatMap& b) {
    if (a.size_ != b.size_) return false;
    for (const Slot& s : a.slots_) {
      if (!s.used) continue;
      const size_t i = b.Probe(s.kv.first);
      if (i == kNone || !(b.slots_[i].kv.second == s.kv.second)) return false;
    }
    return true;
  }

 private:
  friend struct FlatMapPeer;

  static constexpr size_t kNone = ~size_t{0};
  static constexpr size_t kMinCapacity = 8;

  size_t Home(const K& key) const {
    return static_cast<size_t>(
               detail::SaltAndFinalize(static_cast<uint64_t>(Hash{}(key)))) &
           (slots_.size() - 1);
  }

  /// Slot holding `key`, or kNone.
  size_t Probe(const K& key) const {
    if (size_ == 0) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(key);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (!s.used) return kNone;
      if (Eq{}(s.kv.first, key)) return i;
    }
  }

  /// Slot holding `key`, or the free slot where it would go. Allocates the
  /// initial array on first use.
  size_t Locate(const K& key) {
    if (slots_.empty()) slots_.resize(kMinCapacity);
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(key);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (!s.used || Eq{}(s.kv.first, key)) return i;
    }
  }

  void Rehash(size_t cap) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(cap));
    const size_t mask = cap - 1;
    for (Slot& s : old) {
      if (!s.used) continue;
      size_t i = Home(s.kv.first);
      while (slots_[i].used) i = (i + 1) & mask;
      slots_[i] = std::move(s);
    }
  }

  /// Backward-shift deletion (Knuth 6.4, Algorithm R): pulls every later
  /// entry of the probe run whose home does not lie in (hole, entry] back
  /// into the hole, so lookups never need tombstones.
  void EraseSlot(size_t hole) {
    // The erased value is destroyed last, once the table is consistent
    // again (its destructor may release arbitrary captured state).
    [[maybe_unused]] Slot gone = std::move(slots_[hole]);
    const size_t mask = slots_.size() - 1;
    for (size_t j = (hole + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
      const size_t home = Home(slots_[j].kv.first);
      // Distance home->hole vs home->j along the probe direction: the entry
      // can fill the hole iff the hole lies on its own probe path.
      if (((hole - home) & mask) < ((j - home) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace hermes

#endif  // HERMES_COMMON_FLAT_MAP_H_
