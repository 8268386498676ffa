#ifndef HERMES_COMMON_KEY_BITSET_H_
#define HERMES_COMMON_KEY_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/types.h"

namespace hermes {

/// An ordered set of dense keys, one bit per key. Keys are dense
/// (`Cluster::Load` fills 0…`num_records`−1), so a set of keys that must be
/// walked in key order — the router's leased and grantable keys, the lease
/// manager's leased keys — is a bit per key rather than a tree node per
/// member: adding or dropping a key allocates nothing, and a walk reads
/// one word per 64 keys.
///
/// Storage grows to the largest key ever set and never shrinks, except on
/// `clear()`; a key past the end reads as absent.
class KeyBitset {
 public:
  /// Adds `key` (no-op when present).
  void Set(Key key) {
    const size_t w = static_cast<size_t>(key / 64);
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const uint64_t bit = uint64_t{1} << (key % 64);
    if ((words_[w] & bit) != 0) return;
    words_[w] |= bit;
    ++count_;
  }

  /// Drops `key` (no-op when absent).
  void Clear(Key key) {
    const size_t w = static_cast<size_t>(key / 64);
    const uint64_t bit = uint64_t{1} << (key % 64);
    if (w >= words_.size() || (words_[w] & bit) == 0) return;
    words_[w] &= ~bit;
    --count_;
  }

  /// Number of keys present.
  size_t count() const { return count_; }

  /// Drops every key (keeps the storage).
  void clear() {
    words_.clear();
    count_ = 0;
  }

  /// Calls `f(key)` for every key present, in ascending key order. When
  /// `f` returns bool, the walk stops at the first false. `f` may clear the
  /// key it is given; it must not otherwise change the set.
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        const Key key = Key{w} * 64 + static_cast<Key>(std::countr_zero(bits));
        if constexpr (std::is_same_v<std::invoke_result_t<F&, Key>, bool>) {
          if (!f(key)) return;
        } else {
          f(key);
        }
      }
    }
  }

 private:
  std::vector<uint64_t> words_;
  size_t count_ = 0;
};

}  // namespace hermes

#endif  // HERMES_COMMON_KEY_BITSET_H_
