#include "routing/batch_scratch.h"

#include <bit>

namespace hermes::routing {

void KeyInterner::Seal() {
  // Mark every arena key in the bitmap, noting each word on first touch.
  touched_.clear();
  for (Key k : arena_) {
    const size_t w = static_cast<size_t>(k >> 6);
    if (w >= bits_.size()) {
      bits_.resize(w + 1, 0);
      rank_.resize(w + 1, 0);
    }
    if (bits_[w] == 0) touched_.push_back(w);
    bits_[w] |= uint64_t{1} << (k & 63);
  }
  // Walk the touched words in key order: each word's rank is the number of
  // keys emitted before it, and its set bits are the next keys.
  std::sort(touched_.begin(), touched_.end());
  uniq_.clear();
  for (size_t w : touched_) {
    rank_[w] = static_cast<int32_t>(uniq_.size());
    for (uint64_t word = bits_[w]; word != 0; word &= word - 1) {
      uniq_.push_back(static_cast<Key>(w * 64 + std::countr_zero(word)));
    }
  }
  // A key's id is its word's rank plus the marked keys below it there.
  ids_.resize(arena_.size());
  for (size_t i = 0; i < arena_.size(); ++i) {
    const Key k = arena_[i];
    const size_t w = static_cast<size_t>(k >> 6);
    const uint64_t below = (uint64_t{1} << (k & 63)) - 1;
    ids_[i] = rank_[w] + std::popcount(bits_[w] & below);
  }
  for (size_t w : touched_) bits_[w] = 0;
}

}  // namespace hermes::routing
