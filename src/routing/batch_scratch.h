#ifndef HERMES_ROUTING_BATCH_SCRATCH_H_
#define HERMES_ROUTING_BATCH_SCRATCH_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <vector>

#include "common/types.h"

namespace hermes::routing {

/// Half-open range into a flat per-batch arena (see KeyInterner / Csr).
struct Span {
  int32_t begin = 0;
  int32_t end = 0;
  int32_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

/// Per-batch key interner: maps the keys a batch touches to dense ids
/// `[0, num_keys)` so routers can replace `unordered_map<Key, ...>` state
/// with flat vector indexing. Ids are assigned in ascending key order,
/// which is a pure function of the batch contents (deterministic across
/// scheduler replicas).
///
/// Keys are dense (record ids), so Seal ranks them in a bitmap indexed by
/// key: one bit per key, sized by the largest key seen.
///
/// All storage is reused across batches — `BeginBatch` clears sizes but
/// keeps capacity, so steady-state interning performs no heap allocation.
///
/// Usage: BeginBatch(); AddSet(...) per key set (sorts and dedups each set
/// in place in the arena — no per-set vector copies); Seal(); then
/// IdsOf(span) yields the dense ids of a set, sorted ascending.
class KeyInterner {
 public:
  void BeginBatch() {
    arena_.clear();
    ids_.clear();
    uniq_.clear();
  }

  /// Copies `keys` into the arena, sorts and dedups in place, and returns
  /// the arena span of the deduplicated set.
  Span AddSet(std::span<const Key> keys) {
    const auto begin = static_cast<int32_t>(arena_.size());
    arena_.insert(arena_.end(), keys.begin(), keys.end());
    auto first = arena_.begin() + begin;
    std::sort(first, arena_.end());
    arena_.erase(std::unique(first, arena_.end()), arena_.end());
    return Span{begin, static_cast<int32_t>(arena_.size())};
  }

  /// Builds the dense id space from every set added since BeginBatch and
  /// translates the arena to ids. Call once, after the last AddSet.
  void Seal();

  int32_t num_keys() const { return static_cast<int32_t>(uniq_.size()); }

  /// The key behind a dense id (ids ascend with keys).
  Key KeyOf(int32_t id) const { return uniq_[id]; }

  /// Dense ids of a set previously returned by AddSet, sorted ascending.
  std::span<const int32_t> IdsOf(Span s) const {
    return {ids_.data() + s.begin, static_cast<size_t>(s.size())};
  }

  /// Keys of a set previously returned by AddSet, sorted ascending.
  std::span<const Key> KeysOf(Span s) const {
    return {arena_.data() + s.begin, static_cast<size_t>(s.size())};
  }

 private:
  std::vector<Key> arena_;    // concatenated sorted-unique key sets
  std::vector<int32_t> ids_;  // arena_ translated to dense ids (after Seal)
  std::vector<Key> uniq_;     // id -> key, sorted ascending
  // Seal scratch, all-zero between calls: bit k of bits_ marks key k, and
  // rank_[w] is the number of marked keys below word w. touched_ lists the
  // words Seal marked, so it clears only those.
  std::vector<uint64_t> bits_;
  std::vector<int32_t> rank_;
  std::vector<size_t> touched_;
};

/// Reusable compressed-sparse-row adjacency: `num_lists` lists of int32
/// items built in two passes (count, then fill). Replaces per-batch
/// `unordered_map<Key, vector<int>>` churn with three flat vectors whose
/// capacity persists across batches.
class Csr {
 public:
  void Reset(int32_t num_lists) {
    off_.assign(static_cast<size_t>(num_lists) + 1, 0);
    items_.clear();
  }
  void CountItem(int32_t list) { ++off_[list + 1]; }
  void CommitCounts() {
    std::partial_sum(off_.begin(), off_.end(), off_.begin());
    items_.resize(off_.back());
    cursor_.assign(off_.begin(), off_.end() - 1);
  }
  void Fill(int32_t list, int32_t item) { items_[cursor_[list]++] = item; }

  std::span<const int32_t> Items(int32_t list) const {
    return {items_.data() + off_[list],
            static_cast<size_t>(off_[list + 1] - off_[list])};
  }

 private:
  std::vector<int32_t> off_;     // num_lists + 1 offsets
  std::vector<int32_t> cursor_;  // fill positions during pass 2
  std::vector<int32_t> items_;
};

/// Monotone bucket priority queue with lazy revalidation, used by the
/// prescient routing's Step 1: candidates are bucketed by their current
/// remote-read count and re-pushed (not removed) when a data-fusion
/// rescore changes it; stale entries are discarded at pop time by the
/// caller-supplied validity predicate. Each bucket is a binary min-heap
/// on candidate index, so Pop returns the *earliest-submitted* candidate
/// among those with the minimal remote-read count — exactly the reference
/// algorithm's full-rescan tiebreak, at amortized O(log b) per operation.
///
/// Bucket storage (outer and inner vectors) is reused across batches.
class BucketQueue {
 public:
  void Reset(int32_t num_buckets) {
    if (static_cast<int32_t>(buckets_.size()) < num_buckets) {
      buckets_.resize(num_buckets);
    }
    for (int32_t v = 0; v < num_buckets; ++v) buckets_[v].clear();
    num_buckets_ = num_buckets;
    min_bucket_ = 0;
  }

  void Push(int32_t bucket, int32_t idx) {
    assert(bucket >= 0 && bucket < num_buckets_);
    auto& heap = buckets_[bucket];
    heap.push_back(idx);
    std::push_heap(heap.begin(), heap.end(), std::greater<int32_t>());
    min_bucket_ = std::min(min_bucket_, bucket);
  }

  /// Pops the smallest valid index from the lowest bucket holding one.
  /// `valid(idx, bucket)` must return whether the entry is current (the
  /// candidate is unplaced and its score still equals `bucket`). The
  /// caller guarantees at least one valid entry exists.
  template <typename ValidFn>
  int32_t Pop(ValidFn&& valid) {
    for (int32_t v = min_bucket_; v < num_buckets_; ++v) {
      auto& heap = buckets_[v];
      while (!heap.empty()) {
        const int32_t idx = heap.front();
        std::pop_heap(heap.begin(), heap.end(), std::greater<int32_t>());
        heap.pop_back();
        if (valid(idx, v)) {
          min_bucket_ = v;
          return idx;
        }
      }
      // Bucket drained; the minimum can only be above it until a Push
      // lowers it again.
      min_bucket_ = v + 1;
    }
    assert(false && "BucketQueue::Pop on an empty queue");
    return -1;
  }

 private:
  std::vector<std::vector<int32_t>> buckets_;
  int32_t num_buckets_ = 0;
  int32_t min_bucket_ = 0;
};

}  // namespace hermes::routing

#endif  // HERMES_ROUTING_BATCH_SCRATCH_H_
