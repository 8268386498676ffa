#ifndef HERMES_COMMON_VECTOR_POOL_H_
#define HERMES_COMMON_VECTOR_POOL_H_

#include <utility>
#include <vector>

namespace hermes {

/// Emptied vectors kept with their capacity, for short-lived vectors (the
/// executor's per-event scratch): once the pool holds as many vectors as
/// are ever out at once, taking and giving back never touches the heap.
template <typename T>
class VectorPool {
 public:
  /// A cleared vector with spare capacity, or a new empty one.
  std::vector<T> Take() {
    if (free_.empty()) return {};
    std::vector<T> v = std::move(free_.back());
    free_.pop_back();
    return v;
  }

  /// Returns `v` to the pool (dropped when it has no capacity to reuse).
  void Give(std::vector<T>&& v) {
    if (v.capacity() == 0) return;
    v.clear();
    free_.push_back(std::move(v));
  }

 private:
  std::vector<std::vector<T>> free_;
};

}  // namespace hermes

#endif  // HERMES_COMMON_VECTOR_POOL_H_
