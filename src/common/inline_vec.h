#ifndef HERMES_COMMON_INLINE_VEC_H_
#define HERMES_COMMON_INLINE_VEC_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>

namespace hermes {

/// A vector of trivially copyable `T` whose first 16 bytes of elements
/// live inside the object: 2 `Key`s or 4 `NodeId`s. Most transactions
/// touch one or two records and run on one master, so their key sets and
/// master lists never touch the heap, and a command log of them holds no
/// per-set chunk. At 24 bytes it is exactly `sizeof(std::vector<T>)`, so a
/// wide set pays nothing for the inline buffer.
///
/// It offers the subset of std::vector the code uses; iterators are raw
/// pointers. Past the inline capacity it grows like a vector (doubling,
/// or exactly to a larger reserve/resize/assign) through
/// `std::allocator<T>`, so allocation counters that hook operator new see
/// every allocation. Any growth invalidates pointers into it, and moving
/// an inline vector moves its elements, so pointers into the source do not
/// follow the move either.
template <typename T>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) <= 16, "no element would fit inline");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  /// Elements that fit in the inline buffer.
  static constexpr uint32_t kInline = 16 / sizeof(T);

  InlineVec() = default;
  InlineVec(std::initializer_list<T> init) { assign(init.begin(), init.end()); }
  InlineVec(const InlineVec& other) { assign(other.begin(), other.end()); }
  InlineVec(InlineVec&& other) noexcept { Steal(other); }
  ~InlineVec() { Release(); }

  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  InlineVec& operator=(InlineVec&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(other);
    }
    return *this;
  }
  InlineVec& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  T* data() { return on_heap() ? buf_.heap : buf_.items; }
  const T* data() const { return on_heap() ? buf_.heap : buf_.items; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  size_t size() const { return size_; }
  size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) {
    assert(i < size_);
    return data()[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data()[i];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  operator std::span<const T>() const { return {data(), size_}; }

  void push_back(const T& value) {
    const T copy = value;  // `value` may point into the buffer it outgrows
    if (size_ == cap_) Reallocate(2 * static_cast<size_t>(cap_));
    data()[size_++] = copy;
  }

  void reserve(size_t n) {
    if (n > cap_) Reallocate(n);
  }

  /// New elements are value-initialized, as in std::vector.
  void resize(size_t n) {
    if (n > cap_) Reallocate(std::max(n, 2 * static_cast<size_t>(size_)));
    std::fill(data() + size_, data() + std::max<size_t>(n, size_), T());
    size_ = static_cast<uint32_t>(n);
  }

  /// Keeps the capacity, as in std::vector.
  void clear() { size_ = 0; }

  T* erase(const T* first, const T* last) {
    T* const at = begin() + (first - begin());
    const size_t n = static_cast<size_t>(last - first);
    std::memmove(at, at + n, static_cast<size_t>(end() - at - n) * sizeof(T));
    size_ -= static_cast<uint32_t>(n);
    return at;
  }

  template <typename It>
  void assign(It first, It last) {
    const auto n = static_cast<size_t>(std::distance(first, last));
    size_ = 0;
    reserve(n);
    std::copy(first, last, data());
    size_ = static_cast<uint32_t>(n);
  }

  friend bool operator==(const InlineVec& a, const InlineVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  bool on_heap() const { return cap_ > kInline; }

  /// Moves the elements to a heap buffer of exactly `n` slots (n > cap_).
  void Reallocate(size_t n) {
    assert(n <= std::numeric_limits<uint32_t>::max());
    T* fresh = std::allocator<T>().allocate(n);
    if (size_ != 0) std::memcpy(fresh, data(), size_ * sizeof(T));
    Release();
    buf_.heap = fresh;
    cap_ = static_cast<uint32_t>(n);
  }

  /// Frees the heap buffer, if any. Callers set `buf_` and `cap_` next.
  void Release() {
    if (on_heap()) std::allocator<T>().deallocate(buf_.heap, cap_);
  }

  /// Takes `other`'s elements (its buffer when on the heap) and leaves it
  /// empty and inline, as a moved-from std::vector is empty. One fixed-size
  /// copy of the union moves either the heap pointer or the inline
  /// elements: no branch and no variable-length memcpy.
  void Steal(InlineVec& other) {
    buf_ = other.buf_;
    size_ = other.size_;
    cap_ = other.cap_;
    other.size_ = 0;
    other.cap_ = kInline;
  }

  // The whole buffer starts zeroed, so neither data() (which selects
  // `items` for an inline vector, but the compiler may load both arms) nor
  // Steal's copy of the union ever reads indeterminate bytes. `items`
  // covers `heap`: it holds at least 8 bytes for every element size.
  union Buffer {
    T* heap;
    T items[kInline] = {};
  };
  static_assert(sizeof(T) * kInline >= sizeof(T*));
  Buffer buf_;
  uint32_t size_ = 0;
  uint32_t cap_ = kInline;  ///< above kInline exactly when on the heap
};

}  // namespace hermes

#endif  // HERMES_COMMON_INLINE_VEC_H_
