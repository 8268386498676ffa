#ifndef HERMES_SIM_CALLBACK_H_
#define HERMES_SIM_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace hermes::sim {

/// Move-only `void()` closure with a 48-byte inline buffer: the event,
/// message and waiter callbacks of the simulator. Captures up to 48 bytes
/// (a `this` pointer plus five words) live inline, so scheduling an event
/// does not allocate; larger captures go to the heap. Unlike
/// std::function it accepts move-only captures (a moved vector of
/// shipments, another Callback) and never copies one.
class Callback {
 public:
  static constexpr size_t kInlineBytes = 48;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT: implicit like std::function

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT: implicit from any callable
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& o) noexcept { StealFrom(o); }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      Reset();
      StealFrom(o);
    }
    return *this;
  }
  Callback& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Runs the closure. Requires a non-empty callback.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Move-constructs the closure at `dst` from `src` and destroys the
    /// source; null when a byte copy of the buffer does both.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null when the closure is trivially destructible.
    void (*destroy)(void* buf) noexcept;
  };

  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* buf) { (*static_cast<D*>(buf))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              ::new (dst) D(std::move(*static_cast<D*>(src)));
              static_cast<D*>(src)->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* buf) noexcept { static_cast<D*>(buf)->~D(); }};

  // The heap variant stores a D* in the buffer: relocation is a byte copy.
  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* buf) { (**static_cast<D**>(buf))(); }, nullptr,
      [](void* buf) noexcept { delete *static_cast<D**>(buf); }};

  void StealFrom(Callback& o) noexcept {
    ops_ = o.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      std::memcpy(buf_, o.buf_, kInlineBytes);
    } else {
      ops_->relocate(buf_, o.buf_);
    }
    o.ops_ = nullptr;
  }

  void Reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_CALLBACK_H_
