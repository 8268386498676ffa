#ifndef HERMES_SIM_CALLBACK_H_
#define HERMES_SIM_CALLBACK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/slot_pool.h"

namespace hermes::sim {

/// Move-only `void()` closure with a 48-byte inline buffer: the event,
/// message and waiter callbacks of the simulator. Captures live inline (a
/// `this` pointer plus five words at most), so scheduling an event never
/// allocates behind the caller's back: a larger closure does not compile.
/// A cold path that needs one wraps it in sim::Boxed, which makes its one
/// heap allocation visible at the call site. Unlike std::function it
/// accepts move-only captures (a moved vector of shipments; another
/// Callback, through sim::Boxed) and never copies one.
class Callback {
 public:
  static constexpr size_t kInlineBytes = 48;

  /// True when a callable of type `D` fits the inline buffer, i.e. when
  /// Callback accepts it without sim::Boxed.
  template <typename D>
  static constexpr bool kFits = sizeof(D) <= kInlineBytes &&
                                alignof(D) <= alignof(void*) &&
                                std::is_nothrow_move_constructible_v<D>;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT: implicit like std::function

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT: implicit from any callable
    static_assert(kFits<D>,
                  "closure does not fit sim::Callback's 48-byte inline "
                  "buffer: shrink its captures, or wrap a cold-path closure "
                  "in sim::Boxed");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
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
  static constexpr Ops kOps = {
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

/// Moves `f` into one heap box and returns a pointer-sized closure that
/// runs it, for a closure too large for Callback's inline buffer. Meant for
/// cold paths (retries, reconnaissance, tests): `grep sim::Boxed` lists
/// every event that allocates.
template <typename F>
auto Boxed(F&& f) {
  return [box = std::make_unique<std::decay_t<F>>(std::forward<F>(f))]() {
    (*box)();
  };
}

/// Callbacks that run once several waiters have all fired (a presence or
/// copy wait on more than one missing key). Each waiter captures `{this,
/// slot}`, which fits Callback's inline buffer, and the last one to fire
/// frees the slot before running the callback, so once the pool has held
/// its peak population a countdown never allocates.
class Countdowns {
 public:
  Countdowns() = default;
  Countdowns(const Countdowns&) = delete;
  Countdowns& operator=(const Countdowns&) = delete;

  /// Parks `ready` until `waiters` (at least one) of the slot's Waiter
  /// callbacks have run.
  uint32_t Start(size_t waiters, Callback ready) {
    return slots_.Put(Entry{waiters, std::move(ready)});
  }

  /// A waiter that counts `slot` down once when run.
  Callback Waiter(uint32_t slot) {
    return [this, slot]() {
      if (--slots_[slot].remaining == 0) slots_.Take(slot).ready();
    };
  }

  /// Countdowns still waiting.
  size_t size() const { return slots_.size(); }

 private:
  struct Entry {
    size_t remaining = 0;
    Callback ready;
  };
  SlotPool<Entry> slots_;
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_CALLBACK_H_
