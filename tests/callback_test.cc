#include "sim/callback.h"

#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace hermes::sim {
namespace {

/// Objects constructed (moves included) minus objects destroyed.
int g_alive = 0;

/// Counts how often the owning instance is destroyed; moved-from copies
/// do not count there, but every object, moved-from or not, must still be
/// destroyed once (g_alive). `Pad` bytes push the closure past the inline
/// buffer, where Callback accepts it only through Boxed.
template <size_t Pad>
struct Tracked {
  int* destroyed;
  int* calls;
  bool owner = true;
  std::array<char, Pad> pad{};

  Tracked(int* d, int* c) : destroyed(d), calls(c) { ++g_alive; }
  Tracked(Tracked&& o) noexcept
      : destroyed(o.destroyed),
        calls(o.calls),
        owner(std::exchange(o.owner, false)),
        pad(o.pad) {
    ++g_alive;
  }
  Tracked(const Tracked&) = delete;
  ~Tracked() {
    --g_alive;
    if (owner) ++*destroyed;
  }
  void operator()() { ++*calls; }
};

using SmallTracked = Tracked<8>;
using LargeTracked = Tracked<128>;
static_assert(Callback::kFits<SmallTracked>);
static_assert(!Callback::kFits<LargeTracked>);
// A boxed closure is one pointer, whatever it holds.
using BoxedLarge = decltype(Boxed(std::declval<LargeTracked>()));
static_assert(Callback::kFits<BoxedLarge>);
static_assert(sizeof(BoxedLarge) == sizeof(void*));
// A closure holding another Callback is over the buffer by the inner
// callback's ops pointer, so nesting needs a box.
static_assert(sizeof(Callback) > Callback::kInlineBytes);

SmallTracked MakeSmall(int* destroyed, int* calls) {
  return SmallTracked(destroyed, calls);
}
BoxedLarge MakeBoxed(int* destroyed, int* calls) {
  return Boxed(LargeTracked(destroyed, calls));
}

template <auto kMake>
void ExpectDestroyedOnceAcrossMoves() {
  g_alive = 0;
  int destroyed = 0;
  int calls = 0;
  {
    Callback a(kMake(&destroyed, &calls));
    a();
    Callback b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: moved-from is empty
    b();
    std::vector<Callback> v;
    v.push_back(std::move(b));
    for (int i = 0; i < 64; ++i) v.emplace_back([] {});  // force regrowth
    v[0]();
    Callback c;
    c = std::move(v[0]);
    c();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(g_alive, 0);
}

TEST(CallbackTest, InlineCaptureDestroyedExactlyOnce) {
  ExpectDestroyedOnceAcrossMoves<MakeSmall>();
}

TEST(CallbackTest, BoxedCaptureDestroyedExactlyOnce) {
  ExpectDestroyedOnceAcrossMoves<MakeBoxed>();
}

TEST(CallbackTest, BoxedKeepsMutableStateAndMoveOnlyCaptures) {
  // A large mutable closure keeps its state across calls inside the box,
  // and a move-only capture moves in with it.
  std::vector<int> seen;
  auto owned = std::make_unique<int>(5);
  std::array<char, 96> pad{};
  Callback a(Boxed([p = std::move(owned), n = 0, pad, &seen]() mutable {
    seen.push_back(*p + n++ + pad[0]);
  }));
  a();
  Callback b = std::move(a);
  b();
  b();
  EXPECT_EQ(seen, (std::vector<int>{5, 6, 7}));
}

TEST(CallbackTest, AssignmentDestroysThePreviousClosure) {
  g_alive = 0;
  int destroyed = 0;
  int calls = 0;
  Callback a(SmallTracked(&destroyed, &calls));
  a = Callback(Boxed(LargeTracked(&destroyed, &calls)));
  EXPECT_EQ(destroyed, 1);
  a = nullptr;
  EXPECT_EQ(destroyed, 2);
  EXPECT_EQ(g_alive, 0);
  EXPECT_FALSE(static_cast<bool>(a));
}

TEST(CallbackTest, MoveOnlyAndNonTrivialCaptures) {
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  Callback a([p = std::move(owned), &seen] { seen = *p; });
  Callback b = std::move(a);
  b();
  EXPECT_EQ(seen, 7);

  // A vector capture is not trivially copyable: relocation must move it.
  std::vector<int> sum;
  Callback c([v = std::vector<int>{1, 2, 3}, &sum] { sum = v; });
  Callback d = std::move(c);
  d();
  EXPECT_EQ(sum, (std::vector<int>{1, 2, 3}));

  // A Callback nests inside another closure, through a box.
  Callback inner([&seen] { seen = 11; });
  Callback outer(Boxed([inner = std::move(inner)]() mutable { inner(); }));
  outer();
  EXPECT_EQ(seen, 11);
}

TEST(CallbackTest, WrapsStdFunctionAndStartsEmpty) {
  int hits = 0;
  std::function<void()> fn = [&hits] { ++hits; };
  Callback a(fn);
  a();
  fn();
  EXPECT_EQ(hits, 2);
  Callback empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  Callback null = nullptr;
  EXPECT_FALSE(static_cast<bool>(null));
}

}  // namespace
}  // namespace hermes::sim
