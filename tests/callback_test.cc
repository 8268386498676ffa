#include "sim/callback.h"

#include <array>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/key_waits.h"

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

/// Makes every key Take()n present, the way a record landing does before
/// its waiters run.
struct Presence {
  KeyWaits& waits;
  std::set<std::pair<NodeId, Key>> present;

  void Wait(NodeId node, std::vector<Key> keys, Callback ready) {
    waits.Wait(node, keys,
               [&](Key k) { return !present.contains({node, k}); },
               std::move(ready));
  }
  /// Lands `key` at `node` and runs its waiters; returns how many ran.
  size_t Land(NodeId node, Key key) {
    present.insert({node, key});
    std::vector<Callback> woken = waits.Take(node, key);
    for (Callback& w : woken) w();
    return woken.size();
  }
};

TEST(KeyWaitsTest, WakesInArrivalOrder) {
  KeyWaits waits;
  Presence p{waits, {}};
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    p.Wait(1, {7}, [&order, i] { order.push_back(i); });
  }
  p.Wait(2, {7}, [&order] { order.push_back(99); });  // another node
  EXPECT_EQ(waits.Count(1, 7), 4u);
  EXPECT_EQ(waits.Keys(1), (std::vector<Key>{7}));
  EXPECT_EQ(p.Land(1, 7), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(waits.Keys(1).empty());
  EXPECT_EQ(waits.Count(2, 7), 1u);
}

TEST(KeyWaitsTest, ZeroOneAndSeveralMissingKeys) {
  KeyWaits waits;
  Presence p{waits, {}};
  p.present.insert({0, 1});
  int ready = 0;

  // Nothing missing: runs at once and parks nothing.
  p.Wait(0, {1}, [&ready] { ++ready; });
  EXPECT_EQ(ready, 1);
  EXPECT_EQ(waits.num_nodes(), 0u);
  EXPECT_EQ(waits.pending_countdowns(), 0u);

  // One missing key (the present one does not count): no countdown.
  p.Wait(0, {1, 2}, [&ready] { ++ready; });
  EXPECT_EQ(waits.pending_countdowns(), 0u);
  EXPECT_EQ(waits.Keys(0), (std::vector<Key>{2}));
  p.Land(0, 2);
  EXPECT_EQ(ready, 2);

  // Several missing keys share one countdown, which runs on the last.
  p.Wait(0, {3, 4, 5}, [&ready] { ++ready; });
  EXPECT_EQ(waits.pending_countdowns(), 1u);
  EXPECT_EQ(waits.Keys(0), (std::vector<Key>{3, 4, 5}));
  p.Land(0, 5);
  p.Land(0, 3);
  EXPECT_EQ(ready, 2);
  p.Land(0, 4);
  EXPECT_EQ(ready, 3);
  EXPECT_EQ(waits.pending_countdowns(), 0u);
}

TEST(KeyWaitsTest, WokenWaiterWaitsAgainOnItsShard) {
  KeyWaits waits;
  Presence p{waits, {}};
  std::vector<int> order;
  // The first waiter parks a new wait on the same node while its own wake
  // list runs; that wait is not woken by the same landing.
  p.Wait(3, {10}, [&] {
    order.push_back(1);
    p.Wait(3, {11, 12}, [&order] { order.push_back(3); });
    p.Wait(3, {10}, [&order] { order.push_back(4); });  // present: runs now
  });
  p.Wait(3, {10}, [&order] { order.push_back(2); });
  EXPECT_EQ(p.Land(3, 10), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 4, 2}));
  EXPECT_EQ(waits.pending_countdowns(), 1u);
  p.Land(3, 11);
  p.Land(3, 12);
  EXPECT_EQ(order, (std::vector<int>{1, 4, 2, 3}));
  EXPECT_EQ(waits.pending_countdowns(), 0u);
}

TEST(KeyWaitsTest, UnseenNodeHasNoWaiters) {
  KeyWaits waits;
  EXPECT_TRUE(waits.Take(5, 1).empty());
  EXPECT_TRUE(waits.Keys(5).empty());
  EXPECT_EQ(waits.Count(5, 1), 0u);
  EXPECT_EQ(waits.num_nodes(), 0u);
  // A wait on a high node grows the shards; a lower node stays empty.
  int ready = 0;
  waits.Wait(4, std::vector<Key>{9}, [](Key) { return true; },
             [&ready] { ++ready; });
  EXPECT_EQ(waits.num_nodes(), 5u);
  EXPECT_TRUE(waits.Take(2, 9).empty());
  std::vector<Callback> woken = waits.Take(4, 9);
  ASSERT_EQ(woken.size(), 1u);
  woken[0]();
  EXPECT_EQ(ready, 1);
  EXPECT_TRUE(waits.Take(4, 9).empty());
}

}  // namespace
}  // namespace hermes::sim
