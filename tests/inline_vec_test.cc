// Tests for hermes::InlineVec, the key-set and master-list container of
// TxnRequest and RoutedTxn: a seeded model test against std::vector
// (push_back across the inline/heap boundary, reserve, resize, erase, the
// sort + unique + erase idiom, clear, assign), copy and move in every
// inline/heap pairing including self-assignment and at every size, and
// which operations allocate.

#include "common/inline_vec.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"
#include "txn/transaction.h"

// Heap-allocation counter, as in executor_alloc_test: the heap branch must
// allocate through operator new so allocation counters see it.
namespace {
uint64_t g_heap_allocs = 0;
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hermes {
namespace {

static_assert(sizeof(InlineVec<Key>) == 24);
static_assert(sizeof(InlineVec<Key>) == sizeof(std::vector<Key>));
static_assert(sizeof(InlineVec<NodeId>) == sizeof(std::vector<NodeId>));
static_assert(InlineVec<Key>::kInline == 2);
static_assert(InlineVec<NodeId>::kInline == 4);
static_assert(sizeof(TxnRequest) <= 120);

template <typename T>
std::vector<T> Elems(const InlineVec<T>& v) {
  return {v.begin(), v.end()};
}

/// Runs `steps` random operations on an InlineVec and a std::vector side by
/// side, checking the contents after each.
template <typename T>
void RunModel(uint64_t seed, int steps) {
  Rng rng(seed);
  InlineVec<T> v;
  std::vector<T> ref;
  for (int step = 0; step < steps; ++step) {
    const uint64_t op = rng.NextBounded(10);
    switch (op) {
      case 0:
      case 1:
      case 2: {  // push_back, often across the inline/heap boundary
        const T x = static_cast<T>(rng.NextBounded(16));
        v.push_back(x);
        ref.push_back(x);
        break;
      }
      case 3: {  // push_back of an element of the vector itself
        if (ref.empty()) break;
        const size_t i = rng.NextBounded(ref.size());
        v.push_back(v[i]);
        ref.push_back(ref[i]);
        break;
      }
      case 4: {
        const size_t n = rng.NextBounded(12);
        v.reserve(n);
        ref.reserve(n);
        EXPECT_GE(v.capacity(), n);
        break;
      }
      case 5: {
        const size_t n = rng.NextBounded(12);
        v.resize(n);
        ref.resize(n);
        break;
      }
      case 6: {  // the sort + unique + erase idiom of the generators
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        std::sort(ref.begin(), ref.end());
        ref.erase(std::unique(ref.begin(), ref.end()), ref.end());
        break;
      }
      case 7: {  // erase an arbitrary range
        const size_t first = rng.NextBounded(ref.size() + 1);
        const size_t last = first + rng.NextBounded(ref.size() - first + 1);
        T* at = v.erase(v.begin() + first, v.begin() + last);
        ref.erase(ref.begin() + first, ref.begin() + last);
        EXPECT_EQ(at, v.begin() + first);
        break;
      }
      case 8: {
        if (rng.NextBounded(4) == 0) {
          v.clear();
          ref.clear();
        } else {
          std::vector<T> src(rng.NextBounded(7));
          for (T& x : src) x = static_cast<T>(rng.NextBounded(16));
          v.assign(src.begin(), src.end());
          ref = src;
        }
        break;
      }
      case 9: {  // round trip through a copy and a move
        InlineVec<T> copy(v);
        InlineVec<T> moved(std::move(copy));
        EXPECT_TRUE(copy.empty());
        v = moved;
        break;
      }
    }
    ASSERT_EQ(Elems(v), ref) << "seed " << seed << " step " << step
                             << " op " << op;
    ASSERT_EQ(v.size(), ref.size());
    ASSERT_EQ(v.empty(), ref.empty());
    ASSERT_GE(v.capacity(), v.size());
    if (!ref.empty()) {
      ASSERT_EQ(v.front(), ref.front());
      ASSERT_EQ(v.back(), ref.back());
    }
    const std::span<const T> span = v;
    ASSERT_EQ(span.data(), v.data());
    ASSERT_EQ(span.size(), v.size());
  }
}

TEST(InlineVecTest, MatchesStdVectorModelForKeys) {
  for (uint64_t seed = 1; seed <= 40; ++seed) RunModel<Key>(seed, 400);
}

TEST(InlineVecTest, MatchesStdVectorModelForNodeIds) {
  for (uint64_t seed = 1; seed <= 40; ++seed) RunModel<NodeId>(seed, 400);
}

TEST(InlineVecTest, GrowsLikeAVectorPastTheInlineBuffer) {
  InlineVec<Key> v;
  EXPECT_EQ(v.capacity(), 2u);
  std::vector<size_t> caps;
  for (Key k = 0; k < 9; ++k) {
    v.push_back(k);
    caps.push_back(v.capacity());
  }
  EXPECT_EQ(caps, (std::vector<size_t>{2, 2, 4, 4, 8, 8, 8, 8, 16}));
  v.clear();
  EXPECT_EQ(v.capacity(), 16u);  // clear keeps the buffer
  v.reserve(40);
  EXPECT_EQ(v.capacity(), 40u);  // reserve is exact
}

TEST(InlineVecTest, OnlyTheHeapBranchAllocates) {
  uint64_t before = g_heap_allocs;
  {
    InlineVec<Key> two = {1, 2};
    InlineVec<Key> copy = two;
    InlineVec<Key> moved = std::move(copy);
    moved.push_back(3);  // spills: one allocation
    InlineVec<NodeId> masters = {0, 1, 2, 3};
    masters = {4};
  }
  EXPECT_EQ(g_heap_allocs - before, 1u);

  before = g_heap_allocs;
  {
    InlineVec<Key> wide = {1, 2, 3};          // one allocation
    InlineVec<Key> stolen = std::move(wide);  // takes the buffer
    InlineVec<Key> copied = stolen;           // one allocation
    copied = {4, 5, 6};                       // fits: reuses the buffer
  }
  EXPECT_EQ(g_heap_allocs - before, 2u);
}

/// A vector in the given state: two elements inline, or five on the heap.
InlineVec<Key> Make(bool heap, Key base) {
  InlineVec<Key> v = {base, base + 1};
  if (heap) {
    for (Key k = 2; k < 5; ++k) v.push_back(base + k);
  }
  return v;
}

TEST(InlineVecTest, CopyAndMoveInEveryInlineHeapPairing) {
  for (const bool src_heap : {false, true}) {
    for (const bool dst_heap : {false, true}) {
      SCOPED_TRACE(testing::Message() << "src_heap=" << src_heap
                                      << " dst_heap=" << dst_heap);
      const InlineVec<Key> src = Make(src_heap, 100);
      const std::vector<Key> want = Elems(src);

      InlineVec<Key> copy_dst = Make(dst_heap, 200);
      copy_dst = src;
      EXPECT_EQ(Elems(copy_dst), want);
      EXPECT_EQ(Elems(src), want);
      EXPECT_TRUE(copy_dst == src);

      InlineVec<Key> from = src;
      InlineVec<Key> move_dst = Make(dst_heap, 300);
      move_dst = std::move(from);
      EXPECT_EQ(Elems(move_dst), want);
      EXPECT_TRUE(from.empty());
      from.push_back(7);  // a moved-from vector is usable
      EXPECT_EQ(Elems(from), (std::vector<Key>{7}));

      InlineVec<Key> constructed(std::move(move_dst));
      EXPECT_EQ(Elems(constructed), want);
      EXPECT_TRUE(move_dst.empty());
    }
  }
}

// A move copies the whole 16-byte buffer whatever the size: a partly
// filled inline buffer, an empty vector and a moved-from one (whose buffer
// still holds the stolen heap pointer) must all move cleanly.
template <typename T>
void MoveEverySize() {
  for (size_t n = 0; n <= InlineVec<T>::kInline + 1; ++n) {
    SCOPED_TRACE(testing::Message() << "size=" << n);
    InlineVec<T> src;
    std::vector<T> want;
    for (size_t i = 0; i < n; ++i) {
      src.push_back(static_cast<T>(10 + i));
      want.push_back(static_cast<T>(10 + i));
    }
    InlineVec<T> constructed(std::move(src));
    EXPECT_EQ(Elems(constructed), want);
    EXPECT_TRUE(src.empty());

    InlineVec<T> assigned = {static_cast<T>(1)};
    assigned = std::move(constructed);
    EXPECT_EQ(Elems(assigned), want);
    EXPECT_TRUE(constructed.empty());

    InlineVec<T> again(std::move(constructed));  // moved-from, moved again
    EXPECT_TRUE(again.empty());
    again.push_back(static_cast<T>(3));
    EXPECT_EQ(Elems(again), std::vector<T>{static_cast<T>(3)});
  }
}

TEST(InlineVecTest, MoveCarriesEverySizeAcrossTheBoundary) {
  MoveEverySize<Key>();
  MoveEverySize<NodeId>();
}

TEST(InlineVecTest, SelfAssignmentKeepsTheElements) {
  for (const bool heap : {false, true}) {
    InlineVec<Key> v = Make(heap, 10);
    const std::vector<Key> want = Elems(v);
    InlineVec<Key>& alias = v;
    v = alias;
    EXPECT_EQ(Elems(v), want);
    v = std::move(alias);
    EXPECT_EQ(Elems(v), want);
  }
}

TEST(InlineVecTest, EqualityComparesElementsNotStorage) {
  InlineVec<Key> heap = {1, 2, 3};
  heap.erase(heap.begin() + 2, heap.end());  // two elements, on the heap
  EXPECT_TRUE(heap == (InlineVec<Key>{1, 2}));
  EXPECT_FALSE(heap == (InlineVec<Key>{1}));
  EXPECT_FALSE(heap == (InlineVec<Key>{1, 3}));
  EXPECT_TRUE(InlineVec<Key>() == InlineVec<Key>());
}

}  // namespace
}  // namespace hermes
