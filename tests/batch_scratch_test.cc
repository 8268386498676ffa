// KeyInterner tests: dense ascending ids, key/id round trips, reuse of the
// interner's scratch across batches, and a seeded differential check
// against a sort-plus-lower_bound reference.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "routing/batch_scratch.h"

namespace hermes::routing {
namespace {

/// Interns `sets` as one batch and checks every contract of the result
/// against a reference built by sorting the union and binary-searching it.
void ExpectMatchesReference(KeyInterner& interner,
                            const std::vector<std::vector<Key>>& sets) {
  interner.BeginBatch();
  std::vector<Span> spans;
  for (const auto& keys : sets) spans.push_back(interner.AddSet(keys));
  interner.Seal();

  std::vector<Key> uniq;
  for (const auto& keys : sets) {
    uniq.insert(uniq.end(), keys.begin(), keys.end());
  }
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());

  ASSERT_EQ(interner.num_keys(), static_cast<int32_t>(uniq.size()));
  for (int32_t id = 0; id < interner.num_keys(); ++id) {
    ASSERT_EQ(interner.KeyOf(id), uniq[id]) << "id " << id;
  }
  for (size_t s = 0; s < sets.size(); ++s) {
    std::vector<Key> want = sets[s];
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    const auto keys = interner.KeysOf(spans[s]);
    const auto ids = interner.IdsOf(spans[s]);
    ASSERT_EQ(keys.size(), want.size()) << "set " << s;
    ASSERT_EQ(ids.size(), want.size()) << "set " << s;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(keys[i], want[i]) << "set " << s << " entry " << i;
      const auto ref = static_cast<int32_t>(
          std::lower_bound(uniq.begin(), uniq.end(), want[i]) - uniq.begin());
      EXPECT_EQ(ids[i], ref) << "set " << s << " key " << want[i];
      EXPECT_EQ(interner.KeyOf(ids[i]), keys[i]);
      if (i > 0) {
        EXPECT_LT(ids[i - 1], ids[i]) << "ids must ascend in a set";
      }
    }
  }
}

TEST(KeyInternerTest, IdsAreDenseAndAscendWithKeys) {
  KeyInterner interner;
  interner.BeginBatch();
  const Span a = interner.AddSet(std::vector<Key>{127, 0, 64});
  const Span b = interner.AddSet(std::vector<Key>{63, 64, 5});
  interner.Seal();
  ASSERT_EQ(interner.num_keys(), 5);
  const std::vector<Key> order = {0, 5, 63, 64, 127};
  for (int32_t id = 0; id < 5; ++id) EXPECT_EQ(interner.KeyOf(id), order[id]);
  const std::vector<int32_t> ids_a(interner.IdsOf(a).begin(),
                                   interner.IdsOf(a).end());
  const std::vector<int32_t> ids_b(interner.IdsOf(b).begin(),
                                   interner.IdsOf(b).end());
  EXPECT_EQ(ids_a, (std::vector<int32_t>{0, 3, 4}));
  EXPECT_EQ(ids_b, (std::vector<int32_t>{1, 2, 3}));
}

TEST(KeyInternerTest, DuplicatesWithinAndAcrossSetsAndWordEdges) {
  KeyInterner interner;
  ExpectMatchesReference(interner, {{0, 0, 63, 63},
                                    {64, 0, 127, 64},
                                    {127, 127},
                                    {},
                                    {63, 64}});
}

TEST(KeyInternerTest, EmptyBatch) {
  KeyInterner interner;
  interner.BeginBatch();
  const Span s = interner.AddSet({});
  interner.Seal();
  EXPECT_EQ(interner.num_keys(), 0);
  EXPECT_TRUE(interner.IdsOf(s).empty());
}

TEST(KeyInternerTest, ReuseAcrossDisjointOverlappingAndGrowingBatches) {
  KeyInterner interner;
  // Disjoint ranges: nothing from the first batch may leak into the next.
  ExpectMatchesReference(interner, {{1, 2, 3}, {200, 100}});
  ExpectMatchesReference(interner, {{5000, 4999}, {7000}});
  // Overlapping the previous batch.
  ExpectMatchesReference(interner, {{4999, 5000, 5001}, {6999, 7000}});
  // Growing: keys far beyond anything seen so far, then small ones again.
  ExpectMatchesReference(interner, {{1u << 20, (1u << 20) + 63}, {0}});
  ExpectMatchesReference(interner, {{0, 1, 2}, {3}});
}

TEST(KeyInternerTest, SeededDifferentialAgainstSortReference) {
  Rng rng(20240611);
  KeyInterner interner;
  for (int batch = 0; batch < 200; ++batch) {
    // Key spaces from a few words (heavy duplication) to sparse ones.
    const uint64_t space = uint64_t{1} << rng.NextBounded(18);
    const size_t num_sets = rng.NextBounded(40);
    std::vector<std::vector<Key>> sets(num_sets);
    for (auto& keys : sets) {
      const size_t n = rng.NextBounded(12);
      for (size_t i = 0; i < n; ++i) keys.push_back(rng.NextBounded(space));
    }
    ExpectMatchesReference(interner, sets);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace hermes::routing
