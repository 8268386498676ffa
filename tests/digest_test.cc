// Tests for hermes::DigestPairFold, the one-pass fold the scheduler uses
// to feed each placement word into the decision and placement digests:
// for any word list, each digest must end exactly as separate
// DecisionDigest::Mix calls would leave it.

#include "common/digest.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hermes {
namespace {

/// Words of every shape: small ids, packed node pairs, full 64-bit keys.
std::vector<uint64_t> RandomWords(Rng& rng, size_t n) {
  std::vector<uint64_t> words;
  for (size_t i = 0; i < n; ++i) {
    switch (rng.NextBounded(3)) {
      case 0:
        words.push_back(rng.NextBounded(16));
        break;
      case 1:
        words.push_back((rng.NextBounded(64) << 32) | rng.NextBounded(64));
        break;
      default:
        words.push_back(rng.Next());
        break;
    }
  }
  return words;
}

void ExpectSame(const DecisionDigest& got, const DecisionDigest& want) {
  EXPECT_EQ(got.value(), want.value());
  EXPECT_EQ(got.count(), want.count());
}

TEST(DigestPairFoldTest, MatchesSeparateMixCalls) {
  Rng rng(20261020);
  for (size_t n : {0, 1, 2, 7, 64, 1000}) {
    for (int rep = 0; rep < 4; ++rep) {
      // The two digests start apart, as the decision digest (which also
      // folds event pops) and the placement digest do.
      DecisionDigest a, b, ref_a, ref_b;
      for (uint64_t w : RandomWords(rng, rng.NextBounded(5))) {
        a.Mix(w);
        ref_a.Mix(w);
      }
      const std::vector<uint64_t> words = RandomWords(rng, n);
      {
        DigestPairFold fold(a, b);
        for (uint64_t w : words) fold.Mix(w);
      }
      for (uint64_t w : words) {
        ref_a.Mix(w);
        ref_b.Mix(w);
      }
      ExpectSame(a, ref_a);
      ExpectSame(b, ref_b);
    }
  }
}

TEST(DigestPairFoldTest, EmptyFoldLeavesBothDigestsUntouched) {
  DecisionDigest a, b;
  a.Mix(42);
  const DecisionDigest before_a = a, before_b = b;
  { DigestPairFold fold(a, b); }
  ExpectSame(a, before_a);
  ExpectSame(b, before_b);
}

TEST(DigestPairFoldTest, ConsecutiveFoldsContinueTheStream) {
  Rng rng(7);
  const std::vector<uint64_t> words = RandomWords(rng, 100);
  DecisionDigest a, b, ref;
  for (size_t cut : {size_t{0}, size_t{37}, size_t{100}}) {
    a.Reset();
    b.Reset();
    {
      DigestPairFold fold(a, b);
      for (size_t i = 0; i < cut; ++i) fold.Mix(words[i]);
    }
    {
      DigestPairFold fold(a, b);
      for (size_t i = cut; i < words.size(); ++i) fold.Mix(words[i]);
    }
    ref.Reset();
    for (uint64_t w : words) ref.Mix(w);
    ExpectSame(a, ref);
    ExpectSame(b, ref);
  }
}

}  // namespace
}  // namespace hermes
