#include "migration/squall.h"

#include <gtest/gtest.h>

namespace hermes::migration {
namespace {

TEST(SquallTest, SplitsMovesIntoChunks) {
  const auto txns = BuildChunkTransactions({{0, 2499, 3}}, 1000);
  ASSERT_EQ(txns.size(), 3u);
  EXPECT_EQ(txns[0].write_set.size(), 1000u);
  EXPECT_EQ(txns[1].write_set.size(), 1000u);
  EXPECT_EQ(txns[2].write_set.size(), 500u);
  for (const auto& t : txns) {
    EXPECT_EQ(t.kind, TxnKind::kChunkMigration);
    EXPECT_EQ(t.migration_target(), 3);
  }
  EXPECT_EQ(txns[0].write_set.front(), 0u);
  EXPECT_EQ(txns[2].write_set.back(), 2499u);
}

TEST(SquallTest, ExactMultipleProducesFullChunks) {
  const auto txns = BuildChunkTransactions({{10, 29, 1}}, 10);
  ASSERT_EQ(txns.size(), 2u);
  EXPECT_EQ(txns[0].write_set.front(), 10u);
  EXPECT_EQ(txns[0].write_set.back(), 19u);
  EXPECT_EQ(txns[1].write_set.front(), 20u);
  EXPECT_EQ(txns[1].write_set.back(), 29u);
}

TEST(SquallTest, MultipleMovesConcatenate) {
  const auto txns = BuildChunkTransactions({{0, 9, 1}, {100, 109, 2}}, 100);
  ASSERT_EQ(txns.size(), 2u);
  EXPECT_EQ(txns[0].migration_target(), 1);
  EXPECT_EQ(txns[1].migration_target(), 2);
}

TEST(SquallTest, ZeroChunkSizeClampedToOne) {
  const auto txns = BuildChunkTransactions({{0, 2, 1}}, 0);
  EXPECT_EQ(txns.size(), 3u);
}

TEST(SquallTest, SingleKeyRange) {
  const auto txns = BuildChunkTransactions({{7, 7, 2}}, 1000);
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_EQ(txns[0].write_set, (InlineVec<Key>{7}));
}

}  // namespace
}  // namespace hermes::migration
