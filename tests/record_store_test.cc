#include "storage/record_store.h"

#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace hermes::storage {
namespace {

TEST(RecordStoreTest, InsertGetExtract) {
  RecordStore store;
  store.Insert(5, Record{.value = 42});
  ASSERT_TRUE(store.Contains(5));
  EXPECT_EQ(store.Get(5)->value, 42u);

  auto extracted = store.Extract(5);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->value, 42u);
  EXPECT_FALSE(store.Contains(5));
  EXPECT_EQ(store.Get(5), nullptr);
}

TEST(RecordStoreTest, ExtractMissingReturnsNullopt) {
  RecordStore store;
  EXPECT_FALSE(store.Extract(99).has_value());
}

TEST(RecordStoreTest, ApplyWriteChangesValueAndVersion) {
  RecordStore store;
  store.Insert(1, Record{.value = 7});
  const uint64_t before = store.Get(1)->value;
  ASSERT_TRUE(store.ApplyWrite(1, /*writer=*/100));
  EXPECT_NE(store.Get(1)->value, before);
  EXPECT_EQ(store.Get(1)->version, 1u);
  EXPECT_EQ(store.Get(1)->last_writer, 100u);
}

TEST(RecordStoreTest, ApplyWriteMissingKeyFails) {
  RecordStore store;
  EXPECT_FALSE(store.ApplyWrite(3, 1));
}

TEST(RecordStoreTest, ApplyWriteIsDeterministic) {
  RecordStore a, b;
  a.Insert(1, Record{.value = 7});
  b.Insert(1, Record{.value = 7});
  a.ApplyWrite(1, 55);
  b.ApplyWrite(1, 55);
  EXPECT_EQ(a.Get(1)->value, b.Get(1)->value);
}

TEST(RecordStoreTest, WriteOrderMatters) {
  // Different writer sequences must yield different fingerprints: the
  // determinism checks rely on state capturing history.
  RecordStore a, b;
  a.Insert(1, Record{.value = 7});
  b.Insert(1, Record{.value = 7});
  a.ApplyWrite(1, 10);
  a.ApplyWrite(1, 20);
  b.ApplyWrite(1, 20);
  b.ApplyWrite(1, 10);
  EXPECT_NE(a.Get(1)->value, b.Get(1)->value);
}

TEST(RecordStoreTest, RestoreRevertsWrite) {
  RecordStore store;
  store.Insert(1, Record{.value = 7});
  const Record pre = *store.Get(1);
  store.ApplyWrite(1, 9);
  store.Restore(1, pre);
  EXPECT_EQ(store.Get(1)->value, 7u);
  EXPECT_EQ(store.Get(1)->version, 0u);
}

TEST(RecordStoreTest, ChecksumIsOrderInsensitive) {
  RecordStore a, b;
  for (Key k = 0; k < 100; ++k) a.Insert(k, Record{.value = k * 3});
  for (Key k = 100; k-- > 0;) b.Insert(k, Record{.value = k * 3});
  EXPECT_EQ(a.Checksum(), b.Checksum());
}

TEST(RecordStoreTest, ChecksumDetectsDifferences) {
  RecordStore a, b;
  a.Insert(1, Record{.value = 1});
  b.Insert(1, Record{.value = 2});
  EXPECT_NE(a.Checksum(), b.Checksum());
}

TEST(RecordStoreTest, EmptyChecksumIsZero) {
  RecordStore store;
  EXPECT_EQ(store.Checksum(), 0u);
}

TEST(RecordStoreViewTest, InsertIsVisibleOnlyAtItsNode) {
  RecordTable table;
  RecordStore n0(&table, 0), n1(&table, 1);
  n0.Insert(5, Record{.value = 42});
  EXPECT_TRUE(n0.Contains(5));
  EXPECT_FALSE(n1.Contains(5));
  EXPECT_EQ(n1.Get(5), nullptr);
  EXPECT_FALSE(n1.Extract(5).has_value());
  EXPECT_FALSE(n1.ApplyWrite(5, 9));
  EXPECT_EQ(table.location(5), 0);
}

TEST(RecordStoreViewTest, ExtractThenInsertMovesTheKey) {
  RecordTable table;
  RecordStore n0(&table, 0), n1(&table, 1);
  n0.Insert(5, Record{.value = 42});
  const std::optional<Record> moved = n0.Extract(5);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(table.location(5), kInvalidNode);
  EXPECT_EQ(table.in_flight_to(5), kInvalidNode);  // extracted, not shipped
  EXPECT_FALSE(n0.Contains(5));
  EXPECT_FALSE(n1.Contains(5));
  n1.Insert(5, *moved);
  EXPECT_FALSE(n0.Contains(5));
  ASSERT_TRUE(n1.Contains(5));
  EXPECT_EQ(n1.Get(5)->value, 42u);
  EXPECT_EQ(table.location(5), 1);
  EXPECT_EQ(n0.size(), 0u);
  EXPECT_EQ(n1.size(), 1u);
}

TEST(RecordStoreViewTest, ShippedKeyIsInFlightUntilItLands) {
  RecordTable table;
  RecordStore n0(&table, 0), n1(&table, 1), n2(&table, 2);
  n0.Insert(5, Record{.value = 42, .last_writer = 7, .version = 3});
  n0.Insert(6, Record{.value = 1});
  const uint64_t sum_before = n0.Checksum();
  const uint64_t sum_of_6 = [] {
    RecordStore only6;
    only6.Insert(6, Record{.value = 1});
    return only6.Checksum();
  }();

  n0.Ship(5, 2);
  EXPECT_EQ(table.location(5), kInvalidNode);
  EXPECT_EQ(table.in_flight_to(5), 2);
  for (const RecordStore* view : {&n0, &n1, &n2}) {
    EXPECT_FALSE(view->Contains(5));
    EXPECT_EQ(view->Get(5), nullptr);
  }
  EXPECT_EQ(n0.size(), 1u);
  EXPECT_EQ(n0.Checksum(), sum_of_6);
  ASSERT_EQ(n0.records().size(), 1u);
  EXPECT_EQ(n0.records()[0].first, 6u);
  EXPECT_EQ(n2.records().size(), 0u);

  n2.Land(5);
  EXPECT_EQ(table.location(5), 2);
  EXPECT_EQ(table.in_flight_to(5), kInvalidNode);
  ASSERT_TRUE(n2.Contains(5));
  EXPECT_EQ(n2.Get(5)->value, 42u);
  EXPECT_EQ(n2.Get(5)->last_writer, 7u);
  EXPECT_EQ(n2.Get(5)->version, 3u);
  EXPECT_EQ(n2.size(), 1u);

  // A reclaimed shipment lands back at its source with the same payload.
  n2.Ship(5, 1);
  EXPECT_EQ(table.in_flight_to(5), 1);
  n0.Land(5);
  EXPECT_EQ(table.location(5), 0);
  EXPECT_EQ(n0.size(), 2u);
  EXPECT_EQ(n2.size(), 0u);
  EXPECT_EQ(n0.Checksum(), sum_before);
}

TEST(RecordStoreViewTest, ClearDropsOnlyItsOwnKeys) {
  RecordTable table;
  table.Reserve(10);
  RecordStore n0(&table, 0), n1(&table, 1);
  for (Key k = 0; k < 10; ++k) {
    (k % 2 == 0 ? n0 : n1).Insert(k, Record{.value = k});
  }
  EXPECT_EQ(n0.size(), 5u);
  EXPECT_EQ(n1.size(), 5u);
  n0.Insert(4, Record{.value = 99});  // overwrite at the same node
  EXPECT_EQ(n0.size(), 5u);

  n0.Clear();
  EXPECT_EQ(n0.size(), 0u);
  EXPECT_EQ(n1.size(), 5u);
  for (Key k = 0; k < 10; ++k) {
    EXPECT_FALSE(n0.Contains(k)) << k;
    EXPECT_EQ(n1.Contains(k), k % 2 == 1) << k;
  }
  EXPECT_EQ(n0.Checksum(), 0u);
}

TEST(RecordStoreViewTest, RecordsExportInAscendingKeyOrder) {
  RecordTable table;
  RecordStore n0(&table, 0), n1(&table, 1);
  for (Key k : {9u, 2u, 7u, 0u, 4u}) n0.Insert(k, Record{.value = k + 100});
  n1.Insert(3, Record{.value = 1});
  const std::vector<std::pair<Key, Record>> records = n0.records();
  ASSERT_EQ(records.size(), 5u);
  const Key expected[] = {0, 2, 4, 7, 9};
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].first, expected[i]);
    EXPECT_EQ(records[i].second.value, expected[i] + 100);
  }
}

TEST(RecordStoreViewTest, GetPointerSurvivesOtherKeysMoving) {
  RecordTable table;
  table.Reserve(100);
  RecordStore n0(&table, 0), n1(&table, 1);
  for (Key k = 0; k < 100; ++k) n0.Insert(k, Record{.value = k});
  const Record* r = n0.Get(50);
  for (Key k = 0; k < 100; k += 3) {
    if (k == 50) continue;
    n1.Insert(k, *n0.Extract(k));
  }
  EXPECT_EQ(r, n0.Get(50));
  EXPECT_EQ(r->value, 50u);
}

#ifndef NDEBUG
TEST(RecordStoreViewDeathTest, InsertOfKeyLocatedElsewhereAborts) {
  // Record singularity: a key stored at node 0 cannot also be inserted at
  // node 1 without first being extracted.
  RecordTable table;
  RecordStore n0(&table, 0), n1(&table, 1);
  n0.Insert(5, Record{.value = 42});
  EXPECT_DEATH(n1.Insert(5, Record{.value = 43}), "record singularity");
}

TEST(RecordStoreViewDeathTest, InsertOfKeyInFlightAborts) {
  // A shipped key keeps its payload in the table until it lands; an
  // Insert meanwhile would overwrite it.
  RecordTable table;
  RecordStore n0(&table, 0), n1(&table, 1);
  n0.Insert(5, Record{.value = 42});
  n0.Ship(5, 1);
  EXPECT_DEATH(n1.Insert(5, Record{.value = 43}), "record singularity");
}
#endif

}  // namespace
}  // namespace hermes::storage
