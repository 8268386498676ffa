#include "storage/undo_log.h"

#include <gtest/gtest.h>

namespace hermes::storage {
namespace {

TEST(UndoLogTest, AbortRestoresPreImages) {
  RecordStore store;
  store.Insert(1, Record{.value = 10});
  store.Insert(2, Record{.value = 20});
  UndoLog undo;

  undo.RecordPreImage(7, 1, *store.Get(1));
  store.ApplyWrite(1, 7);
  undo.RecordPreImage(7, 2, *store.Get(2));
  store.ApplyWrite(2, 7);

  undo.Abort(7, &store);
  EXPECT_EQ(store.Get(1)->value, 10u);
  EXPECT_EQ(store.Get(2)->value, 20u);
  EXPECT_EQ(undo.active_txns(), 0u);
}

TEST(UndoLogTest, AbortRestoresNewestFirst) {
  // Two writes to the same key: the FIRST pre-image must win.
  RecordStore store;
  store.Insert(1, Record{.value = 10});
  UndoLog undo;
  undo.RecordPreImage(7, 1, *store.Get(1));
  store.ApplyWrite(1, 7);
  undo.RecordPreImage(7, 1, *store.Get(1));
  store.ApplyWrite(1, 7);
  undo.Abort(7, &store);
  EXPECT_EQ(store.Get(1)->value, 10u);
}

TEST(UndoLogTest, CommitDropsEntries) {
  RecordStore store;
  store.Insert(1, Record{.value = 10});
  UndoLog undo;
  undo.RecordPreImage(7, 1, *store.Get(1));
  store.ApplyWrite(1, 7);
  undo.Commit(7);
  EXPECT_EQ(undo.active_txns(), 0u);
  undo.Abort(7, &store);  // no-op: already committed
  EXPECT_EQ(store.Get(1)->version, 1u);
}

TEST(UndoLogTest, TransactionsOpenOneAfterAnother) {
  // A master opens, fills and closes a transaction's entries in one step,
  // so the next transaction finds the log empty and aborts only its own.
  RecordStore store;
  store.Insert(1, Record{.value = 10});
  store.Insert(2, Record{.value = 20});
  UndoLog undo;
  undo.RecordPreImage(7, 1, *store.Get(1));
  store.ApplyWrite(1, 7);
  EXPECT_EQ(undo.active_txns(), 1u);
  undo.Commit(7);
  EXPECT_EQ(undo.active_txns(), 0u);

  undo.RecordPreImage(8, 2, *store.Get(2));
  store.ApplyWrite(2, 8);
  undo.Abort(7, &store);  // no-op: 7 is closed
  EXPECT_NE(store.Get(2)->value, 20u);
  undo.Abort(8, &store);
  EXPECT_EQ(store.Get(2)->value, 20u);
  EXPECT_NE(store.Get(1)->value, 10u);  // txn 7's committed write stays
  EXPECT_EQ(undo.active_txns(), 0u);
}

TEST(UndoLogTest, AbortUnknownTxnIsNoOp) {
  RecordStore store;
  UndoLog undo;
  undo.Abort(42, &store);
  EXPECT_EQ(undo.active_txns(), 0u);
}

#ifndef NDEBUG
TEST(UndoLogDeathTest, SecondOpenTransactionAsserts) {
  RecordStore store;
  store.Insert(1, Record{.value = 10});
  UndoLog undo;
  undo.RecordPreImage(7, 1, *store.Get(1));
  EXPECT_DEATH(undo.RecordPreImage(8, 1, *store.Get(1)), "second transaction");
}
#endif

}  // namespace
}  // namespace hermes::storage
