#ifndef HERMES_STORAGE_UNDO_LOG_H_
#define HERMES_STORAGE_UNDO_LOG_H_

#include <vector>

#include "common/types.h"
#include "storage/record_store.h"

namespace hermes::storage {

/// Per-node UNDO log (§4.2): before a transaction's first write to a
/// record, its pre-image is captured; a user-logic abort rolls the images
/// back in reverse order. Deterministic systems have no system-initiated
/// aborts, so entries are dropped on commit.
///
/// A master applies a transaction's writes and commits or aborts it in one
/// step, so at most one transaction is open per node: its entries are one
/// list that keeps its capacity from transaction to transaction.
class UndoLog {
 public:
  UndoLog() = default;

  UndoLog(const UndoLog&) = delete;
  UndoLog& operator=(const UndoLog&) = delete;

  /// Captures the pre-image of `key` for `txn` (call before ApplyWrite).
  /// Opens `txn` unless it is already open; another open transaction is a
  /// bug.
  void RecordPreImage(TxnId txn, Key key, const Record& pre_image);

  /// Rolls back all of `txn`'s writes on `store`, newest first.
  void Abort(TxnId txn, RecordStore* store);

  /// Forgets `txn`'s entries (transaction committed).
  void Commit(TxnId txn);

  size_t active_txns() const { return open_ == kInvalidTxn ? 0 : 1; }

 private:
  struct Entry {
    Key key;
    Record pre_image;
  };
  /// The open transaction (kInvalidTxn when none) and its entries.
  TxnId open_ = kInvalidTxn;
  std::vector<Entry> entries_;
};

}  // namespace hermes::storage

#endif  // HERMES_STORAGE_UNDO_LOG_H_
