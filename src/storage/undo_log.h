#ifndef HERMES_STORAGE_UNDO_LOG_H_
#define HERMES_STORAGE_UNDO_LOG_H_

#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "common/vector_pool.h"
#include "storage/record_store.h"

namespace hermes::storage {

/// Per-node UNDO log (§4.2): before a transaction's first write to a
/// record, its pre-image is captured; a user-logic abort rolls the images
/// back in reverse order. Deterministic systems have no system-initiated
/// aborts, so entries are dropped on commit.
class UndoLog {
 public:
  UndoLog() = default;

  UndoLog(const UndoLog&) = delete;
  UndoLog& operator=(const UndoLog&) = delete;

  /// Captures the pre-image of `key` for `txn` (call before ApplyWrite).
  void RecordPreImage(TxnId txn, Key key, const Record& pre_image);

  /// Rolls back all of `txn`'s writes on `store`, newest first.
  void Abort(TxnId txn, RecordStore* store);

  /// Forgets `txn`'s entries (transaction committed).
  void Commit(TxnId txn);

  size_t active_txns() const { return entries_.size(); }

 private:
  struct Entry {
    Key key;
    Record pre_image;
  };
  FlatMap<TxnId, std::vector<Entry>> entries_;
  /// Entry lists of finished transactions, reused with their capacity.
  VectorPool<Entry> spare_;
};

}  // namespace hermes::storage

#endif  // HERMES_STORAGE_UNDO_LOG_H_
