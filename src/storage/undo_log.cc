#include "storage/undo_log.h"

#include <cassert>

namespace hermes::storage {

void UndoLog::RecordPreImage(TxnId txn, Key key, const Record& pre_image) {
  assert((open_ == kInvalidTxn || open_ == txn) &&
         "a second transaction opened while one is open");
  open_ = txn;
  entries_.push_back(Entry{key, pre_image});
}

void UndoLog::Abort(TxnId txn, RecordStore* store) {
  if (txn != open_) return;
  for (auto e = entries_.rbegin(); e != entries_.rend(); ++e) {
    store->Restore(e->key, e->pre_image);
  }
  Commit(txn);
}

void UndoLog::Commit(TxnId txn) {
  if (txn != open_) return;
  entries_.clear();
  open_ = kInvalidTxn;
}

}  // namespace hermes::storage
