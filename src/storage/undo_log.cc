#include "storage/undo_log.h"

namespace hermes::storage {

void UndoLog::RecordPreImage(TxnId txn, Key key, const Record& pre_image) {
  auto [it, fresh] = entries_.try_emplace(txn);
  if (fresh) it->second = spare_.Take();
  it->second.push_back(Entry{key, pre_image});
}

void UndoLog::Abort(TxnId txn, RecordStore* store) {
  auto it = entries_.find(txn);
  if (it == entries_.end()) return;
  auto& list = it->second;
  for (auto e = list.rbegin(); e != list.rend(); ++e) {
    store->Restore(e->key, e->pre_image);
  }
  spare_.Give(std::move(list));
  entries_.erase(it);
}

void UndoLog::Commit(TxnId txn) {
  auto it = entries_.find(txn);
  if (it == entries_.end()) return;
  spare_.Give(std::move(it->second));
  entries_.erase(it);
}

}  // namespace hermes::storage
