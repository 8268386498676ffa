#ifndef HERMES_STORAGE_CHECKPOINT_H_
#define HERMES_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/types.h"
#include "storage/record_store.h"

namespace hermes::storage {

/// A consistent checkpoint of cluster state, taken at a batch boundary
/// (when no transaction is in flight). Restoring a checkpoint and
/// replaying the command-log suffix reproduces the pre-crash state; the
/// recovery integration test asserts checksum equality.
struct Checkpoint {
  /// First batch id NOT covered by this checkpoint (replay starts here).
  BatchId next_batch = 0;
  /// Per-node record stores, each in ascending key order.
  std::vector<std::vector<std::pair<Key, Record>>> stores;
  /// Dynamic-ownership overlay (fusion table contents + migrated ranges),
  /// shared by all schedulers, in ascending key order.
  std::vector<std::pair<Key, NodeId>> ownership_overlay;
  /// Interval (cold-migration) overlay as (lo, hi, owner) triples.
  std::vector<std::tuple<Key, Key, NodeId>> intervals;
  /// Keys in fusion-table recency order (front = next eviction victim),
  /// needed so the restored replica evicts identically.
  std::vector<Key> fusion_order;
  /// Nodes active in the routers at checkpoint time.
  std::vector<NodeId> active_nodes;
  uint64_t next_txn_id = 0;

  /// Combined checksum over all per-node stores.
  uint64_t Checksum() const;
};

}  // namespace hermes::storage

#endif  // HERMES_STORAGE_CHECKPOINT_H_
