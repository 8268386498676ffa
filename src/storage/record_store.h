#ifndef HERMES_STORAGE_RECORD_STORE_H_
#define HERMES_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"

namespace hermes::storage {

/// One stored record. The prototype keeps a 64-bit content fingerprint
/// instead of the paper's 1 KB / 10-field payload: every write folds the
/// writing transaction's id into the fingerprint deterministically, so two
/// replicas that executed the same history end with bit-identical stores —
/// which is exactly what the determinism and recovery tests compare. Wire
/// and storage costs still use the configured full record size.
struct Record {
  uint64_t value = 0;
  /// Id of the last transaction that wrote the record.
  TxnId last_writer = kInvalidTxn;
  /// Number of committed writes applied to the record.
  uint32_t version = 0;
};

/// Cluster-wide record table indexed by key. Keys are dense (the cluster
/// loads exactly 0..num_records-1), so one vector holds every record and a
/// parallel vector holds its location: the node that stores it, the node it
/// is in flight toward, or neither (not loaded, or extracted outright). One
/// location per key makes record singularity structural, in flight
/// included: a shipped record keeps its payload here until it lands. Each
/// node's RecordStore is a view of this table.
class RecordTable {
 public:
  /// Grows the table to hold keys [0, num_keys). Never shrinks. Sizing it
  /// once up front keeps Get() pointers stable for the whole run.
  void Reserve(size_t num_keys) {
    if (num_keys <= location_.size()) return;
    records_.resize(num_keys);
    location_.resize(num_keys, kInvalidNode);
  }

  size_t num_keys() const { return location_.size(); }

  /// Node currently storing `key`, or kInvalidNode (in flight or absent).
  NodeId location(Key key) const {
    const NodeId loc = key < location_.size() ? location_[key] : kInvalidNode;
    return loc >= 0 ? loc : kInvalidNode;
  }

  /// Node a shipped `key` is in flight toward, or kInvalidNode.
  NodeId in_flight_to(Key key) const {
    const NodeId loc = key < location_.size() ? location_[key] : kInvalidNode;
    return loc < kInvalidNode ? kInvalidNode - 1 - loc : kInvalidNode;
  }

  /// The record of a key that is stored somewhere or in flight.
  const Record& record(Key key) const { return records_[key]; }

 private:
  friend class RecordStore;

  /// location_ codes below kInvalidNode mean "in flight toward node d":
  /// kInvalidNode - 1 - d, so one int32 per key holds all three states.
  static NodeId InFlightCode(NodeId to) { return kInvalidNode - 1 - to; }

  std::vector<Record> records_;
  std::vector<NodeId> location_;
};

/// One node's main-memory table: the keys of a RecordTable located at this
/// node. A record is present in exactly one node's store at any instant;
/// migrations Ship() it from the source (it is then in flight, payload
/// still in the table) and Land() it at the destination when the simulated
/// message arrives.
class RecordStore {
 public:
  /// A standalone store over a private table (unit tests, serial
  /// references, offline replay).
  RecordStore();
  /// Node `node`'s view of a shared table.
  RecordStore(RecordTable* table, NodeId node) : table_(table), node_(node) {}

  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  /// Loads a record (initial population, checkpoint restore, undo).
  /// Overwrites this node's existing entry; the key must not be located
  /// at another node nor in flight (asserted: that would duplicate it).
  void Insert(Key key, const Record& record);

  /// Removes the record outright; it is then located nowhere and not in
  /// flight. Returns the removed record, or nullopt if the key was not
  /// present.
  std::optional<Record> Extract(Key key);

  /// Marks a key stored here as in flight toward node `to` (another node).
  /// The payload stays in the table until Land().
  void Ship(Key key, NodeId to);

  /// Stores an in-flight key here: at its destination, or back at its
  /// source when a suppressed shipment is reclaimed. The payload is the
  /// one it was shipped with.
  void Land(Key key);

  bool Contains(Key key) const { return table_->location(key) == node_; }

  /// The table this store is a view of (shared by every node's store).
  const RecordTable& table() const { return *table_; }

  /// Returns the record, or nullptr if not stored on this node. The table
  /// is sized once when the cluster loads, so the pointer stays valid
  /// across other keys' inserts and extracts; it is invalidated only by
  /// this key leaving the node or by a table that grows.
  const Record* Get(Key key) const {
    return Contains(key) ? &table_->records_[key] : nullptr;
  }

  /// Applies a committed write: fingerprint is folded with the writer id.
  /// Returns false if the key is not present (engine bug — callers treat
  /// this as fatal in debug builds).
  bool ApplyWrite(Key key, TxnId writer);

  /// Reverts a write using the pre-image captured in the undo log.
  void Restore(Key key, const Record& pre_image) { Insert(key, pre_image); }

  /// Drops every record. Models a node crash losing its (volatile)
  /// main-memory table; only the fault injector calls this, immediately
  /// followed by a checkpoint+replay rebuild before the node serves again.
  /// O(keys): it walks the whole table.
  void Clear();

  size_t size() const { return size_; }

  /// Order-insensitive fingerprint of the whole store (for determinism and
  /// recovery equivalence checks).
  uint64_t Checksum() const;

  /// This node's records in ascending key order (for checkpointing).
  std::vector<std::pair<Key, Record>> records() const;

 private:
  /// Set only for a standalone store.
  std::unique_ptr<RecordTable> owned_;
  RecordTable* table_;
  NodeId node_;
  size_t size_ = 0;
};

/// Digest of one stored record, shared by every order-insensitive store
/// fold (RecordStore::Checksum, the cluster's whole-table folds).
uint64_t RecordDigest(Key key, const Record& record);

}  // namespace hermes::storage

#endif  // HERMES_STORAGE_RECORD_STORE_H_
