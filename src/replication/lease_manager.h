#ifndef HERMES_REPLICATION_LEASE_MANAGER_H_
#define HERMES_REPLICATION_LEASE_MANAGER_H_

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "obs/trace.h"
#include "sim/callback.h"
#include "sim/key_waits.h"
#include "storage/record_store.h"

namespace hermes::replication {

/// Engine-side replica-lease state (DESIGN.md §5 "Replica leases"): the
/// read-only copies installed at lease holders, and the waiters of masters
/// whose replica reads arrived before their copy did.
///
/// Copies live *beside* the primary RecordStores, never in them, so record
/// singularity is untouched: the primary still lives in exactly one store
/// (or in flight), and a copy is always derived data that may be dropped
/// at any moment. Copy application is version-max — an install or update
/// snapshot only lands if its record version is not older than the copy's
/// — so the final copy state is independent of message arrival order
/// (chaos timing, duplicates and re-grants all converge to the newest
/// committed version).
///
/// Lane discipline (the epoch schedule's ownership rules):
///  - `holders_` is written only in exclusive context (BeginInstall /
///    Revoke / LapseAll run from dispatch or membership transitions)
///    and read lane-side (commit fan-out, ApplyCopy's
///    staleness check) — the epoch barrier serializes writers, the same
///    pattern the executor uses for its in-flight table.
///  - Each node's copies and copy waiters are touched only by that node's
///    lane (ApplyCopy, WaitCopies, CopyPresent) or by exclusive context;
///    those never overlap.
///
/// Storage: every per-key table is a salted FlatMap used for point lookups
/// only. Ordered walks (lapse traces and wake order, snapshots, checksums,
/// diagnostics) go through `leased_keys_`, which changes only on install,
/// revoke or lapse. That suffices because a node has a copy of a key, or a
/// waiter on one, only while it is a registered holder: ApplyCopy and
/// WaitCopies check the holder set, and every path that removes a holder
/// drops its copy and wakes its waiters.
class LeaseManager {
 public:
  explicit LeaseManager(int num_nodes) { shards_.resize(num_nodes); }

  /// Grows the shard set to cover `node` (provisioning; exclusive context
  /// only — the vector must not reallocate under running lanes).
  void EnsureNode(NodeId node) {
    const size_t idx = static_cast<size_t>(node);
    if (idx >= shards_.size()) shards_.resize(idx + 1);
  }

  /// Registers `holder` as a lease holder of `key`. Runs at dispatch of
  /// the routed kInstall op, before the copy itself is shipped (`source`
  /// only feeds the trace event).
  void BeginInstall(Key key, NodeId holder, NodeId source);

  /// Drops `holder`'s lease on `key` (routed kRevoke op): the copy is
  /// discarded and any master still waiting on it is woken — a revoked
  /// read degrades to the plain local read it would have been without the
  /// lease, so nothing ever blocks on a copy that will not arrive.
  void Revoke(Key key, NodeId holder);

  /// Drops every lease, copy and waiter (membership transition or
  /// checkpoint restore). The router's LeaseTable lapses on the same
  /// schedule, so both sides re-grant identically from the batch stream.
  void LapseAll();

  /// Applies a copy snapshot on `node`'s own lane (network delivery).
  /// Stale copies — the lease was revoked or lapsed while the snapshot
  /// was on the wire — are counted and dropped.
  void ApplyCopy(NodeId node, Key key, const storage::Record& record,
                 bool install, TxnId txn);

  /// True iff `node` currently has a materialized copy of `key`.
  bool CopyPresent(NodeId node, Key key) const;

  /// Sorted holder set of `key`, or nullptr when unleased. Lane-safe read
  /// (see class comment); the pointer is stable until the next exclusive
  /// mutation (BeginInstall, Revoke or a lapse) of any key.
  const std::vector<NodeId>* HoldersOf(Key key) const;

  /// Calls `ready` once every key either has a copy at `node` or is no
  /// longer leased to `node` (immediately if that already holds). The
  /// executor's master-presence analogue for replica reads.
  void WaitCopies(NodeId node, const std::vector<Key>& keys,
                  sim::Callback ready);

  /// Order-insensitive checksum over every (node, key, value, version)
  /// copy — the replica analogue of RecordStore::Checksum, consumed by the
  /// coherence monitor and the determinism tests.
  uint64_t Checksum() const;

  /// Every copy as (node, key, record), sorted by (node, key) — the
  /// deterministic snapshot InvariantMonitor::CheckReplicaCoherence walks.
  std::vector<std::tuple<NodeId, Key, storage::Record>> SnapshotCopies()
      const;

  /// Test hook: flips one copy's value so the coherence monitor has
  /// something to catch.
  void CorruptCopyForTest(NodeId node, Key key);

  uint64_t installs() const;
  uint64_t updates() const;
  uint64_t revokes() const { return revokes_; }
  uint64_t lapses() const { return lapses_; }
  size_t num_copies() const;

  /// Copy waits on several keys still counting down; none once the
  /// simulator drains.
  size_t pending_countdowns() const { return waits_.pending_countdowns(); }

  /// Sorted diagnostic: leases, copies and outstanding copy-waiters.
  std::string DebugString() const;

  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct NodeShard {
    /// key -> this node's copy (point lookups; see the class comment).
    FlatMap<Key, storage::Record> copy_records;
    uint64_t installs = 0;
    uint64_t updates = 0;
  };

  NodeShard& Shard(NodeId node) { return shards_[static_cast<size_t>(node)]; }
  const NodeShard& Shard(NodeId node) const {
    return shards_[static_cast<size_t>(node)];
  }
  /// Drops node's copy of key and wakes its waiters (exclusive context).
  void DropCopy(NodeId node, Key key);
  /// True iff `node` is a registered holder of `key`.
  bool Holds(Key key, NodeId node) const;

  /// key -> sorted holder node ids. Exclusive-written, lane-read.
  FlatMap<Key, std::vector<NodeId>> holders_;
  /// The keys of holders_, in key order.
  std::set<Key> leased_keys_;
  std::vector<NodeShard> shards_;
  /// Masters parked until a copy lands, per node and key.
  sim::KeyWaits waits_;
  uint64_t revokes_ = 0;
  uint64_t lapses_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace hermes::replication

#endif  // HERMES_REPLICATION_LEASE_MANAGER_H_
