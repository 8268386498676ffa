#ifndef HERMES_TXN_TRANSACTION_H_
#define HERMES_TXN_TRANSACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/inline_vec.h"
#include "common/types.h"

namespace hermes {

/// Kind of a transaction request. Regular OLTP transactions come from
/// clients; chunk migrations are synthesized by the migration controller
/// (§3.3); provisioning markers are the special totally-ordered
/// transactions that tell every scheduler a node joined or left.
enum class TxnKind : uint8_t {
  kRegular = 0,
  kChunkMigration,
  kAddNode,
  kRemoveNode,
};

/// One entry of a cold-migration plan carried by a provisioning marker:
/// the key range [lo, hi] will be re-homed to `target`.
struct RangeMove {
  Key lo;
  Key hi;
  NodeId target;
};

/// A transaction request as the sequencer sees it: a stored-procedure
/// invocation whose read- and write-sets are known up front (Calvin's
/// standard assumption; OLLP would fill these in otherwise).
///
/// Keys in `write_set` may also appear in `read_set` (read-modify-write);
/// keys only in `write_set` are blind writes.
struct TxnRequest {
  // Fields run from widest to narrowest, so the struct has no padding but
  // its tail: the command log keeps every request.
  TxnId id = kInvalidTxn;
  /// Simulated time the client issued the request.
  SimTime submit_time = 0;
  /// Id of the original submission this retry descends from (kInvalidTxn
  /// for first submissions); anchors the deterministic backoff draw.
  TxnId retry_of = kInvalidTxn;
  /// Inline up to two keys each: the paper's 2-record transactions keep
  /// both sets inside the request.
  InlineVec<Key> read_set;
  InlineVec<Key> write_set;
  /// For provisioning markers: where each of the subject node's ranges
  /// will be re-homed (lets schedulers evict hot records to their future
  /// homes deterministically).
  std::vector<RangeMove> range_moves;
  /// Client that issued the request (closed-loop driver bookkeeping);
  /// -1 for synthesized transactions.
  int32_t client = -1;
  /// Workload tag (e.g. TPC-C NewOrder=1 / Payment=2, tenant id); purely
  /// informational.
  int32_t tag = 0;
  /// Node the request entered the system through (its sequencer).
  NodeId home_sequencer = 0;
  /// For kChunkMigration / provisioning markers: the migration target
  /// (chunk destination, added node, or leaving node respectively).
  NodeId migration_target = kInvalidNode;
  /// Degraded-mode retry generation: 0 for the first submission, +1 per
  /// deterministic re-enqueue after a dead-node classification.
  uint32_t attempt = 0;
  TxnKind kind = TxnKind::kRegular;
  /// True if the user logic deterministically aborts this transaction
  /// (e.g. insufficient stock); aborted transactions still perform their
  /// planned migrations (§4.2).
  bool user_abort = false;
  /// True if the read/write sets cannot be derived from the stored
  /// procedure up front: the cluster first runs an OLLP reconnaissance
  /// read (Calvin's Optimistic Lock Location Prediction) to discover
  /// them, and deterministically aborts + retries if the prediction went
  /// stale by execution time (§2.1).
  bool requires_reconnaissance = false;

  /// Number of distinct storage operations this transaction performs.
  size_t NumOps() const { return read_set.size() + write_set.size(); }
};
static_assert(sizeof(TxnRequest) <= 120);

/// A sequenced batch: the unit the total-order protocol orders and the unit
/// the prescient router analyzes.
struct Batch {
  BatchId id = 0;
  /// Time the leader finished ordering the batch (schedulers receive it
  /// one network hop later).
  SimTime sequenced_at = 0;
  std::vector<TxnRequest> txns;
};

/// Phases of a transaction's life used for the Fig. 7 latency breakdown.
struct LatencyBreakdown {
  SimTime scheduling_us = 0;      ///< queueing for batch + routing analysis
  SimTime lock_wait_us = 0;       ///< waiting for conservative ordered locks
  SimTime remote_wait_us = 0;     ///< waiting for reads/records off the wire
  SimTime storage_us = 0;         ///< local storage + executor work
  SimTime other_us = 0;           ///< worker queueing, commit notification
  SimTime total_us = 0;

  LatencyBreakdown& operator+=(const LatencyBreakdown& o);
};

}  // namespace hermes

#endif  // HERMES_TXN_TRANSACTION_H_
