#ifndef HERMES_TXN_TRANSACTION_H_
#define HERMES_TXN_TRANSACTION_H_

#include <cstdint>
#include <memory>
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

  bool operator==(const RangeMove&) const = default;
};

/// A transaction request as the sequencer sees it: a stored-procedure
/// invocation whose read- and write-sets are known up front (Calvin's
/// standard assumption; OLLP would fill these in otherwise).
///
/// Keys in `write_set` may also appear in `read_set` (read-modify-write);
/// keys only in `write_set` are blind writes.
///
/// The command log keeps every request, so the struct holds only what
/// every transaction uses. Fields that only rare kinds set (provisioning
/// markers, chunk migrations, degraded-mode retries) live in `Extras`,
/// boxed and null for an ordinary request; read them through the const
/// accessors, which return the defaults when there is no box, and write
/// them through `mutable_extras()`.
struct TxnRequest {
  struct Extras {
    /// Id of the original submission this retry descends from
    /// (kInvalidTxn for first submissions); anchors the deterministic
    /// backoff draw.
    TxnId retry_of = kInvalidTxn;
    /// For provisioning markers: where each of the subject node's ranges
    /// will be re-homed (lets schedulers evict hot records to their
    /// future homes deterministically).
    std::vector<RangeMove> range_moves;
    /// For kChunkMigration / provisioning markers: the migration target
    /// (chunk destination, added node, or leaving node respectively).
    NodeId migration_target = kInvalidNode;
    /// Degraded-mode retry generation: 0 for the first submission, +1 per
    /// deterministic re-enqueue after a dead-node classification.
    uint32_t attempt = 0;

    bool operator==(const Extras&) const = default;
  };

  TxnRequest() = default;
  TxnRequest(const TxnRequest& o);
  TxnRequest(TxnRequest&&) noexcept = default;
  TxnRequest& operator=(const TxnRequest& o);
  TxnRequest& operator=(TxnRequest&&) noexcept = default;

  TxnId retry_of() const { return extras().retry_of; }
  const std::vector<RangeMove>& range_moves() const {
    return extras().range_moves;
  }
  NodeId migration_target() const { return extras().migration_target; }
  uint32_t attempt() const { return extras().attempt; }
  /// True when the request carries a cold-field box.
  bool has_extras() const { return extras_ != nullptr; }
  /// The cold fields, boxing the defaults first if there is no box.
  Extras& mutable_extras() {
    if (!extras_) extras_ = std::make_unique<Extras>();
    return *extras_;
  }

  // Fields run from widest to narrowest, then the box pointer, so the
  // struct pads only one byte before it.
  TxnId id = kInvalidTxn;
  /// Simulated time the client issued the request.
  SimTime submit_time = 0;
  /// Inline up to two keys each: the paper's 2-record transactions keep
  /// both sets inside the request.
  InlineVec<Key> read_set;
  InlineVec<Key> write_set;
  /// Client that issued the request (closed-loop driver bookkeeping);
  /// -1 for synthesized transactions.
  int32_t client = -1;
  /// Workload tag (e.g. TPC-C NewOrder=1 / Payment=2, tenant id); purely
  /// informational.
  int32_t tag = 0;
  /// Node the request entered the system through (its sequencer).
  NodeId home_sequencer = 0;
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

 private:
  const Extras& extras() const;

  std::unique_ptr<Extras> extras_;
};
static_assert(sizeof(TxnRequest) <= 88);

/// The cold fields of a request without a box.
inline const TxnRequest::Extras kNoTxnExtras{};

inline const TxnRequest::Extras& TxnRequest::extras() const {
  return extras_ ? *extras_ : kNoTxnExtras;
}

// Every router copies a request per transaction: the copies go member by
// member and allocate a box only when the source has one. A new field must
// be added to both.
inline TxnRequest::TxnRequest(const TxnRequest& o)
    : id(o.id),
      submit_time(o.submit_time),
      read_set(o.read_set),
      write_set(o.write_set),
      client(o.client),
      tag(o.tag),
      home_sequencer(o.home_sequencer),
      kind(o.kind),
      user_abort(o.user_abort),
      requires_reconnaissance(o.requires_reconnaissance),
      extras_(o.extras_ ? std::make_unique<Extras>(*o.extras_) : nullptr) {}

inline TxnRequest& TxnRequest::operator=(const TxnRequest& o) {
  id = o.id;
  submit_time = o.submit_time;
  read_set = o.read_set;
  write_set = o.write_set;
  client = o.client;
  tag = o.tag;
  home_sequencer = o.home_sequencer;
  kind = o.kind;
  user_abort = o.user_abort;
  requires_reconnaissance = o.requires_reconnaissance;
  extras_ = o.extras_ ? std::make_unique<Extras>(*o.extras_) : nullptr;
  return *this;
}

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
