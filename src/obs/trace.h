#ifndef HERMES_OBS_TRACE_H_
#define HERMES_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/digest.h"
#include "common/types.h"

namespace hermes::obs {

/// What happened. One enum for the whole cluster so the exported stream
/// (and its digest) has a single total order of event descriptions.
///
/// kPhase* are spans (they carry a duration); everything else is an
/// instant. The phase spans reconstruct the per-transaction lifecycle of
/// §2.1: sequence → route → lock-wait → remote-wait → execute →
/// commit/abort.
enum class EventKind : uint8_t {
  // Transaction lifecycle.
  kTxnDispatch = 0,   ///< scheduler handed the routed txn to the executor
  kTxnCommit,         ///< client acknowledged, committed (arg = total_us)
  kTxnAbort,          ///< client acknowledged, aborted (arg = total_us)
  kPhaseSequence,     ///< span: submit → dispatch (scheduling + sequencing)
  kPhaseLockWait,     ///< span: dispatch → last master lock grant
  kPhaseRemoteWait,   ///< span: lock grant → last remote shipment arrived
  kPhaseExecute,      ///< span: execution work on the master worker
  // Batch pipeline.
  kBatchSequenced,    ///< total-order protocol emitted a batch (txn = batch)
  kBatchRouted,       ///< span: scheduler routing cost (txn = batch id)
  // Record movement (the fusion/migration machinery).
  kAccess,            ///< one planned access (node = owner, arg = new owner)
  kRecordExtract,     ///< record left a store onto the wire
  kRecordDeliver,     ///< record landed in the destination store
  kRecordSuppress,    ///< delivery suppressed: destination died in flight
  kRecordReclaim,     ///< suppressed record re-inserted at its sender
  kRecordReship,      ///< displaced record moved to its ownership-map home
  kFusionEvict,       ///< fusion table evicted a key (arg = owner node)
  // Replica leases (src/replication/).
  kLeaseGrant,        ///< lease granted (node = holder, arg = copy source)
  kLeaseRevoke,       ///< lease revoked (node = holder, arg = 1 if lapse)
  kReplicaInstall,    ///< read-only copy landed at the holder
  kReplicaUpdate,     ///< post-commit update applied at the holder
  kChunkMigration,    ///< chunk migration planned (key = lo, arg = #records)
  kNodeProvision,     ///< add/remove-node marker materialized (arg = kind)
  // Faults and degraded mode.
  kCrash,             ///< node marked down (arg = membership epoch)
  kRejoin,            ///< node marked up (arg = membership epoch)
  kWatchdogAbort,     ///< watchdog UNDO-aborted a frozen transaction
  kTxnResume,         ///< rejoin re-drove a stalled machine (arg = #thunks)
  kStranded,          ///< key left at a dead node by a watchdog abort
  kPark,              ///< blocked chunk/marker parked FIFO (key = blocker)
  kRetry,             ///< blocked regular rescheduled (dur = delay, arg = attempt)
  kUnavailable,       ///< retries exhausted, UNAVAILABLE abort to client
  // Partitions & failure detection (DESIGN.md §5).
  kPartitionCut,      ///< links around node cut (arg = 1 in | 2 out | 3 both)
  kPartitionHeal,     ///< cut removed, holding pens released (arg = released)
  kHeartbeatMiss,     ///< heartbeat node->arg missed (key = consecutive misses)
  kDetectorSuspect,   ///< detector marked node down (arg = membership epoch)
  kDetectorRestore,   ///< detector marked node up (arg = membership epoch)
  kInvariantViolation,  ///< an InvariantMonitor check failed (arg = failure #)
};

/// Stable lower-case name used by the exporters ("txn_commit", ...).
const char* EventKindName(EventKind kind);

/// True for kinds that carry a duration (exported as Chrome "X" events).
bool IsSpan(EventKind kind);

/// One trace record. Fixed-size POD; rings store these by value.
struct TraceEvent {
  SimTime when = 0;  ///< virtual time the event (or span) starts
  SimTime dur = 0;   ///< span duration; 0 for instants
  uint64_t seq = 0;  ///< ring-local emission order (see Tracer docs)
  TxnId txn = kInvalidTxn;
  Key key = static_cast<Key>(-1);
  uint64_t arg = 0;  ///< kind-specific payload (see EventKind comments)
  NodeId node = kInvalidNode;
  EventKind kind = EventKind::kTxnDispatch;
};

/// Fixed-capacity overwrite-oldest buffer of TraceEvents. Bounded memory
/// is part of the determinism contract: a long run cannot change its
/// allocation behavior (and thereby timing in a real deployment) based on
/// how many events fired; instead `dropped` counts overwritten events,
/// deterministically.
struct TraceRing {
  explicit TraceRing(size_t capacity) : capacity_(capacity) {
    events.reserve(capacity);
  }

  void Push(const TraceEvent& e) {
    ++recorded;
    if (events.size() < capacity_) {
      events.push_back(e);
      return;
    }
    ++dropped;
    events[head_] = e;
    head_ = (head_ + 1) % capacity_;
  }

  /// Events oldest-first (unwraps the ring).
  std::vector<TraceEvent> InOrder() const;

  size_t size() const { return events.size(); }
  size_t capacity() const { return capacity_; }

  std::vector<TraceEvent> events;
  uint64_t recorded = 0;  ///< total Push() calls
  uint64_t dropped = 0;   ///< events overwritten after the ring filled
  uint64_t next_seq = 0;  ///< ring-local emission sequence
  /// Order-sensitive digest of every enabled-mode event emitted into this
  /// ring. Per-ring state keeps emission lane-local under the epoch
  /// schedule; Tracer::digest() folds the rings in index order.
  DecisionDigest digest;

 private:
  size_t capacity_;
  size_t head_ = 0;  ///< oldest element once the ring wrapped
};

/// Events each per-node ring holds before it overwrites the oldest (and
/// counts the drop). The cluster configures every tracer with it.
inline constexpr size_t kTraceRingCapacity = 1 << 15;

/// Deterministic structured tracer over virtual time.
///
/// Strictly passive: components write events in, nothing in `src/` reads
/// tracer state back into a decision (detlint's obs-decision rule audits
/// the routing layers for exactly that). Events land in per-node rings
/// (ring 0 holds cluster-scope events with node == kInvalidNode) and fold
/// into an order-sensitive FNV-1a digest, so two runs traced the same way
/// are bit-identical — the trace is itself a determinism oracle.
///
/// Cost model: a disabled tracer costs one pointer null check plus one
/// bool load per HERMES_TRACE site (arguments are evaluated lazily inside
/// the macro's if). The `HERMES_TRACE_KEY` stderr mirror runs through the
/// same Record() path, filtered by key.
class Tracer {
 public:
  static constexpr Key kNoMirror = static_cast<Key>(-1);

  /// Sets the per-ring capacity (events per node) and, when `num_nodes` is
  /// non-zero, pre-sizes the rings (ring 0 plus one per node). Must be
  /// called before the first Record(); existing rings are discarded.
  /// EnsureNode() grows the ring set from exclusive context.
  void Configure(size_t ring_capacity, size_t num_nodes = 0);

  /// Grows the ring set to cover `node` (exclusive context only — used by
  /// dynamic provisioning before the new node's lane runs).
  void EnsureNode(NodeId node) { RingFor(node); }

  /// Points the tracer at the simulator's virtual clock. The tracer only
  /// ever reads through this function (passivity).
  void set_clock(std::function<SimTime()> now) { now_ = std::move(now); }

  /// Convenience overload for tests driving a raw SimTime variable.
  void set_clock(const SimTime* now) {
    now_ = [now] { return *now; };
  }

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Key mirrored to stderr (HERMES_TRACE_KEY UX); kNoMirror disables.
  void set_mirror_key(Key key) { mirror_key_ = key; }
  Key mirror_key() const { return mirror_key_; }

  /// True iff Record() would do any work — the macro guard.
  bool active() const { return enabled_ || mirror_key_ != kNoMirror; }

  /// Records an instant event at the current virtual time.
  void Record(EventKind kind, NodeId node, TxnId txn,
              Key key = static_cast<Key>(-1), uint64_t arg = 0) {
    Emit(kind, node, txn, key, arg, now_ ? now_() : 0, 0);
  }

  /// Records a span [begin, begin + dur).
  void RecordSpan(EventKind kind, NodeId node, TxnId txn, Key key,
                  SimTime begin, SimTime dur, uint64_t arg = 0) {
    Emit(kind, node, txn, key, arg, begin, dur);
  }

  /// Digest over every enabled-mode event: each ring keeps its own
  /// order-sensitive digest (full event — kind, when, dur, node, txn, key,
  /// arg — mixed per Record()), and this folds the per-ring digests in
  /// ring-index order (= deterministic node order). A match means the
  /// traced runs saw identical per-node histories, independent of how lane
  /// events interleaved in real time.
  DecisionDigest digest() const;

  /// Ring 0 = cluster scope (node == kInvalidNode); ring i+1 = node i.
  size_t num_rings() const { return rings_.size(); }
  const TraceRing& ring(size_t i) const { return rings_[i]; }

  uint64_t total_recorded() const;
  uint64_t total_dropped() const;

 private:
  void Emit(EventKind kind, NodeId node, TxnId txn, Key key, uint64_t arg,
            SimTime when, SimTime dur);
  TraceRing& RingFor(NodeId node);

  std::function<SimTime()> now_;
  bool enabled_ = false;
  Key mirror_key_ = kNoMirror;
  size_t ring_capacity_ = kTraceRingCapacity;
  std::vector<TraceRing> rings_;
};

}  // namespace hermes::obs

// Trace macros. Arguments after the tracer pointer are NOT evaluated when
// the tracer is inactive, so call sites may compute event payloads inline
// without a guard of their own. Multi-event loops should still guard with
// HERMES_TRACE_ACTIVE and call Record() directly.
#define HERMES_TRACE_ACTIVE(tracer) ((tracer) != nullptr && (tracer)->active())
#define HERMES_TRACE(tracer, ...)                          \
  do {                                                     \
    if (HERMES_TRACE_ACTIVE(tracer)) {                     \
      (tracer)->Record(__VA_ARGS__);                       \
    }                                                      \
  } while (0)
#define HERMES_TRACE_SPAN(tracer, ...)                     \
  do {                                                     \
    if (HERMES_TRACE_ACTIVE(tracer)) {                     \
      (tracer)->RecordSpan(__VA_ARGS__);                   \
    }                                                      \
  } while (0)

#endif  // HERMES_OBS_TRACE_H_
