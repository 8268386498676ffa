#ifndef HERMES_COMMON_CONFIG_H_
#define HERMES_COMMON_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/types.h"

namespace hermes {

/// CPU / wire cost model for the discrete-event cluster. All times are in
/// simulated microseconds. Defaults approximate the paper's testbed
/// (Core i5-4460, 10 GbE switch, 1 KB records).
struct CostModel {
  /// One local storage read or write of a record.
  SimTime storage_op_us = 30;
  /// Fixed transaction-logic cost charged on an executor worker.
  SimTime txn_logic_us = 400;
  /// Per-record transaction-logic cost.
  SimTime txn_logic_per_record_us = 40;
  /// CPU time a master spends receiving/deserializing one inbound record
  /// shipment (charged with the execution work).
  SimTime msg_processing_us = 25;
  /// One-way message latency between any two nodes (same data center).
  SimTime net_latency_us = 100;
  /// Wire time per byte; 10 Gbps is 0.8 ns/byte, rounded up.
  double net_us_per_byte = 0.001;
  /// Payload size of one migrated/remotely-read record.
  uint32_t record_bytes = 1024;
  /// Fixed per-message framing overhead in bytes.
  uint32_t message_overhead_bytes = 64;
  /// Round trip to the total-order (Zab) leader for batch sequencing.
  SimTime total_order_us = 400;
  /// Scheduler cost of routing one transaction (linear term). The
  /// quadratic term and the command-log cost are constants next to their
  /// readers (routing/router.cc, engine/scheduler.cc).
  SimTime route_linear_us = 1;

  bool operator==(const CostModel&) const = default;
};

/// Policy for evicting entries from a bounded fusion table (§4.1). Both
/// policies are deterministic, which the replicated table requires.
enum class EvictionPolicy { kFifo, kLru };

/// Configuration of the prescient transaction routing and fusion table.
struct HermesConfig {
  /// Load-imbalance tolerance alpha in theta = ceil(b/n * (1+alpha)).
  double alpha = 0.0;
  /// Maximum number of (key, partition) entries in the fusion table;
  /// 0 means unbounded.
  size_t fusion_table_capacity = 0;
  EvictionPolicy eviction_policy = EvictionPolicy::kLru;

  // --- Ablation switches (all true in the paper's algorithm). ---
  /// Step 1 reorders transactions; off = keep the sequencer order and only
  /// choose routes (isolates the benefit of reordering, e.g. the Fig. 3
  /// ping-pong avoidance).
  bool enable_reorder = true;
  /// Step 3 rebalances off overloaded nodes; off = pure locality routing
  /// (degenerates toward LEAP-like pile-up under skew).
  bool enable_rebalance = true;
  /// Step 3 walks the reordered batch backward (the paper's choice: later
  /// transactions disturb fewer subsequent reads); off = forward walk.
  bool backward_pass = true;

  bool operator==(const HermesConfig&) const = default;
};

/// Replica-lease parameters (adaptive read-replication for hot keys; see
/// DESIGN.md §5 "Replica leases"). Every decision derived from these knobs
/// is a pure function of (routing plan, config, seed): grants and revokes
/// are evaluated at batch boundaries from windowed access counters, holders
/// are the lowest-id alive candidates — never hash order, never wall clock.
struct ReplicationConfig {
  /// Master switch. Off by default: the lease subsystem costs nothing and
  /// changes no digest when disabled.
  bool enabled = false;
  /// Read-only copies per leased key (clamped to the candidate set minus
  /// the primary).
  int replicas = 3;
  /// Reads a key must accumulate inside the decay window to be granted a
  /// lease.
  uint32_t read_hot_threshold = 8;
  /// Writes inside the window above which a lease is revoked (and a grant
  /// suppressed): read-mostly keys keep their leases, write-heavy keys
  /// fall back to plain migration.
  uint32_t write_revoke_threshold = 2;
  /// Batches between counter decays (counters halve), bounding how long
  /// stale popularity lingers. At least 1 (ClusterConfig::Validate).
  uint64_t window_batches = 8;
  /// Upper bound on concurrently leased keys. At the cap no new lease is
  /// granted (nothing is revoked to make room) until a write-heavy revoke
  /// or a membership lapse frees a slot.
  size_t max_leases = 64;

  bool operator==(const ReplicationConfig&) const = default;
};

/// Heartbeat failure-detector switch (partition-aware degraded mode;
/// DESIGN.md §5 "Partitions & failure detection"). The detector ticks on
/// the control lane in virtual time: every decision it makes — miss
/// counts, suspicion, restore — is a pure function of (tick index, link
/// reachability), so detector-driven membership epochs are identical
/// across hash salts. Its period and thresholds are constants in
/// engine/failure_detector.h.
struct DetectorConfig {
  /// Master switch. Off by default: no tick chain is ever armed and the
  /// cluster behaves exactly as before (digests unchanged).
  bool enabled = false;

  bool operator==(const DetectorConfig&) const = default;
};

/// Wire-substrate (src/net/) parameters: bounded-bandwidth links, envelope
/// coalescing, and deterministic backpressure (DESIGN.md §5 "Wire
/// substrate"). Every queueing, scheduling and coalescing decision is a
/// pure function of (config, totally ordered per-link send sequence) in
/// virtual time — never wall clock, never hash order — so digests are
/// identical across hash salts.
struct NetConfig {
  /// Master switch. Off by default: Wire::Send puts every message straight
  /// on the wire (no queue, serializer, credits or envelopes) and every
  /// digest is bit-identical to a build without the substrate.
  bool enabled = false;
  /// Serialization rate of each directed link's transmitter. 0 derives the
  /// rate from the cost model (1 / net_us_per_byte), which makes the
  /// substrate's queueing occupancy agree exactly with the per-byte wire
  /// time the network already charges: delivery = propagation + queueing +
  /// size/rate with no double-charging. A non-zero override models a NIC
  /// slower (or faster) than the wire; it changes occupancy only.
  double bytes_per_us = 0;
  /// Outstanding-bytes window per directed link: transmitted-but-not-yet-
  /// delivered wire bytes above which the transmitter stalls until credits
  /// return on delivery. A message is always admitted when the link has
  /// nothing outstanding, so one oversized message can never wedge a link.
  /// 0 disables backpressure.
  uint64_t link_credit_bytes = 64 * 1024;
  /// Virtual time a bulk envelope stays open collecting messages for one
  /// destination before it is sealed onto the transmit queue. All bulk
  /// messages appended within the window ride one wire message (one
  /// framing header) and are opened in append order at delivery.
  /// 0 disables coalescing (every bulk message is its own envelope).
  SimTime coalesce_window_us = 50;
  /// Seals an open envelope early once its payload reaches this size;
  /// 0 means no size cap.
  uint64_t coalesce_max_bytes = 16 * 1024;

  bool operator==(const NetConfig&) const = default;
};

/// Observability (src/obs/) parameters. Tracing is strictly passive —
/// nothing here may change a decision — so this knob only affects what
/// gets recorded, never what the cluster does.
struct ObsConfig {
  /// Record span/instant events into the per-node trace rings
  /// (obs::kTraceRingCapacity events each). Off by default: a disabled
  /// tracer costs one null check per trace site. The HERMES_TRACE env var
  /// (any non-"0" value) also enables it.
  bool trace_enabled = false;

  bool operator==(const ObsConfig&) const = default;
};

/// Simulator (src/sim/) parameters. Compatibility stub: the simulator runs
/// its epoch schedule sequentially on the calling thread, and `threads`
/// remains only because the benchmark harness under ledger/ still assigns
/// it. Its only legal value is 0 (ClusterConfig::Validate). Delete the
/// struct once ledger/ stops setting it.
struct SimConfig {
  int threads = 0;

  bool operator==(const SimConfig&) const = default;
};

/// Top-level configuration of a simulated cluster.
struct ClusterConfig {
  int num_nodes = 4;
  /// Executor worker threads per node (paper hardware had 4 cores).
  int workers_per_node = 4;
  /// Sequencer epoch: requests are cut into batches every epoch.
  SimTime epoch_us = 10 * 1000;
  /// Upper bound on transactions per node-batch; 0 means unbounded.
  size_t max_batch_size = 0;
  /// Total number of records in the database.
  uint64_t num_records = 1'000'000;
  /// Deterministic seed for all engine-side randomness.
  uint64_t seed = 42;
  CostModel costs;
  HermesConfig hermes;
  /// Number of records moved by one cold-migration chunk transaction.
  size_t migration_chunk_records = 1000;
  /// Probability that an OLLP reconnaissance prediction is stale by the
  /// time the transaction executes, forcing a deterministic abort and one
  /// retry (§2.1). Drawn from the cluster's seeded RNG.
  double ollp_stale_prob = 0.05;
  /// Degraded mode (no-stall crashes) has no knobs: its retry, watchdog
  /// and reclaim timings are constants in engine/degraded.h.
  DetectorConfig detector;
  ReplicationConfig replication;
  NetConfig net;
  ObsConfig obs;
  SimConfig sim;

  /// The one rule list for values the code cannot run with; the error
  /// names the field. Cluster's constructor aborts on an error, and
  /// workload::Scenario::Parse returns it.
  Status Validate() const;

  bool operator==(const ClusterConfig&) const = default;
};

}  // namespace hermes

#endif  // HERMES_COMMON_CONFIG_H_
