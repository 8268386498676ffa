#ifndef HERMES_FAULT_INVARIANT_MONITOR_H_
#define HERMES_FAULT_INVARIANT_MONITOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/cluster.h"
#include "partition/partition_map.h"

namespace hermes::fault {

/// Checks the engine's safety invariants while (and after) faults are
/// injected. Every check appends a human-readable diagnostic to
/// failures() on violation and returns whether it passed, so a chaos test
/// can assert `monitor.ok()` once and print everything that went wrong.
///
/// All checks probe the dense key space 0..num_records-1 through the
/// cluster's record table (one location per key) and the executor's
/// in-flight table — no unordered iteration, so the monitor itself cannot
/// perturb or depend on hash order.
class InvariantMonitor {
 public:
  using MapFactory =
      std::function<std::unique_ptr<partition::PartitionMap>()>;

  explicit InvariantMonitor(uint64_t num_records)
      : num_records_(num_records) {}

  /// Record singularity: every key is located at a node or in flight
  /// toward one. The record table holds one location per key, so "present
  /// twice" or "present and in flight" cannot be expressed; what is left to
  /// catch is a key that is neither. Callable at any instant, including
  /// mid-outage.
  bool CheckRecordSingularity(engine::Cluster& cluster,
                              const std::string& context);

  /// Quiescent completeness: nothing in flight and every key located at
  /// a node. Call after Drain() — a missing key here is a lost
  /// record (e.g. a committed write discarded by a crash and never
  /// rebuilt).
  bool CheckNoLostRecords(engine::Cluster& cluster,
                          const std::string& context);

  /// Compares the live (chaos-perturbed) cluster against a fault-free
  /// oracle: a fresh cluster that Load()s and replays the live cluster's
  /// command log verbatim. Asserts (a) placement-digest equality — chaos
  /// may perturb event timing but never what the router decided for the
  /// sequenced batch stream — and (b) StateChecksum equality, which is the
  /// "no committed write lost, no phantom write invented" check: the log
  /// IS the database, so the live stores must match what pure replay
  /// produces. Call at quiescence (after Drain()).
  bool CheckAgainstOracle(engine::Cluster& live, engine::RouterKind kind,
                          const MapFactory& map_factory,
                          const std::string& context);

  /// Degraded-mode oracle (DESIGN.md §5 "Degraded mode"): like
  /// CheckAgainstOracle, but the replay is TOLD the live run's membership
  /// schedule (epoch-numbered crash/rejoin events and watchdog-abort
  /// records, all pure functions of the fault plan) so it drops the same
  /// blocked transactions, parks the same chunks, and flips the same
  /// user-aborts at the same batch boundaries. Asserts the post-epoch
  /// placement digest, the state checksum and the committed/aborted counts
  /// all match — i.e. no committed write was lost at any epoch boundary
  /// and degraded routing stayed a pure function of (plan, config). Call
  /// at quiescence after the final rejoin.
  bool CheckDegradedOracle(engine::Cluster& live, engine::RouterKind kind,
                           const MapFactory& map_factory,
                           const std::string& context);

  /// Replica-lease coherence (DESIGN.md §5 "Replica leases"): every copy
  /// the lease manager holds matches its primary record bit-for-bit
  /// (value and version). The primary is the key's record in the record
  /// table, whether it is stored at a node or in flight. Call at
  /// quiescence; a quiesced copy that disagrees with its primary means a
  /// commit fan-out was lost, reordered past version-max, or applied to a
  /// lapsed lease.
  bool CheckReplicaCoherence(engine::Cluster& cluster,
                             const std::string& context);

  /// Partition oracle (DESIGN.md §5 "Partitions & failure detection").
  /// Call at quiescence after every cut healed. Asserts (a) every holding
  /// pen drained — a parked payload that never delivered is a lost
  /// message, (b) Wire::cut_deliveries() == 0 — no payload crossed a
  /// cut while it was up, (c) no link is still cut; then replays the
  /// command log: against the degraded oracle when the run recorded
  /// membership transitions (the detector fired), else against the
  /// fault-free oracle (the cut stayed below the detection threshold, so
  /// routing must be chaos-invariant as usual).
  bool CheckPartitionOracle(engine::Cluster& live, engine::RouterKind kind,
                            const MapFactory& map_factory,
                            const std::string& context);

  /// Observability taps (strictly passive, satellite of DESIGN.md §5
  /// "Observability"): when attached, every Fail() also records a
  /// kInvariantViolation trace event — so a chaos run's trace shows WHEN
  /// a check failed, not just that it did.
  void AttachTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  std::string FailureReport() const;

 private:
  void Fail(std::string message);

  uint64_t num_records_;
  std::vector<std::string> failures_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace hermes::fault

#endif  // HERMES_FAULT_INVARIANT_MONITOR_H_
