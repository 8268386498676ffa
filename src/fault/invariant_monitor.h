#ifndef HERMES_FAULT_INVARIANT_MONITOR_H_
#define HERMES_FAULT_INVARIANT_MONITOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/cluster.h"
#include "partition/partition_map.h"

namespace hermes::fault {

/// Builds the fresh partition map a replayed cluster (recovery's shadow
/// or CheckQuiescent's replay) starts from.
using MapFactory = std::function<std::unique_ptr<partition::PartitionMap>()>;

/// Checks the engine's safety invariants while (and after) faults are
/// injected. Every check appends a human-readable diagnostic to
/// failures() on violation and returns whether it passed, so a chaos test
/// can assert `monitor.ok()` once and print everything that went wrong.
///
/// All checks probe the dense key space 0..config().num_records-1 through
/// the cluster's record table (one location per key) and the executor's
/// in-flight table — no unordered iteration, so the monitor itself cannot
/// perturb or depend on hash order.
class InvariantMonitor {
 public:
  /// Record singularity: every key is located at a node or in flight
  /// toward one. The record table holds one location per key, so "present
  /// twice" or "present and in flight" cannot be expressed; what is left to
  /// catch is a key that is neither. Callable at any instant, including
  /// mid-outage.
  bool CheckRecordSingularity(engine::Cluster& cluster,
                              const std::string& context);

  /// Everything that must hold once a run has drained (call after the
  /// final rejoin and heal, then Drain()):
  ///  - nothing is in flight and every key is located at a node — a
  ///    missing key is a lost record;
  ///  - the wire healed: no link still cut, no payload parked in a
  ///    holding pen (a lost message), none delivered across a live cut;
  ///  - every replica copy matches its primary bit for bit (value and
  ///    version) — a disagreeing copy means a commit fan-out was lost,
  ///    reordered past version-max, or applied to a lapsed lease;
  ///  - replay: a fresh cluster built from `fresh_map()`, told the live
  ///    run's membership schedule (crash/rejoin epochs and watchdog
  ///    aborts, all pure functions of the fault plan; empty in a
  ///    fault-free run), Load()s and replays the live command log. The
  ///    placement digest, StateChecksum and committed/aborted counts must
  ///    match: the log IS the database, so chaos may perturb timing but
  ///    never a routing decision, and no committed write is lost or
  ///    invented at any epoch boundary.
  bool CheckQuiescent(engine::Cluster& live, const MapFactory& fresh_map,
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
  /// Appends one printf-formatted failure.
  void Fail(const char* format, ...) __attribute__((format(printf, 2, 3)));

  std::vector<std::string> failures_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace hermes::fault

#endif  // HERMES_FAULT_INVARIANT_MONITOR_H_
