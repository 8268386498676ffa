#include "fault/invariant_monitor.h"

#include <cstdio>

namespace hermes::fault {

void InvariantMonitor::Fail(std::string message) {
  failures_.push_back(std::move(message));
  // Passive observability: the monitor writes the violation into the
  // trace stream (cluster scope, arg = running failure count) but never
  // reads anything back — detection stays side-effect-free for decisions.
  HERMES_TRACE(tracer_, obs::EventKind::kInvariantViolation, kInvalidNode,
               kInvalidTxn, static_cast<Key>(-1), failures_.size());
}

std::string InvariantMonitor::FailureReport() const {
  std::string out;
  for (const std::string& f : failures_) {
    out += f;
    out += '\n';
  }
  return out;
}

bool InvariantMonitor::CheckRecordSingularity(engine::Cluster& cluster,
                                              const std::string& context) {
  const size_t before = failures_.size();
  const storage::RecordTable& table = cluster.record_table();
  char buf[256];
  for (Key k = 0; k < num_records_; ++k) {
    if (table.location(k) != kInvalidNode) continue;
    if (table.in_flight_to(k) != kInvalidNode) continue;
    std::snprintf(buf, sizeof(buf),
                  "[%s] singularity: key %llu absent everywhere and not "
                  "in flight",
                  context.c_str(), static_cast<unsigned long long>(k));
    Fail(buf);
  }
  return failures_.size() == before;
}

bool InvariantMonitor::CheckNoLostRecords(engine::Cluster& cluster,
                                          const std::string& context) {
  const size_t before = failures_.size();
  char buf[256];
  const storage::RecordTable& table = cluster.record_table();
  size_t in_flight = 0;
  for (Key k = 0; k < num_records_; ++k) {
    if (table.location(k) != kInvalidNode) continue;
    if (table.in_flight_to(k) != kInvalidNode) {
      ++in_flight;
      continue;
    }
    std::snprintf(buf, sizeof(buf),
                  "[%s] key %llu is on no node at quiescence (lost record)",
                  context.c_str(), static_cast<unsigned long long>(k));
    Fail(buf);
  }
  if (in_flight > 0) {
    std::snprintf(buf, sizeof(buf),
                  "[%s] lost-records check called with %zu records still in "
                  "flight (not quiescent)",
                  context.c_str(), in_flight);
    Fail(buf);
  }
  return failures_.size() == before;
}

bool InvariantMonitor::CheckAgainstOracle(engine::Cluster& live,
                                          engine::RouterKind kind,
                                          const MapFactory& map_factory,
                                          const std::string& context) {
  const size_t before = failures_.size();
  char buf[256];
  // The oracle lives in its own simulation, runs the same config with NO
  // fault hooks, and consumes the live run's sequenced input verbatim.
  engine::Cluster oracle(live.config(), kind, map_factory());
  oracle.Load();
  oracle.ReplayBatches(live.command_log().batches());
  if (oracle.placement_digest().value() != live.placement_digest().value()) {
    std::snprintf(buf, sizeof(buf),
                  "[%s] placement digest diverged: live=%016llx "
                  "oracle=%016llx (chaos changed a routing decision)",
                  context.c_str(),
                  static_cast<unsigned long long>(
                      live.placement_digest().value()),
                  static_cast<unsigned long long>(
                      oracle.placement_digest().value()));
    Fail(buf);
  }
  if (oracle.StateChecksum() != live.StateChecksum()) {
    std::snprintf(buf, sizeof(buf),
                  "[%s] state checksum diverged: live=%016llx "
                  "oracle=%016llx (a committed write was lost or invented)",
                  context.c_str(),
                  static_cast<unsigned long long>(live.StateChecksum()),
                  static_cast<unsigned long long>(oracle.StateChecksum()));
    Fail(buf);
  }
  return failures_.size() == before;
}

bool InvariantMonitor::CheckDegradedOracle(engine::Cluster& live,
                                           engine::RouterKind kind,
                                           const MapFactory& map_factory,
                                           const std::string& context) {
  const size_t before = failures_.size();
  char buf[256];
  // Same fresh-cluster construction as CheckAgainstOracle, but the replay
  // is handed the live run's membership schedule so its batch filter makes
  // the same degraded classifications at the same batch boundaries.
  engine::Cluster oracle(live.config(), kind, map_factory());
  oracle.SetReplayMembershipSchedule(live.degraded_schedule());
  oracle.Load();
  oracle.ReplayBatches(live.command_log().batches());
  if (oracle.placement_digest().value() != live.placement_digest().value()) {
    std::snprintf(buf, sizeof(buf),
                  "[%s] degraded placement digest diverged: live=%016llx "
                  "replay=%016llx (degraded routing not a pure function of "
                  "the membership schedule)",
                  context.c_str(),
                  static_cast<unsigned long long>(
                      live.placement_digest().value()),
                  static_cast<unsigned long long>(
                      oracle.placement_digest().value()));
    Fail(buf);
  }
  if (oracle.StateChecksum() != live.StateChecksum()) {
    std::snprintf(buf, sizeof(buf),
                  "[%s] degraded state checksum diverged: live=%016llx "
                  "replay=%016llx (a committed write was lost or invented "
                  "at an epoch boundary)",
                  context.c_str(),
                  static_cast<unsigned long long>(live.StateChecksum()),
                  static_cast<unsigned long long>(oracle.StateChecksum()));
    Fail(buf);
  }
  if (oracle.executor().committed() != live.executor().committed() ||
      oracle.executor().aborted() != live.executor().aborted()) {
    std::snprintf(buf, sizeof(buf),
                  "[%s] degraded commit/abort counts diverged: "
                  "live=%zu/%zu replay=%zu/%zu",
                  context.c_str(), live.executor().committed(),
                  live.executor().aborted(), oracle.executor().committed(),
                  oracle.executor().aborted());
    Fail(buf);
  }
  return failures_.size() == before;
}

bool InvariantMonitor::CheckPartitionOracle(engine::Cluster& live,
                                            engine::RouterKind kind,
                                            const MapFactory& map_factory,
                                            const std::string& context) {
  const size_t before = failures_.size();
  char buf[256];
  const net::Wire& net = live.wire();
  if (net.any_cut()) {
    std::snprintf(buf, sizeof(buf),
                  "[%s] partition oracle called with a link still cut "
                  "(heal every cut before quiescence)",
                  context.c_str());
    Fail(buf);
  }
  if (net.messages_held() != 0) {
    std::snprintf(buf, sizeof(buf),
                  "[%s] %llu messages still parked in holding pens at "
                  "quiescence (a heal lost them — message existence "
                  "violated)",
                  context.c_str(),
                  static_cast<unsigned long long>(net.messages_held()));
    Fail(buf);
  }
  if (net.cut_deliveries() != 0) {
    std::snprintf(buf, sizeof(buf),
                  "[%s] %llu payloads delivered while their send-time cut "
                  "was still up (held messages may only land after the "
                  "heal)",
                  context.c_str(),
                  static_cast<unsigned long long>(net.cut_deliveries()));
    Fail(buf);
  }
  // A sub-threshold cut (detector never fired, no membership transitions)
  // must leave routing untouched — fault-free replay reproduces it. A cut
  // the detector converted into epochs replays under the recorded
  // membership schedule, exactly like scripted no-stall crashes.
  if (live.degraded_schedule().events.empty()) {
    CheckAgainstOracle(live, kind, map_factory, context);
  } else {
    CheckDegradedOracle(live, kind, map_factory, context);
  }
  return failures_.size() == before;
}

bool InvariantMonitor::CheckReplicaCoherence(engine::Cluster& cluster,
                                             const std::string& context) {
  const size_t before = failures_.size();
  char buf[256];
  const storage::RecordTable& table = cluster.record_table();
  // SnapshotCopies is sorted by (node, key), so the failure list is
  // deterministic across hash salts.
  for (const auto& [node, key, copy] : cluster.lease_manager().SnapshotCopies()) {
    // An in-flight primary keeps its payload in the table.
    if (table.location(key) == kInvalidNode &&
        table.in_flight_to(key) == kInvalidNode) {
      std::snprintf(buf, sizeof(buf),
                    "[%s] replica coherence: key %llu has a copy on node "
                    "%d but no primary anywhere",
                    context.c_str(), static_cast<unsigned long long>(key),
                    node);
      Fail(buf);
      continue;
    }
    const storage::Record& primary = table.record(key);
    if (primary.value != copy.value || primary.version != copy.version) {
      std::snprintf(buf, sizeof(buf),
                    "[%s] replica coherence: key %llu copy on node %d is "
                    "(value=%016llx v%u) but primary is (value=%016llx v%u)",
                    context.c_str(), static_cast<unsigned long long>(key),
                    node, static_cast<unsigned long long>(copy.value),
                    copy.version,
                    static_cast<unsigned long long>(primary.value),
                    primary.version);
      Fail(buf);
    }
  }
  return failures_.size() == before;
}

}  // namespace hermes::fault
