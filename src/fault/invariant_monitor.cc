#include "fault/invariant_monitor.h"

#include <cstdarg>
#include <cstdio>

namespace hermes::fault {

void InvariantMonitor::Fail(const char* format, ...) {
  char message[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(message, sizeof(message), format, args);
  va_end(args);
  failures_.emplace_back(message);
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
  for (Key k = 0; k < cluster.config().num_records; ++k) {
    if (table.location(k) != kInvalidNode) continue;
    if (table.in_flight_to(k) != kInvalidNode) continue;
    Fail("[%s] singularity: key %llu absent everywhere and not in flight",
         context.c_str(), static_cast<unsigned long long>(k));
  }
  return failures_.size() == before;
}

bool InvariantMonitor::CheckQuiescent(engine::Cluster& live,
                                      const MapFactory& fresh_map,
                                      const std::string& context) {
  const size_t before = failures_.size();
  const char* ctx = context.c_str();

  // Every key at a node, none in flight.
  const storage::RecordTable& table = live.record_table();
  size_t in_flight = 0;
  for (Key k = 0; k < live.config().num_records; ++k) {
    if (table.location(k) != kInvalidNode) continue;
    if (table.in_flight_to(k) != kInvalidNode) {
      ++in_flight;
      continue;
    }
    Fail("[%s] key %llu is on no node at quiescence (lost record)", ctx,
         static_cast<unsigned long long>(k));
  }
  if (in_flight > 0) {
    Fail("[%s] %zu records still in flight (not quiescent)", ctx, in_flight);
  }

  // The wire healed. Without partitions all three hold trivially.
  const net::Wire& wire = live.wire();
  for (NodeId src = 0; src < live.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < live.num_nodes(); ++dst) {
      if (src == dst || wire.reachable(src, dst)) continue;
      Fail("[%s] link %d->%d still cut at quiescence (heal every cut "
           "before draining)",
           ctx, src, dst);
    }
  }
  if (wire.messages_held() != 0) {
    Fail("[%s] %llu messages still parked in holding pens at quiescence "
         "(a lost message)",
         ctx, static_cast<unsigned long long>(wire.messages_held()));
  }
  if (wire.cut_deliveries() != 0) {
    Fail("[%s] %llu payloads delivered while their send-time cut was "
         "still up",
         ctx, static_cast<unsigned long long>(wire.cut_deliveries()));
  }

  // Replica coherence. SnapshotCopies is sorted by (node, key), so the
  // failure list is deterministic across hash salts; an in-flight primary
  // keeps its payload in the table.
  for (const auto& [node, key, copy] : live.lease_manager().SnapshotCopies()) {
    if (table.location(key) == kInvalidNode &&
        table.in_flight_to(key) == kInvalidNode) {
      Fail("[%s] replica coherence: key %llu has a copy on node %d but no "
           "primary anywhere",
           ctx, static_cast<unsigned long long>(key), node);
      continue;
    }
    const storage::Record& primary = table.record(key);
    if (primary.value == copy.value && primary.version == copy.version) {
      continue;
    }
    Fail("[%s] replica coherence: key %llu copy on node %d is "
         "(value=%016llx v%u) but primary is (value=%016llx v%u)",
         ctx, static_cast<unsigned long long>(key), node,
         static_cast<unsigned long long>(copy.value), copy.version,
         static_cast<unsigned long long>(primary.value), primary.version);
  }

  // Replay: its own simulation, the same config, no fault hooks, the live
  // run's sequenced input verbatim. The membership schedule makes the
  // replay's batch filter drop, park and abort exactly what the live run
  // did at the same batch boundaries.
  engine::Cluster replay(live.config(), live.kind(), fresh_map());
  replay.SetReplayMembershipSchedule(live.degraded_schedule());
  replay.Load();
  replay.ReplayBatches(live.command_log().batches());
  if (replay.placement_digest().value() != live.placement_digest().value()) {
    Fail("[%s] placement digest diverged: live=%016llx replay=%016llx "
         "(a routing decision depends on more than the log and the "
         "membership schedule)",
         ctx,
         static_cast<unsigned long long>(live.placement_digest().value()),
         static_cast<unsigned long long>(replay.placement_digest().value()));
  }
  if (replay.StateChecksum() != live.StateChecksum()) {
    Fail("[%s] state checksum diverged: live=%016llx replay=%016llx (a "
         "committed write was lost or invented)",
         ctx, static_cast<unsigned long long>(live.StateChecksum()),
         static_cast<unsigned long long>(replay.StateChecksum()));
  }
  if (replay.executor().committed() != live.executor().committed() ||
      replay.executor().aborted() != live.executor().aborted()) {
    Fail("[%s] commit/abort counts diverged: live=%zu/%zu replay=%zu/%zu",
         ctx, live.executor().committed(), live.executor().aborted(),
         replay.executor().committed(), replay.executor().aborted());
  }
  return failures_.size() == before;
}

}  // namespace hermes::fault
