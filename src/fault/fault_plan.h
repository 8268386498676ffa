#ifndef HERMES_FAULT_FAULT_PLAN_H_
#define HERMES_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace hermes::fault {

/// Per-message link chaos parameters. All draws come from one seeded
/// hermes::Rng consumed in net::Wire transmit order (which is itself
/// deterministic), so a (plan seed, workload seed) pair fixes every fault.
///
/// Chaos rides ON TOP of a reliable transport — the engine's correctness
/// invariants assume messages eventually arrive exactly once, so:
///   - a "drop" is a lost wire attempt that the transport retransmits:
///     the sender pays the bytes again and delivery slips by a
///     retransmit timeout, but the payload still lands exactly once;
///   - a "duplicate" is an extra wire copy the receiver's dedup layer
///     absorbs: bytes flow twice, the callback fires once;
///   - "jitter" is plain extra delivery delay.
/// This perturbs timing, byte counters and therefore the event
/// interleaving — which is exactly the surface a deterministic database
/// must be immune to — without ever forging or losing a record.
struct LinkChaosConfig {
  double drop_prob = 0.0;       ///< per wire attempt
  double duplicate_prob = 0.0;  ///< per delivered message
  SimTime max_jitter_us = 0;    ///< uniform extra delay in [0, max]
  SimTime retransmit_delay_us = 200;  ///< added per lost attempt
  int max_drops_per_message = 3;      ///< bounds the retransmit storm

  // --- Gray failure (DESIGN.md §5 "Partitions & failure detection"). ---
  // A persistently slow/lossy window on every link touching gray_node:
  // within [gray_from_us, gray_until_us) data-plane messages suffer extra
  // drops (still bounded retransmits — timing and bytes only, never
  // message loss) and extra delay, and heartbeats are dropped with their
  // own probability so the failure detector can see the gray link even
  // though payloads keep (slowly) landing. All draws stay pure functions
  // of (seed, link, sequence number / tick): the window boundary is
  // virtual time, which is itself deterministic.
  SimTime gray_from_us = 0;
  SimTime gray_until_us = 0;  ///< 0 = no gray window
  NodeId gray_node = kInvalidNode;
  double gray_drop_prob = 0.0;       ///< extra per-attempt drop inside window
  SimTime gray_extra_delay_us = 0;   ///< added to every delivery in window
  double gray_heartbeat_drop_prob = 0.0;  ///< per heartbeat per direction

  bool has_gray() const {
    return gray_until_us > gray_from_us && gray_node != kInvalidNode;
  }

  bool operator==(const LinkChaosConfig&) const = default;
};

/// Shape of one network partition event (which directions of the victim's
/// links are cut). Asymmetric cuts model one-way failures (a NIC that can
/// send but not receive, or vice versa).
enum class PartitionMode : uint8_t {
  kTwoSided,  ///< both directions between the victim and every peer
  kInbound,   ///< sends TOWARD the victim are cut; victim can still send
  kOutbound,  ///< sends FROM the victim are cut; victim still receives
};

const char* PartitionModeName(PartitionMode mode);

/// One scheduled fault.
struct FaultEvent {
  enum class Kind {
    kCrash,         ///< node loses its volatile store; cluster intake stalls
    kRejoin,        ///< crashed node rebuilds from checkpoint + log replay
    kCrashNoStall,  ///< node dies but the cluster keeps sequencing: routers
                    ///< route around it, ordered txns touching it are parked
                    ///< or retried deterministically (degraded mode)
    kPartitionStart,  ///< cut the victim's links per `mode`; the network
                      ///< parks cut sends in per-link FIFO pens and the
                      ///< failure detector converts sustained
                      ///< unreachability into degraded-mode epochs
    kPartitionHeal,   ///< remove the cut and release the pens in FIFO order
  };
  SimTime at = 0;
  Kind kind = Kind::kCrash;
  /// Crashed/rejoining/partitioned node.
  NodeId node = kInvalidNode;
  /// Cut shape for kPartitionStart (a heal always removes every cut the
  /// matching start installed); ignored for other kinds.
  PartitionMode mode = PartitionMode::kTwoSided;

  bool operator<(const FaultEvent& o) const {
    if (at != o.at) return at < o.at;
    if (kind != o.kind) return static_cast<int>(kind) < static_cast<int>(o.kind);
    if (node != o.node) return node < o.node;
    return static_cast<int>(mode) < static_cast<int>(o.mode);
  }
};

struct FaultPlanConfig {
  SimTime horizon_us = SecToSim(10);  ///< faults are drawn within [0, horizon)
  int num_nodes = 4;
  /// Crash/rejoin pairs to schedule. Each cycle picks a node and an outage
  /// window inside its own slot of the horizon, so cycles never overlap.
  int crash_cycles = 1;
  SimTime min_outage_us = MsToSim(50);
  SimTime max_outage_us = MsToSim(400);
  /// Emit kCrashNoStall instead of kCrash: the cluster degrades (keeps
  /// sequencing around the victim) instead of stalling intake.
  bool no_stall = false;
  /// Partition start/heal pairs to schedule. Like crash cycles, each pair
  /// lives in its own slot of the horizon so a link is never cut twice
  /// concurrently; every start is always paired with a heal inside its
  /// slot (the pen must drain before the run ends). Partition victims are
  /// drawn from nodes that no crash cycle touches, so a detector-suspected
  /// node never collides with an injector-crashed one. Requires
  /// `no_stall` crashes when combined with crash_cycles > 0: a
  /// stall-and-drain crash would drain against a cut and never quiesce.
  int partition_cycles = 0;
  SimTime min_partition_us = MsToSim(50);
  SimTime max_partition_us = MsToSim(400);
  /// Probability a partition is asymmetric (one-way); direction is then a
  /// fair coin between inbound and outbound.
  double one_way_fraction = 0.0;
  /// Draw one gray-failure window (slow/lossy links around one node) in
  /// the middle of the horizon; parameters below are copied into
  /// LinkChaosConfig with a seeded victim and window.
  bool gray = false;
  double gray_drop_prob = 0.35;
  SimTime gray_extra_delay_us = 400;
  double gray_heartbeat_drop_prob = 0.9;
  LinkChaosConfig link;

  bool operator==(const FaultPlanConfig&) const = default;
};

/// A seeded, totally ordered schedule of fault events plus the link-chaos
/// parameters to install for the run. Pure function of (config, seed).
struct FaultPlan {
  std::vector<FaultEvent> events;  ///< sorted by (at, kind, node)
  LinkChaosConfig link;
  uint64_t seed = 0;

  static FaultPlan Generate(const FaultPlanConfig& config, uint64_t seed);

  std::string DebugString() const;
};

}  // namespace hermes::fault

#endif  // HERMES_FAULT_FAULT_PLAN_H_
