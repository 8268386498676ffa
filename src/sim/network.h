#ifndef HERMES_SIM_NETWORK_H_
#define HERMES_SIM_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace hermes::sim {

/// How the fault layer perturbs one message (see src/fault/link_chaos.h).
/// The engine above the network assumes a *reliable, exactly-once*
/// transport, so chaos is modeled underneath that contract: a dropped wire
/// attempt is retransmitted (costing extra bytes and delay), a duplicated
/// attempt is suppressed by receiver-side dedup (costing bytes in both
/// directions but delivering the callback exactly once), and jitter delays
/// delivery. Delivery is therefore delayed and more expensive, never lost —
/// which keeps record singularity and lock-ordering invariants intact.
struct Perturbation {
  /// Wire attempts lost before the one that lands (each costs sender bytes
  /// and contributes `extra_delay_us` backoff chosen by the fault layer).
  int dropped_attempts = 0;
  /// Redundant delivered copies deduplicated by the transport (each costs
  /// bytes at both ends; the delivery callback still fires once).
  int duplicates = 0;
  /// Extra delivery delay: jitter plus retransmission backoff.
  SimTime extra_delay_us = 0;
};

/// Point-to-point message fabric between simulated nodes. Delivery time is
/// latency + bytes * us_per_byte; per-node byte counters feed the Fig. 8
/// network-usage series. Messages between a node and itself are delivered
/// after zero wire time (still asynchronously, preserving event ordering).
///
/// Under the epoch schedule the fabric is the epoch-crossing edge: a Send
/// may run on the source node's lane, and the delivery callback is
/// scheduled onto the *destination* node's lane, which also charges the
/// receive-side counters.
class Network {
 public:
  /// Decides the perturbation for one inter-node message. Must be a pure
  /// function of (seed, src, dst, bytes, link_seq) — never of wall clock
  /// or shared mutable state — so chaos draws are deterministic.
  /// `link_seq` is the 0-based sequence
  /// number of this message on the directed link src -> dst.
  using PerturbationFn =
      std::function<Perturbation(NodeId src, NodeId dst, uint64_t bytes,
                                 SimTime now, uint64_t link_seq)>;

  Network(Simulator* sim, const CostModel* costs, int num_nodes);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Sends `payload_bytes` of application payload from `src` to `dst` and
  /// runs `on_delivery` when the message lands (on node `dst`'s lane).
  /// Framing overhead is added to the byte count automatically. May be
  /// called from `src`'s lane or from exclusive context. `cls` only tags
  /// the per-class byte/message counters (Fig. 8's foreground-vs-migration
  /// split): it never changes timing or ordering at this layer — the wire
  /// substrate (src/net/) schedules classes above this fabric.
  void Send(NodeId src, NodeId dst, uint64_t payload_bytes,
            std::function<void()> on_delivery,
            TrafficClass cls = TrafficClass::kForeground);

  /// Grows counters when nodes are added by dynamic provisioning.
  /// Exclusive context only.
  void EnsureCapacity(int num_nodes);

  // --- Partitions (DESIGN.md §5 "Partitions & failure detection"). ---
  //
  // The reachability matrix cuts *directed* links. Cut semantics are
  // send-time: a message already on the wire when the cut lands still
  // delivers (the receiver's transport buffer outlives the cut, matching
  // the crash model), but a Send into a live cut is parked — payload,
  // perturbation draw and byte charges intact — in a per-link FIFO
  // holding pen and released only by HealLink. Message existence is
  // preserved end-to-end, so record singularity and lock order survive a
  // partition the same way they survive chaos. Cuts are installed and
  // healed only in exclusive context (the fault layer drives them between
  // epochs); lanes read the matrix, which is stable within an epoch.

  /// Cuts the directed link src -> dst. Exclusive context only.
  void CutLink(NodeId src, NodeId dst);

  /// Heals the directed link src -> dst and releases its holding pen in
  /// FIFO order: each parked message is re-scheduled onto the destination
  /// lane with its original wire time measured from now. Exclusive
  /// context only.
  void HealLink(NodeId src, NodeId dst);

  /// False while the directed link src -> dst is cut.
  bool reachable(NodeId src, NodeId dst) const;
  /// True while any directed link is cut.
  bool any_cut() const { return cut_links_ > 0; }
  /// Messages currently parked in holding pens.
  uint64_t messages_held() const;
  /// Cumulative messages ever parked (pen throughput).
  uint64_t total_held() const { return messages_held_total_; }
  /// Payloads that landed while their send-time cut was STILL up. The
  /// partition oracle requires this to stay zero: a held message may only
  /// deliver after its heal.
  uint64_t cut_deliveries() const { return cut_deliveries_; }

  /// Installs (or clears, with nullptr) the fault-injection hook consulted
  /// for every inter-node message.
  void set_perturbation(PerturbationFn fn) { perturb_ = std::move(fn); }

  uint64_t total_bytes() const { return Sum(bytes_sent_); }
  uint64_t total_messages() const { return messages_sent_; }
  uint64_t bytes_sent(NodeId node) const { return bytes_sent_[node]; }

  /// Wire bytes sent (all attempts) carrying messages of `cls`.
  uint64_t class_bytes_sent(TrafficClass cls) const {
    return class_bytes_sent_[static_cast<int>(cls)];
  }

  /// Bytes successfully delivered to `node` (equals the send-side count
  /// minus in-flight and dropped wire attempts, plus duplicated copies).
  uint64_t bytes_received(NodeId node) const { return bytes_received_[node]; }
  uint64_t total_bytes_received() const { return Sum(bytes_received_); }
  uint64_t messages_received(NodeId node) const {
    return messages_received_[node];
  }

  /// Wire attempts (including drops and duplicates) on the directed link
  /// src -> dst.
  uint64_t link_messages(NodeId src, NodeId dst) const {
    return link_messages_[src][dst];
  }

  /// Wire attempts lost to fault injection (each was retransmitted).
  uint64_t messages_dropped() const { return messages_dropped_; }
  /// Redundant duplicate deliveries suppressed by transport dedup.
  uint64_t messages_duplicated() const { return messages_duplicated_; }

 private:
  /// One parked message: everything the delivery closure needs, with the
  /// perturbation already drawn (the draw is keyed by the send-time
  /// link_seq, so parking does not shift any other message's draw).
  struct HeldMessage {
    uint64_t bytes = 0;
    uint64_t delivered = 0;  ///< copies to charge the receiver
    SimTime wire = 0;        ///< wire time, re-measured from the heal point
    std::function<void()> cb;
  };

  static uint64_t Sum(const std::vector<uint64_t>& row);
  void ScheduleDelivery(NodeId src, NodeId dst, uint64_t bytes,
                        uint64_t delivered, SimTime wire, bool was_held,
                        std::function<void()> cb);

  /// Every per-node counter row and per-link matrix, grown in one place so
  /// a new one cannot be forgotten by a resize site. Rows are registered
  /// once in the constructor; EnsureCapacity walks the lists.
  std::vector<std::vector<uint64_t>*> counter_rows_;
  std::vector<std::vector<std::vector<uint64_t>>*> counter_matrices_;

  Simulator* sim_;
  const CostModel* costs_;
  /// Per-node rows behind the per-node accessors: bytes sent by node n
  /// (all attempts), and bytes and messages delivered to it.
  std::vector<uint64_t> bytes_sent_;
  std::vector<uint64_t> bytes_received_;
  std::vector<uint64_t> messages_received_;
  uint64_t messages_sent_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t messages_duplicated_ = 0;
  /// Wire bytes sent (all attempts), indexed by TrafficClass.
  uint64_t class_bytes_sent_[kNumTrafficClasses] = {};
  /// link_messages_[src][dst]: wire attempts on the directed link.
  std::vector<std::vector<uint64_t>> link_messages_;
  /// send_seq_[src][dst]: messages initiated on the directed link; feeds
  /// the perturbation hook its per-link sequence number.
  std::vector<std::vector<uint64_t>> send_seq_;
  /// cut_[src][dst] != 0 while the directed link is cut. Mutated only in
  /// exclusive context; lanes read it (stable within an epoch).
  std::vector<std::vector<uint8_t>> cut_;
  int cut_links_ = 0;
  /// held_[src][dst]: FIFO holding pen, pushed by Send and flushed by
  /// HealLink in exclusive context.
  std::vector<std::vector<std::deque<HeldMessage>>> held_;
  uint64_t messages_held_total_ = 0;
  /// Charged by the delivery event when a held message lands under a
  /// still-live cut — must stay zero.
  uint64_t cut_deliveries_ = 0;
  PerturbationFn perturb_;
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_NETWORK_H_
