#ifndef HERMES_NET_WIRE_H_
#define HERMES_NET_WIRE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/config.h"
#include "common/slot_pool.h"
#include "common/types.h"
#include "obs/telemetry.h"
#include "sim/callback.h"
#include "sim/simulator.h"

namespace hermes::net {

/// How the fault layer perturbs one message (see src/fault/link_chaos.h).
/// The engine above the wire assumes a *reliable, exactly-once* transport,
/// so chaos is modeled underneath that contract: a dropped wire attempt is
/// retransmitted (costing extra bytes and delay), a duplicated attempt is
/// suppressed by receiver-side dedup (costing bytes in both directions but
/// delivering the callback exactly once), and jitter delays delivery.
/// Delivery is therefore delayed and more expensive, never lost — which
/// keeps record singularity and lock-ordering invariants intact.
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

/// The message fabric between simulated nodes (DESIGN.md §5 "Wire
/// substrate"): every directed link src -> dst is one Link holding its
/// reachability, holding pen, counters, transmit queue, serializer, credit
/// window and open envelope.
///
/// A message's wire time is latency + bytes * us_per_byte (+ the fault
/// layer's extra delay); byte counters feed the Fig. 8 network-usage
/// series. Messages between a node and itself are delivered after zero
/// wire time (still asynchronously, preserving event ordering).
///
/// With `config.net.enabled` the links are bounded: a message waits until
/// the link's serializer (rate `bytes_per_us`) is free (queueing), occupies
/// it for size/rate (serialization), and only then goes on the wire —
/// whose per-byte charge *is* the serialization time when the rate is
/// derived from the cost model, so delivery = queueing + serialization +
/// propagation with nothing double-charged. Under contention a fixed 4:1
/// foreground:bulk round-robin arbitrates the classes, and per-link
/// outstanding-bytes credit windows (returned on delivery) provide
/// backpressure. Bulk traffic to one destination coalesces into envelopes:
/// messages appended within a virtual-time window ride one wire message
/// (one framing header) and their delivery callbacks run in append order.
/// With the substrate disabled every Send goes straight on the wire.
///
/// Determinism: every queueing, scheduling and coalescing decision is a
/// pure function of (config, the totally ordered per-link send sequence,
/// virtual time) — never wall clock, never hash order. Link state
/// links_[src] belongs to node src's lane (or the exclusive slice); the
/// delivery event on the destination lane only bumps the link's receive
/// counters, and its credit return rides Simulator::Defer() to the
/// barrier.
class Wire {
 public:
  /// Decides the perturbation for one inter-node message. Must be a pure
  /// function of (seed, src, dst, bytes, link_seq) — never of wall clock
  /// or shared mutable state — so chaos draws are deterministic.
  /// `link_seq` is the 0-based sequence number of this message on the
  /// directed link src -> dst.
  using PerturbationFn =
      std::function<Perturbation(NodeId src, NodeId dst, uint64_t bytes,
                                 SimTime now, uint64_t link_seq)>;

  Wire(sim::Simulator* sim, const CostModel* costs, const NetConfig* config,
       int num_nodes);

  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  /// Sends `payload_bytes` from `src` to `dst`; `on_delivery` runs on node
  /// `dst`'s lane when the message lands. Framing overhead is added to the
  /// byte count automatically. May be called from `src`'s lane or from
  /// exclusive context. `cls` picks the bounded path's arbitration class
  /// and tags the per-class counters (Fig. 8's foreground-vs-migration
  /// split). Self-sends, sends with the substrate disabled and sends into
  /// a cut link skip the queue.
  void Send(NodeId src, NodeId dst, uint64_t payload_bytes, TrafficClass cls,
            sim::Callback on_delivery);

  /// Grows the link matrix when nodes are added by dynamic provisioning;
  /// every existing link keeps its state. Exclusive context only (also
  /// called at construction).
  void Grow(int num_nodes);

  // --- Partitions (DESIGN.md §5 "Partitions & failure detection"). ---
  //
  // Cuts sever *directed* links with send-time semantics: a message
  // already on the wire when the cut lands still delivers (the receiver's
  // transport buffer outlives the cut, matching the crash model), but a
  // send into a live cut is parked — payload, perturbation draw and byte
  // charges intact — in the link's FIFO holding pen and released only by
  // HealLink. Message existence is preserved end-to-end, so record
  // singularity and lock order survive a partition the same way they
  // survive chaos. Cuts and heals run in exclusive context only (the
  // fault layer drives them between epochs); lanes read the flags, which
  // are stable within an epoch.

  /// Cuts the directed link src -> dst, then seals its open envelope and
  /// drains its transmit queue into the pen in FIFO order — exactly the
  /// order the messages would have hit the wire. Drained messages draw
  /// their perturbation now and never charged credits, so their
  /// deliveries return none. Idempotent.
  void CutLink(NodeId src, NodeId dst);

  /// Heals the directed link src -> dst and releases its pen in FIFO
  /// order: each parked message is re-scheduled onto the destination lane
  /// with its original wire time measured from now. Idempotent.
  void HealLink(NodeId src, NodeId dst);

  /// False while the directed link src -> dst is cut.
  bool reachable(NodeId src, NodeId dst) const {
    return !links_[src][dst].cut;
  }
  /// True while any directed link is cut.
  bool any_cut() const { return cut_links_ > 0; }
  /// Messages currently parked in holding pens.
  uint64_t messages_held() const;
  /// Cumulative messages ever parked (pen throughput).
  uint64_t total_held() const { return messages_held_total_; }
  /// Payloads that landed while their send-time cut was STILL up. The
  /// quiescent check requires this to stay zero: a held message may only
  /// deliver after its heal.
  uint64_t cut_deliveries() const { return cut_deliveries_; }

  /// Installs (or clears, with nullptr) the fault-injection hook consulted
  /// for every inter-node message.
  void set_perturbation(PerturbationFn fn) { perturb_ = std::move(fn); }

  // --- Byte and message counters (all wire attempts on the send side). ---

  uint64_t total_bytes() const { return Sum(&Link::bytes_sent); }
  uint64_t total_messages() const { return Sum(&Link::attempts); }
  uint64_t bytes_sent(NodeId node) const {
    return Sum(&Link::bytes_sent, node);
  }
  /// Wire bytes sent (all attempts) carrying messages of `cls`.
  uint64_t class_bytes_sent(TrafficClass cls) const {
    return class_bytes_sent_[static_cast<int>(cls)];
  }
  /// Bytes successfully delivered to `node` (equals the send-side count
  /// minus in-flight and dropped wire attempts, plus duplicated copies).
  uint64_t bytes_received(NodeId node) const {
    return Sum(&Link::bytes_received, kInvalidNode, node);
  }
  uint64_t total_bytes_received() const { return Sum(&Link::bytes_received); }
  uint64_t messages_received(NodeId node) const {
    return Sum(&Link::messages_received, kInvalidNode, node);
  }
  /// Wire attempts (including drops and duplicates) on the directed link
  /// src -> dst.
  uint64_t link_messages(NodeId src, NodeId dst) const {
    return links_[src][dst].attempts;
  }
  /// Wire attempts lost to fault injection (each was retransmitted).
  uint64_t messages_dropped() const { return messages_dropped_; }
  /// Redundant duplicate deliveries suppressed by transport dedup.
  uint64_t messages_duplicated() const { return messages_duplicated_; }

  // --- Bounded-path telemetry (zero while the substrate is disabled). ---

  /// Bulk envelopes sealed onto transmit queues.
  uint64_t envelopes_sent() const { return envelopes_sent_; }
  /// Bulk messages that rode an envelope (>= envelopes_sent(); the
  /// difference is the number of framing headers coalescing saved).
  uint64_t coalesced_messages() const { return coalesced_messages_; }
  /// Messages transmitted through the bounded path, per class.
  uint64_t transmits(TrafficClass cls) const {
    return transmits_[static_cast<int>(cls)];
  }
  /// Times a transmitter went idle with a non-empty queue because no
  /// queued message fit the link's credit window.
  uint64_t credit_stalls() const { return credit_stalls_; }
  /// Messages currently sitting in transmit queues (open envelopes count
  /// their appended messages). Exclusive-context read.
  uint64_t queued_now() const;

  /// Queueing-delay histogram for `cls` (delay between enqueue and the
  /// serializer accepting the message), over every link.
  const obs::Histogram& MergedQueueDelay(TrafficClass cls) const {
    return queue_delay_[static_cast<int>(cls)];
  }

 private:
  /// One queued transmission: a single message, or a sealed envelope
  /// carrying several bulk payloads behind one framing header.
  struct Pending {
    TrafficClass cls = TrafficClass::kForeground;
    uint64_t payload_bytes = 0;
    SimTime enqueued = 0;
    /// Delivery callbacks, run in append order on the destination lane.
    std::vector<sim::Callback> cbs;
  };

  /// One parked message: everything the delivery closure needs, with the
  /// perturbation already drawn (the draw is keyed by the send-time
  /// link_seq, so parking does not shift any other message's draw).
  struct HeldMessage {
    uint64_t bytes = 0;
    uint64_t delivered = 0;  ///< copies to charge the receiver
    SimTime wire = 0;        ///< wire time, re-measured from the heal point
    sim::Callback cb;
  };

  /// One directed link. links_[src][dst] belongs to node src's lane (or
  /// the exclusive slice).
  struct Link {
    /// True while cut; mutated only in exclusive context.
    bool cut = false;
    /// FIFO holding pen: sends into the cut, released by HealLink.
    std::deque<HeldMessage> pen;
    /// Messages put on the wire; feeds the perturbation hook its per-link
    /// sequence number.
    uint64_t send_seq = 0;
    /// Wire attempts, including drops and duplicates.
    uint64_t attempts = 0;
    uint64_t bytes_sent = 0;
    /// Charged by the delivery event on the destination lane.
    uint64_t bytes_received = 0;
    uint64_t messages_received = 0;
    // Transmitter (bounded path only).
    std::deque<Pending> queue;
    /// Virtual time the serializer frees up.
    SimTime busy_until = 0;
    /// Transmitted-but-undelivered wire bytes (credit accounting).
    uint64_t outstanding = 0;
    /// Weighted-round-robin position; advances once per transmission.
    uint64_t wrr_slot = 0;
    /// True while a TransmitNext event is scheduled for this link.
    bool timer_armed = false;
    // Open-envelope state (bulk coalescing).
    bool env_open = false;
    uint64_t env_bytes = 0;
    uint64_t env_msgs = 0;
    /// Generation counter guarding the window-flush timer: flushing or
    /// re-opening bumps it, so a stale timer finds a mismatch and no-ops.
    uint64_t env_gen = 0;
    std::vector<sim::Callback> env_cbs;
  };

  /// Sums `field` over the links leaving `src` and entering `dst`;
  /// kInvalidNode matches every node.
  uint64_t Sum(uint64_t Link::*field, NodeId src = kInvalidNode,
               NodeId dst = kInvalidNode) const;

  /// Puts one message on the wire: draws its perturbation, charges the
  /// send-side counters, and schedules delivery — or parks it in the pen
  /// while the link is cut. Self-sends are a zero-time local hand-off.
  void Transmit(NodeId src, NodeId dst, uint64_t payload_bytes,
                TrafficClass cls, sim::Callback on_delivery);
  void ScheduleDelivery(NodeId src, NodeId dst, uint64_t bytes,
                        uint64_t delivered, SimTime wire, bool was_held,
                        sim::Callback cb);
  /// Delivery event body: charges the receive counters of the slab entry
  /// `slot` and runs its callback.
  void Deliver(uint32_t slot);

  /// Serializer occupancy of one wire message, in virtual microseconds.
  SimTime SerializationTime(uint64_t wire_bytes) const;
  /// True when the credit window admits `wire_bytes` more outstanding
  /// bytes (a message is always admitted on an idle link).
  bool CanAdmit(const Link& link, uint64_t wire_bytes) const;

  /// Appends one bulk payload to the link's open envelope (opening one and
  /// arming the window-flush timer if needed; sealing early on the size
  /// cap). Runs on src's lane or exclusively.
  void AppendEnvelope(NodeId src, NodeId dst, uint64_t payload_bytes,
                      sim::Callback on_delivery);
  /// Seals the open envelope (if any) onto the transmit queue.
  void FlushEnvelope(NodeId src, NodeId dst);
  /// Arms the transmit timer if the queue is non-empty and none is armed.
  void Pump(NodeId src, NodeId dst);
  /// Timer body: picks the next admissible message by the two-class
  /// weighted schedule and transmits it. Runs on src's lane.
  void TransmitNext(NodeId src, NodeId dst);
  /// Returns `wire_bytes` of credit after a delivery and re-pumps the
  /// link. Deferred to the barrier by the delivery callback (it fires on
  /// the destination lane; link state is the source's row).
  void ReturnCredit(NodeId src, NodeId dst, uint64_t wire_bytes);

  /// One message on the wire. The delivery event captures only its slot
  /// in `deliveries_`, so it fits sim::Callback's inline buffer.
  struct Delivery {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    bool was_held = false;
    uint64_t bytes = 0;
    uint64_t delivered = 0;  ///< copies to charge the receiver
    sim::Callback cb;
  };

  sim::Simulator* sim_;
  const CostModel* costs_;
  const NetConfig* config_;
  std::vector<std::vector<Link>> links_;
  /// Messages on the wire, by delivery-event slot.
  SlotPool<Delivery> deliveries_;
  PerturbationFn perturb_;
  int cut_links_ = 0;
  uint64_t messages_held_total_ = 0;
  /// Charged by the delivery event when a held message lands under a
  /// still-live cut — must stay zero.
  uint64_t cut_deliveries_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t messages_duplicated_ = 0;
  /// Wire bytes sent (all attempts), indexed by TrafficClass.
  uint64_t class_bytes_sent_[kNumTrafficClasses] = {};
  uint64_t envelopes_sent_ = 0;
  uint64_t coalesced_messages_ = 0;
  uint64_t transmits_[kNumTrafficClasses] = {};
  uint64_t credit_stalls_ = 0;
  obs::Histogram queue_delay_[kNumTrafficClasses];
};

}  // namespace hermes::net

#endif  // HERMES_NET_WIRE_H_
