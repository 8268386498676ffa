#ifndef HERMES_NET_WIRE_H_
#define HERMES_NET_WIRE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "obs/telemetry.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace hermes::net {

/// Wire substrate between the engine and the sim::Network message fabric
/// (DESIGN.md §5 "Wire substrate"): bounded-bandwidth links, envelope
/// coalescing, and deterministic backpressure.
///
/// Each directed link src -> dst owns a serializer with rate
/// `bytes_per_us` and a FIFO transmit queue. A message waits until the
/// serializer is free (queueing), occupies it for size/rate
/// (serialization), and only then enters the underlying Network — whose
/// per-byte charge *is* the serialization time when the rate is derived
/// from the cost model, so delivery = queueing + serialization +
/// propagation with nothing double-charged. Under contention a fixed
/// two-class weighted round-robin arbitrates foreground vs bulk traffic,
/// and per-link outstanding-bytes credit windows (returned on delivery)
/// provide backpressure. Bulk traffic to one destination coalesces into
/// envelopes: messages appended within a virtual-time window ride one wire
/// message (one framing header) and their delivery callbacks run in append
/// order.
///
/// Determinism: every queueing, scheduling and coalescing decision is a
/// pure function of (config, the totally ordered per-link send sequence,
/// virtual time) — never wall clock, never hash order. Link state
/// links_[src] belongs to node src's lane (or the exclusive slice); credit
/// returns fire on the destination lane, so they ride Simulator::Defer()
/// to the barrier.
///
/// With `config.net.enabled == false` every Send degenerates to a direct
/// sim::Network::Send and the substrate is digest-invisible.
class Wire {
 public:
  Wire(sim::Simulator* sim, sim::Network* network, const CostModel* costs,
       const NetConfig* config, int num_nodes);

  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  /// Sends `payload_bytes` from `src` to `dst`; `on_delivery` runs on node
  /// `dst`'s lane after queueing + serialization + propagation. May be
  /// called from `src`'s lane or from exclusive context. Self-sends and
  /// sends into a cut link bypass the queue (the latter park in the
  /// Network's holding pen; the queue was already flushed into the pen by
  /// OnLinkCut, so per-link FIFO order is preserved end-to-end).
  void Send(NodeId src, NodeId dst, uint64_t payload_bytes, TrafficClass cls,
            std::function<void()> on_delivery);

  /// Flushes the link's open envelope and drains its transmit queue into
  /// the underlying Network in FIFO order. Called right after
  /// Network::CutLink: each drained message parks in the cut link's
  /// holding pen with its perturbation drawn at drain time (send-time
  /// semantics), and HealLink later re-measures serialization from the
  /// heal point. Drained messages never charged credits, so their
  /// deliveries return none. Exclusive context only.
  void OnLinkCut(NodeId src, NodeId dst);

  /// Grows per-link state when nodes are added by dynamic provisioning.
  /// Exclusive context only (asserted), also called at construction.
  void GrowLinks(int num_nodes);

  // --- Read-side telemetry. ---

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
    std::vector<std::function<void()>> cbs;
  };

  /// Per-directed-link state. links_[src][dst] belongs to node src's lane
  /// (or the exclusive slice).
  struct Link {
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
    std::vector<std::function<void()>> env_cbs;
  };

  /// Serializer occupancy of one wire message, in virtual microseconds.
  SimTime SerializationTime(uint64_t wire_bytes) const;
  /// True when the credit window admits `wire_bytes` more outstanding
  /// bytes (a message is always admitted on an idle link).
  bool CanAdmit(const Link& link, uint64_t wire_bytes) const;

  /// Appends one bulk payload to the link's open envelope (opening one and
  /// arming the window-flush timer if needed; sealing early on the size
  /// cap). Runs on src's lane or exclusively.
  void AppendEnvelope(NodeId src, NodeId dst, uint64_t payload_bytes,
                      std::function<void()> on_delivery);
  /// Seals the open envelope (if any) onto the transmit queue.
  void FlushEnvelope(NodeId src, NodeId dst);
  /// Arms the transmit timer if the queue is non-empty and none is armed.
  void Pump(NodeId src, NodeId dst);
  /// Timer body: picks the next admissible message by the two-class
  /// weighted schedule and hands it to the Network. Runs on src's lane.
  void TransmitNext(NodeId src, NodeId dst);
  /// Returns `wire_bytes` of credit after a delivery and re-pumps the
  /// link. Deferred to the barrier by the delivery callback (it fires on
  /// the destination lane; link state is the source's row).
  void ReturnCredit(NodeId src, NodeId dst, uint64_t wire_bytes);

  sim::Simulator* sim_;
  sim::Network* net_;
  const CostModel* costs_;
  const NetConfig* config_;
  std::vector<std::vector<Link>> links_;
  uint64_t envelopes_sent_ = 0;
  uint64_t coalesced_messages_ = 0;
  uint64_t transmits_[kNumTrafficClasses] = {};
  uint64_t credit_stalls_ = 0;
  obs::Histogram queue_delay_[kNumTrafficClasses];
};

}  // namespace hermes::net

#endif  // HERMES_NET_WIRE_H_
