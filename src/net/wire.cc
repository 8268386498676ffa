#include "net/wire.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace hermes::net {

namespace {

// Fixed 4:1 foreground:bulk round-robin: of every kWrrCycle transmission
// slots on a link, the first kFgSlots prefer foreground.
constexpr uint64_t kFgSlots = 4;
constexpr uint64_t kWrrCycle = 5;

}  // namespace

Wire::Wire(sim::Simulator* sim, const CostModel* costs, const NetConfig* config,
           int num_nodes)
    : sim_(sim), costs_(costs), config_(config) {
  Grow(num_nodes);
}

void Wire::Grow(int num_nodes) {
  assert(!sim_->in_lane_context() &&
         "link growth must happen in exclusive context");
  const size_t n = static_cast<size_t>(num_nodes);
  if (links_.size() >= n) return;
  // Rows grow by moving each link: a Link is move-only (its queues hold
  // callbacks), and std::deque's move constructor is not noexcept, so
  // vector::resize would try to copy.
  for (auto& row : links_) {
    std::vector<Link> grown(n);
    for (size_t d = 0; d < row.size(); ++d) grown[d] = std::move(row[d]);
    row = std::move(grown);
  }
  while (links_.size() < n) links_.emplace_back(n);
}

uint64_t Wire::Sum(uint64_t Link::*field, NodeId src, NodeId dst) const {
  uint64_t total = 0;
  for (size_t s = 0; s < links_.size(); ++s) {
    if (src != kInvalidNode && static_cast<size_t>(src) != s) continue;
    for (size_t d = 0; d < links_.size(); ++d) {
      if (dst != kInvalidNode && static_cast<size_t>(dst) != d) continue;
      total += links_[s][d].*field;
    }
  }
  return total;
}

SimTime Wire::SerializationTime(uint64_t wire_bytes) const {
  // A zero rate derives the serializer from the cost model's per-byte wire
  // time, which is exactly what Transmit charges per delivery — so the
  // serializer's occupancy and the message's wire time agree and nothing
  // is double-charged (the transmission is simply delayed until the
  // serializer frees up).
  const double us_per_byte = config_->bytes_per_us > 0
                                 ? 1.0 / config_->bytes_per_us
                                 : costs_->net_us_per_byte;
  return static_cast<SimTime>(std::llround(wire_bytes * us_per_byte));
}

bool Wire::CanAdmit(const Link& link, uint64_t wire_bytes) const {
  if (config_->link_credit_bytes == 0) return true;
  // An idle link always admits, so one oversized message can never wedge.
  if (link.outstanding == 0) return true;
  return link.outstanding + wire_bytes <= config_->link_credit_bytes;
}

void Wire::Send(NodeId src, NodeId dst, uint64_t payload_bytes,
                TrafficClass cls, sim::Callback on_delivery) {
  assert(src >= 0 && src < static_cast<NodeId>(links_.size()));
  assert(dst >= 0 && dst < static_cast<NodeId>(links_.size()));
  // Link state is row `src`: only that node's lane (or the exclusive
  // slice) may touch it.
  assert((!sim_->in_lane_context() ||
          sim_->current_lane() == static_cast<int>(src)) &&
         "Wire::Send must run on the source node's lane or exclusively");
  Link& link = links_[src][dst];
  // A send into a live cut goes straight to the pen: CutLink already
  // drained this link's queue there, so per-link FIFO order holds.
  if (!config_->enabled || src == dst || link.cut) {
    Transmit(src, dst, payload_bytes, cls, std::move(on_delivery));
    return;
  }
  if (cls == TrafficClass::kBulk && config_->coalesce_window_us > 0) {
    AppendEnvelope(src, dst, payload_bytes, std::move(on_delivery));
    return;
  }
  Pending p;
  p.cls = cls;
  p.payload_bytes = payload_bytes;
  p.enqueued = sim_->Now();
  p.cbs.push_back(std::move(on_delivery));
  link.queue.push_back(std::move(p));
  Pump(src, dst);
}

void Wire::Transmit(NodeId src, NodeId dst, uint64_t payload_bytes,
                    TrafficClass cls, sim::Callback on_delivery) {
  if (src == dst) {
    // Local hand-off: no wire bytes, no latency, but still asynchronous so
    // that callers never re-enter themselves.
    sim_->ScheduleOnLane(static_cast<int>(dst), 0, std::move(on_delivery));
    return;
  }
  Link& link = links_[src][dst];
  const uint64_t bytes = payload_bytes + costs_->message_overhead_bytes;
  const uint64_t link_seq = link.send_seq++;

  Perturbation p;
  if (perturb_) p = perturb_(src, dst, bytes, sim_->Now(), link_seq);
  assert(p.dropped_attempts >= 0 && p.duplicates >= 0);

  // Every wire attempt — dropped, duplicated, or delivered — costs sender
  // bytes and counts on the directed link.
  const uint64_t attempts =
      1 + static_cast<uint64_t>(p.dropped_attempts) +
      static_cast<uint64_t>(p.duplicates);
  link.attempts += attempts;
  link.bytes_sent += bytes * attempts;
  class_bytes_sent_[static_cast<int>(cls)] += bytes * attempts;
  messages_dropped_ += static_cast<uint64_t>(p.dropped_attempts);
  messages_duplicated_ += static_cast<uint64_t>(p.duplicates);

  const SimTime wire =
      costs_->net_latency_us +
      static_cast<SimTime>(std::llround(bytes * costs_->net_us_per_byte)) +
      p.extra_delay_us;
  // Delivered copies (the real one plus dedup-suppressed duplicates) are
  // charged to the receiver by the delivery event itself.
  const uint64_t delivered = 1 + static_cast<uint64_t>(p.duplicates);
  // A send into a live cut parks in the pen with its charges and
  // perturbation already final; HealLink releases it. The sender-side
  // counters above were charged as usual: the bytes left the NIC and died
  // on the cut wire.
  if (link.cut) {
    link.pen.push_back(
        HeldMessage{bytes, delivered, wire, std::move(on_delivery)});
    ++messages_held_total_;
    return;
  }
  ScheduleDelivery(src, dst, bytes, delivered, wire, /*was_held=*/false,
                   std::move(on_delivery));
}

void Wire::ScheduleDelivery(NodeId src, NodeId dst, uint64_t bytes,
                            uint64_t delivered, SimTime wire, bool was_held,
                            sim::Callback cb) {
  const uint32_t slot = deliveries_.Put(
      Delivery{src, dst, was_held, bytes, delivered, std::move(cb)});
  sim_->ScheduleOnLane(static_cast<int>(dst), wire,
                       [this, slot]() { Deliver(slot); });
}

void Wire::Deliver(uint32_t slot) {
  Delivery d = deliveries_.Take(slot);
  Link& link = links_[d.src][d.dst];
  // A released message must never land under a still-live cut: the pen
  // only drains on heal, so a nonzero count means a release raced a
  // re-cut (InvariantMonitor::CheckQuiescent asserts zero).
  if (d.was_held && link.cut) ++cut_deliveries_;
  link.bytes_received += d.bytes * d.delivered;
  link.messages_received += d.delivered;
  d.cb();
}

void Wire::AppendEnvelope(NodeId src, NodeId dst, uint64_t payload_bytes,
                          sim::Callback on_delivery) {
  Link& link = links_[src][dst];
  if (!link.env_open) {
    link.env_open = true;
    link.env_bytes = 0;
    link.env_msgs = 0;
    ++link.env_gen;
    // Window timer: seal the envelope after the coalescing window unless
    // something else (size cap, link cut) sealed it first — the
    // generation check makes a stale timer a no-op.
    const uint64_t gen = link.env_gen;
    sim_->ScheduleOnLane(static_cast<int>(src), config_->coalesce_window_us,
                         [this, src, dst, gen]() {
                           Link& l = links_[src][dst];
                           if (!l.env_open || l.env_gen != gen) return;
                           FlushEnvelope(src, dst);
                           Pump(src, dst);
                         });
  }
  link.env_bytes += payload_bytes;
  ++link.env_msgs;
  link.env_cbs.push_back(std::move(on_delivery));
  if (config_->coalesce_max_bytes > 0 &&
      link.env_bytes >= config_->coalesce_max_bytes) {
    FlushEnvelope(src, dst);
    Pump(src, dst);
  }
}

void Wire::FlushEnvelope(NodeId src, NodeId dst) {
  Link& link = links_[src][dst];
  if (!link.env_open) return;
  link.env_open = false;
  ++link.env_gen;  // invalidate the pending window timer
  ++envelopes_sent_;
  coalesced_messages_ += link.env_msgs;
  Pending p;
  p.cls = TrafficClass::kBulk;
  p.payload_bytes = link.env_bytes;
  p.enqueued = sim_->Now();
  p.cbs = std::move(link.env_cbs);
  link.env_cbs.clear();
  link.env_bytes = 0;
  link.env_msgs = 0;
  link.queue.push_back(std::move(p));
}

void Wire::Pump(NodeId src, NodeId dst) {
  Link& link = links_[src][dst];
  if (link.timer_armed || link.queue.empty()) return;
  const SimTime now = sim_->Now();
  const SimTime start = std::max(now, link.busy_until);
  link.timer_armed = true;
  sim_->ScheduleOnLane(static_cast<int>(src), start - now,
                       [this, src, dst]() { TransmitNext(src, dst); });
}

void Wire::TransmitNext(NodeId src, NodeId dst) {
  Link& link = links_[src][dst];
  link.timer_armed = false;
  if (link.queue.empty()) return;
  const SimTime now = sim_->Now();
  if (now < link.busy_until) {
    // The serializer advanced past this timer (an earlier transmission was
    // scheduled after it was armed); try again when it frees up.
    link.timer_armed = true;
    sim_->ScheduleOnLane(static_cast<int>(src), link.busy_until - now,
                         [this, src, dst]() { TransmitNext(src, dst); });
    return;
  }

  // Fixed two-class weighted round-robin: the slot index alone decides the
  // preferred class; if that class has nothing admissible the other gets
  // the slot, so the link stays work-conserving.
  const TrafficClass want = link.wrr_slot % kWrrCycle < kFgSlots
                                ? TrafficClass::kForeground
                                : TrafficClass::kBulk;
  const TrafficClass other = want == TrafficClass::kForeground
                                 ? TrafficClass::kBulk
                                 : TrafficClass::kForeground;

  size_t chosen = link.queue.size();
  for (TrafficClass cls : {want, other}) {
    for (size_t i = 0; i < link.queue.size(); ++i) {
      if (link.queue[i].cls != cls) continue;
      const uint64_t wire_bytes =
          link.queue[i].payload_bytes + costs_->message_overhead_bytes;
      if (CanAdmit(link, wire_bytes)) chosen = i;
      break;  // only the FIFO-first message of each class is eligible
    }
    if (chosen < link.queue.size()) break;
  }
  if (chosen >= link.queue.size()) {
    // Queue non-empty but nothing fits the credit window: outstanding is
    // necessarily non-zero, so a delivery (and its deferred credit
    // return) is in flight and will re-pump this link.
    ++credit_stalls_;
    return;
  }

  Pending p = std::move(link.queue[chosen]);
  link.queue.erase(link.queue.begin() + static_cast<long>(chosen));
  const uint64_t wire_bytes = p.payload_bytes + costs_->message_overhead_bytes;
  queue_delay_[static_cast<int>(p.cls)].Record(now - p.enqueued);
  ++transmits_[static_cast<int>(p.cls)];
  link.outstanding += wire_bytes;
  ++link.wrr_slot;
  const SimTime ser = SerializationTime(wire_bytes);
  link.busy_until = now + ser;

  // Envelope callbacks run in append order on the destination lane; the
  // credit return touches this (source) row, so it rides the barrier.
  Transmit(src, dst, p.payload_bytes, p.cls,
           [this, src, dst, wire_bytes, cbs = std::move(p.cbs)]() mutable {
             for (auto& cb : cbs) cb();
             sim_->Defer([this, src, dst, wire_bytes]() {
               ReturnCredit(src, dst, wire_bytes);
             });
           });

  if (!link.queue.empty()) {
    link.timer_armed = true;
    sim_->ScheduleOnLane(static_cast<int>(src), ser,
                         [this, src, dst]() { TransmitNext(src, dst); });
  }
}

void Wire::ReturnCredit(NodeId src, NodeId dst, uint64_t wire_bytes) {
  Link& link = links_[src][dst];
  assert(link.outstanding >= wire_bytes);
  link.outstanding -= wire_bytes;
  Pump(src, dst);
}

void Wire::CutLink(NodeId src, NodeId dst) {
  assert(!sim_->in_lane_context() &&
         "cuts are installed in exclusive context only");
  assert(src != dst && "a node always reaches itself");
  Link& link = links_[src][dst];
  if (link.cut) return;
  link.cut = true;
  ++cut_links_;
  FlushEnvelope(src, dst);
  while (!link.queue.empty()) {
    Pending p = std::move(link.queue.front());
    link.queue.pop_front();
    Transmit(src, dst, p.payload_bytes, p.cls,
             [cbs = std::move(p.cbs)]() mutable {
               for (auto& cb : cbs) cb();
             });
  }
}

void Wire::HealLink(NodeId src, NodeId dst) {
  assert(!sim_->in_lane_context() &&
         "heals are applied in exclusive context only");
  Link& link = links_[src][dst];
  if (!link.cut) return;
  link.cut = false;
  --cut_links_;
  // Each message keeps its send-time perturbation (draws were keyed by
  // link_seq) and re-measures its wire time from the heal point; per-link
  // arrival order can still interleave by jitter, exactly as live traffic
  // can.
  while (!link.pen.empty()) {
    HeldMessage m = std::move(link.pen.front());
    link.pen.pop_front();
    ScheduleDelivery(src, dst, m.bytes, m.delivered, m.wire,
                     /*was_held=*/true, std::move(m.cb));
  }
}

uint64_t Wire::messages_held() const {
  uint64_t total = 0;
  for (const auto& row : links_) {
    for (const Link& link : row) total += link.pen.size();
  }
  return total;
}

uint64_t Wire::queued_now() const {
  uint64_t total = 0;
  for (const auto& row : links_) {
    for (const Link& link : row) {
      for (const Pending& p : link.queue) total += p.cbs.size();
      total += link.env_msgs;
    }
  }
  return total;
}

}  // namespace hermes::net
