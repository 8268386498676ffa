#include "sim/network.h"

#include <cassert>
#include <cmath>
#include <utility>

namespace hermes::sim {

Network::Network(Simulator* sim, const CostModel* costs, int num_nodes)
    : sim_(sim), costs_(costs) {
  // Register every per-node counter row and per-link matrix once;
  // EnsureCapacity grows the registered lists so a counter added here can
  // never be missed by a resize site.
  counter_rows_ = {&bytes_sent_, &bytes_received_, &messages_received_};
  counter_matrices_ = {&link_messages_, &send_seq_};
  EnsureCapacity(num_nodes);
}

uint64_t Network::Sum(const std::vector<uint64_t>& row) {
  uint64_t total = 0;
  for (uint64_t v : row) total += v;
  return total;
}

void Network::EnsureCapacity(int num_nodes) {
  assert(!sim_->in_lane_context() &&
         "capacity growth must happen in exclusive context");
  const size_t n = static_cast<size_t>(num_nodes);
  if (bytes_sent_.size() >= n) return;
  for (std::vector<uint64_t>* row : counter_rows_) row->resize(n, 0);
  for (std::vector<std::vector<uint64_t>>* matrix : counter_matrices_) {
    for (auto& row : *matrix) row.resize(n, 0);
    matrix->resize(n, std::vector<uint64_t>(n, 0));
  }
  for (auto& row : cut_) row.resize(n, 0);
  cut_.resize(n, std::vector<uint8_t>(n, 0));
  for (auto& row : held_) row.resize(n);
  held_.resize(n, std::vector<std::deque<HeldMessage>>(n));
}

bool Network::reachable(NodeId src, NodeId dst) const {
  return cut_[src][dst] == 0;
}

void Network::CutLink(NodeId src, NodeId dst) {
  assert(!sim_->in_lane_context() &&
         "cuts are installed in exclusive context only");
  assert(src != dst && "a node always reaches itself");
  if (cut_[src][dst]) return;
  cut_[src][dst] = 1;
  ++cut_links_;
}

void Network::HealLink(NodeId src, NodeId dst) {
  assert(!sim_->in_lane_context() &&
         "heals are applied in exclusive context only");
  if (!cut_[src][dst]) return;
  cut_[src][dst] = 0;
  --cut_links_;
  // Release the pen in FIFO order. Each message keeps its send-time
  // perturbation (draws were keyed by link_seq at Send) and re-measures
  // its wire time from the heal point; per-link arrival order can still
  // interleave by jitter, exactly as live traffic can.
  std::deque<HeldMessage>& pen = held_[src][dst];
  while (!pen.empty()) {
    HeldMessage m = std::move(pen.front());
    pen.pop_front();
    ScheduleDelivery(src, dst, m.bytes, m.delivered, m.wire,
                     /*was_held=*/true, std::move(m.cb));
  }
}

uint64_t Network::messages_held() const {
  uint64_t total = 0;
  for (const auto& row : held_) {
    for (const auto& pen : row) total += pen.size();
  }
  return total;
}

void Network::ScheduleDelivery(NodeId src, NodeId dst, uint64_t bytes,
                               uint64_t delivered, SimTime wire, bool was_held,
                               std::function<void()> cb) {
  sim_->ScheduleOnLane(
      static_cast<int>(dst), wire,
      [this, src, dst, bytes, delivered, was_held, cb = std::move(cb)]() {
        // A released message must never land under a still-live cut: the
        // pen only drains on heal, so a nonzero count means a release
        // raced a re-cut (the partition oracle asserts zero).
        if (was_held && cut_[src][dst]) ++cut_deliveries_;
        bytes_received_[dst] += bytes * delivered;
        messages_received_[dst] += delivered;
        cb();
      });
}

void Network::Send(NodeId src, NodeId dst, uint64_t payload_bytes,
                   std::function<void()> on_delivery, TrafficClass cls) {
  assert(src >= 0 && src < static_cast<NodeId>(bytes_sent_.size()));
  assert(dst >= 0 && dst < static_cast<NodeId>(bytes_sent_.size()));
  // A node sends only from its own lane (or the exclusive slice).
  assert((!sim_->in_lane_context() ||
          sim_->current_lane() == static_cast<int>(src)) &&
         "Send must run on the source node's lane or exclusively");
  if (src == dst) {
    // Local hand-off: no wire bytes, no latency, but still asynchronous so
    // that callers never re-enter themselves.
    sim_->ScheduleOnLane(static_cast<int>(dst), 0, std::move(on_delivery));
    return;
  }
  const uint64_t bytes = payload_bytes + costs_->message_overhead_bytes;
  const uint64_t link_seq = send_seq_[src][dst]++;

  Perturbation p;
  if (perturb_) p = perturb_(src, dst, bytes, sim_->Now(), link_seq);
  assert(p.dropped_attempts >= 0 && p.duplicates >= 0);

  // Every wire attempt — dropped, duplicated, or delivered — costs sender
  // bytes and counts on the directed link.
  const uint64_t attempts =
      1 + static_cast<uint64_t>(p.dropped_attempts) +
      static_cast<uint64_t>(p.duplicates);
  bytes_sent_[src] += bytes * attempts;
  messages_sent_ += attempts;
  class_bytes_sent_[static_cast<int>(cls)] += bytes * attempts;
  link_messages_[src][dst] += attempts;
  messages_dropped_ += static_cast<uint64_t>(p.dropped_attempts);
  messages_duplicated_ += static_cast<uint64_t>(p.duplicates);

  const SimTime wire =
      costs_->net_latency_us +
      static_cast<SimTime>(std::llround(bytes * costs_->net_us_per_byte)) +
      p.extra_delay_us;
  // Delivered copies (the real one plus dedup-suppressed duplicates) are
  // charged to the receiver by the delivery event itself, on the
  // destination lane.
  const uint64_t delivered = 1 + static_cast<uint64_t>(p.duplicates);
  // A send into a live cut parks in the per-link FIFO pen with its charges
  // and perturbation already final;
  // HealLink releases it. Sender-side counters above were charged as
  // usual: the bytes left the NIC and died on the cut wire.
  if (cut_[src][dst]) {
    held_[src][dst].push_back(
        HeldMessage{bytes, delivered, wire, std::move(on_delivery)});
    ++messages_held_total_;
    return;
  }
  ScheduleDelivery(src, dst, bytes, delivered, wire, /*was_held=*/false,
                   std::move(on_delivery));
}

}  // namespace hermes::sim
