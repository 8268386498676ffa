#include "fault/link_chaos.h"

namespace hermes::fault {
namespace {

uint64_t LinkKey(NodeId src, NodeId dst) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
         static_cast<uint32_t>(dst);
}

}  // namespace

LinkChaos::LinkChaos(const LinkChaosConfig& config, uint64_t seed)
    : config_(config), seed_(Mix64(seed ^ 0x11c4a05ULL)) {}

bool LinkChaos::InGrayWindow(NodeId src, NodeId dst, SimTime now) const {
  return config_.has_gray() && now >= config_.gray_from_us &&
         now < config_.gray_until_us &&
         (src == config_.gray_node || dst == config_.gray_node);
}

net::Perturbation LinkChaos::Draw(NodeId src, NodeId dst, uint64_t link_seq,
                                  SimTime now) const {
  // A fresh Rng per message, keyed by (seed, link, message index): the
  // draw depends only on the message's identity, never on how many draws
  // other links made before it.
  Rng rng(Mix64(seed_ ^ Mix64(LinkKey(src, dst)) ^
                Mix64(link_seq + 0x9e3779b9ULL)));
  net::Perturbation p;
  // Wire attempts are lost independently until one gets through (bounded
  // so a pathological drop_prob cannot stall the simulation). Inside a
  // gray window the per-attempt loss probability rises — still bounded,
  // still retransmitted: gray links are slow and expensive, never lossy
  // at the message level.
  const bool gray = InGrayWindow(src, dst, now);
  const double drop_prob =
      gray ? config_.drop_prob + config_.gray_drop_prob : config_.drop_prob;
  while (p.dropped_attempts < config_.max_drops_per_message &&
         rng.NextDouble() < drop_prob) {
    ++p.dropped_attempts;
    p.extra_delay_us += config_.retransmit_delay_us;
  }
  if (rng.NextDouble() < config_.duplicate_prob) p.duplicates = 1;
  if (config_.max_jitter_us > 0) {
    p.extra_delay_us += rng.NextBounded(config_.max_jitter_us + 1);
  }
  if (gray) p.extra_delay_us += config_.gray_extra_delay_us;
  return p;
}

bool LinkChaos::HeartbeatDropped(NodeId src, NodeId dst, uint64_t tick,
                                 SimTime now) const {
  if (!InGrayWindow(src, dst, now)) return false;
  if (config_.gray_heartbeat_drop_prob <= 0.0) return false;
  // Keyed off a distinct salt so heartbeat draws never collide with the
  // per-message stream above.
  Rng rng(Mix64(seed_ ^ 0x6b24ddca7ULL ^ Mix64(LinkKey(src, dst)) ^
                Mix64(tick + 0x1799b5ULL)));
  return rng.NextDouble() < config_.gray_heartbeat_drop_prob;
}

void LinkChaos::Install(net::Wire* wire) {
  wire->set_perturbation([this](NodeId src, NodeId dst, uint64_t /*bytes*/,
                                SimTime now, uint64_t link_seq) {
    return Draw(src, dst, link_seq, now);
  });
}

}  // namespace hermes::fault
