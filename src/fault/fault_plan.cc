#include "fault/fault_plan.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/rng.h"

namespace hermes::fault {

const char* PartitionModeName(PartitionMode mode) {
  switch (mode) {
    case PartitionMode::kTwoSided:
      return "two-sided";
    case PartitionMode::kInbound:
      return "inbound";
    case PartitionMode::kOutbound:
      return "outbound";
  }
  return "?";
}

FaultPlan FaultPlan::Generate(const FaultPlanConfig& config, uint64_t seed) {
  assert(config.num_nodes > 0);
  assert(config.max_outage_us >= config.min_outage_us);
  assert(config.max_partition_us >= config.min_partition_us);
  // Stall-and-drain crashes drain against the cut and never quiesce; a
  // partitioned plan must use degraded-mode crashes.
  assert((config.partition_cycles <= 0 || config.crash_cycles <= 0 ||
          config.no_stall) &&
         "partition plans require no_stall crashes");
  FaultPlan plan;
  plan.seed = seed;
  plan.link = config.link;
  Rng rng(Mix64(seed ^ 0xfa017ULL));

  // Each crash cycle lives in its own slot of the horizon so a node is
  // never crashed twice concurrently and every rejoin lands before the
  // next crash. The crash point is drawn from the first half of the slot
  // and the outage is clamped to fit. Crash victims are drawn FIRST (and
  // remembered) so partition/gray victims can avoid them.
  std::vector<uint8_t> crashed(static_cast<size_t>(config.num_nodes), 0);
  const int cycles = std::max(config.crash_cycles, 0);
  if (cycles > 0) {
    const SimTime slot = config.horizon_us / cycles;
    for (int c = 0; c < cycles; ++c) {
      const SimTime slot_start = c * slot;
      if (slot < 2 * config.min_outage_us) continue;  // degenerate horizon
      const SimTime crash_window = slot / 2;
      const SimTime crash_at =
          slot_start + rng.NextBounded(std::max<SimTime>(crash_window, 1));
      // Rejoin strictly before the slot ends, so it sorts strictly before
      // the next slot's crash even on timestamp ties.
      const SimTime slot_end = slot_start + slot - 1;
      const SimTime max_fit =
          slot_end > crash_at ? slot_end - crash_at : config.min_outage_us;
      const SimTime hi =
          std::min<SimTime>(config.max_outage_us, std::max<SimTime>(max_fit, 1));
      const SimTime lo = std::min<SimTime>(config.min_outage_us, hi);
      const SimTime outage = lo + rng.NextBounded(hi - lo + 1);
      const NodeId node =
          static_cast<NodeId>(rng.NextBounded(config.num_nodes));
      crashed[static_cast<size_t>(node)] = 1;
      plan.events.push_back(FaultEvent{crash_at,
                                       config.no_stall
                                           ? FaultEvent::Kind::kCrashNoStall
                                           : FaultEvent::Kind::kCrash,
                                       node});
      plan.events.push_back(
          FaultEvent{crash_at + outage, FaultEvent::Kind::kRejoin, node});
    }
  }

  // Partition/gray victims come from nodes no crash cycle touches: the
  // failure detector marks the minority side down via the same membership
  // path kCrashNoStall uses, and a node must never be marked down twice.
  // The pool is built in node-id order — pure function of the draws above.
  std::vector<NodeId> pool;
  for (NodeId n = 0; n < static_cast<NodeId>(config.num_nodes); ++n) {
    if (!crashed[static_cast<size_t>(n)]) pool.push_back(n);
  }

  // Partition cycles mirror the crash-slot scheme: each start/heal pair
  // lives in its own slot, and the heal lands strictly inside the slot so
  // every pen drains before the next cut (and before the run ends). Slots
  // are laid over the same horizon as crash slots, so a partition window
  // can overlap a crash outage — only the victims are disjoint.
  const int pcycles = std::max(config.partition_cycles, 0);
  if (pcycles > 0 && !pool.empty()) {
    const SimTime slot = config.horizon_us / pcycles;
    for (int c = 0; c < pcycles; ++c) {
      const SimTime slot_start = c * slot;
      if (slot < 2 * config.min_partition_us) continue;
      const SimTime cut_window = slot / 2;
      const SimTime cut_at =
          slot_start + rng.NextBounded(std::max<SimTime>(cut_window, 1));
      const SimTime slot_end = slot_start + slot - 1;
      const SimTime max_fit =
          slot_end > cut_at ? slot_end - cut_at : config.min_partition_us;
      const SimTime hi = std::min<SimTime>(config.max_partition_us,
                                           std::max<SimTime>(max_fit, 1));
      const SimTime lo = std::min<SimTime>(config.min_partition_us, hi);
      const SimTime duration = lo + rng.NextBounded(hi - lo + 1);
      const NodeId node = pool[rng.NextBounded(pool.size())];
      PartitionMode mode = PartitionMode::kTwoSided;
      if (rng.NextDouble() < config.one_way_fraction) {
        mode = rng.NextBounded(2) == 0 ? PartitionMode::kInbound
                                       : PartitionMode::kOutbound;
      }
      plan.events.push_back(
          FaultEvent{cut_at, FaultEvent::Kind::kPartitionStart, node, mode});
      plan.events.push_back(FaultEvent{
          cut_at + duration, FaultEvent::Kind::kPartitionHeal, node, mode});
    }
  }

  // One gray window in the middle 60% of the horizon: links around the
  // victim turn slow/lossy (and drop heartbeats) without any cut.
  if (config.gray && !pool.empty()) {
    const SimTime lo = config.horizon_us / 5;
    const SimTime span = std::max<SimTime>(3 * config.horizon_us / 5, 1);
    const SimTime from = lo + rng.NextBounded(span);
    const SimTime duration =
        config.min_partition_us +
        rng.NextBounded(config.max_partition_us - config.min_partition_us + 1);
    plan.link.gray_from_us = from;
    plan.link.gray_until_us = std::min(from + duration, config.horizon_us);
    plan.link.gray_node = pool[rng.NextBounded(pool.size())];
    plan.link.gray_drop_prob = config.gray_drop_prob;
    plan.link.gray_extra_delay_us = config.gray_extra_delay_us;
    plan.link.gray_heartbeat_drop_prob = config.gray_heartbeat_drop_prob;
  }

  std::sort(plan.events.begin(), plan.events.end());
  return plan;
}

std::string FaultPlan::DebugString() const {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "fault plan seed=%llx drop=%.3f dup=%.3f jitter<=%llu:\n",
                static_cast<unsigned long long>(seed), link.drop_prob,
                link.duplicate_prob,
                static_cast<unsigned long long>(link.max_jitter_us));
  out += buf;
  if (link.has_gray()) {
    std::snprintf(buf, sizeof(buf),
                  "  gray node=%d window=[%llu,%llu) drop=%.3f delay=%llu "
                  "hb-drop=%.3f\n",
                  link.gray_node,
                  static_cast<unsigned long long>(link.gray_from_us),
                  static_cast<unsigned long long>(link.gray_until_us),
                  link.gray_drop_prob,
                  static_cast<unsigned long long>(link.gray_extra_delay_us),
                  link.gray_heartbeat_drop_prob);
    out += buf;
  }
  for (const FaultEvent& e : events) {
    const char* kind = e.kind == FaultEvent::Kind::kCrash ? "crash"
                       : e.kind == FaultEvent::Kind::kRejoin
                           ? "rejoin"
                           : e.kind == FaultEvent::Kind::kCrashNoStall
                                 ? "crash-nostall"
                                 : e.kind == FaultEvent::Kind::kPartitionStart
                                       ? "partition-start"
                                       : "partition-heal";
    if (e.kind == FaultEvent::Kind::kPartitionStart ||
        e.kind == FaultEvent::Kind::kPartitionHeal) {
      std::snprintf(buf, sizeof(buf), "  t=%llu %s node=%d mode=%s\n",
                    static_cast<unsigned long long>(e.at), kind, e.node,
                    PartitionModeName(e.mode));
    } else {
      std::snprintf(buf, sizeof(buf), "  t=%llu %s node=%d\n",
                    static_cast<unsigned long long>(e.at), kind, e.node);
    }
    out += buf;
  }
  return out;
}

}  // namespace hermes::fault
