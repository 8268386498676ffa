// FaultPlan generation: seeded, totally ordered, structurally valid
// schedules — the foundation the chaos tests build on.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/link_chaos.h"

namespace hermes::fault {
namespace {

FaultPlanConfig BaseConfig() {
  FaultPlanConfig config;
  config.horizon_us = SecToSim(2);
  config.num_nodes = 4;
  config.crash_cycles = 3;
  config.min_outage_us = MsToSim(20);
  config.max_outage_us = MsToSim(200);
  return config;
}

TEST(FaultPlanTest, SameSeedSamePlan) {
  const FaultPlanConfig config = BaseConfig();
  const FaultPlan a = FaultPlan::Generate(config, 42);
  const FaultPlan b = FaultPlan::Generate(config, 42);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].node, b.events[i].node);
  }
}

TEST(FaultPlanTest, DifferentSeedsDiffer) {
  const FaultPlanConfig config = BaseConfig();
  const FaultPlan a = FaultPlan::Generate(config, 1);
  const FaultPlan b = FaultPlan::Generate(config, 2);
  bool differ = a.events.size() != b.events.size();
  for (size_t i = 0; !differ && i < a.events.size(); ++i) {
    differ = a.events[i].at != b.events[i].at ||
             a.events[i].node != b.events[i].node;
  }
  EXPECT_TRUE(differ);
}

TEST(FaultPlanTest, EventsSortedAndPaired) {
  const FaultPlanConfig config = BaseConfig();
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const FaultPlan plan = FaultPlan::Generate(config, seed);
    EXPECT_EQ(plan.events.size(), 2u * config.crash_cycles);
    NodeId down = kInvalidNode;
    SimTime prev = 0;
    for (const FaultEvent& e : plan.events) {
      EXPECT_GE(e.at, prev) << "events out of order, seed " << seed;
      prev = e.at;
      EXPECT_LT(e.at, config.horizon_us);
      EXPECT_GE(e.node, 0);
      EXPECT_LT(e.node, config.num_nodes);
      if (e.kind == FaultEvent::Kind::kCrash) {
        EXPECT_EQ(down, kInvalidNode) << "overlapping outages, seed " << seed;
        down = e.node;
      } else {
        ASSERT_EQ(e.kind, FaultEvent::Kind::kRejoin);
        EXPECT_EQ(down, e.node) << "rejoin without crash, seed " << seed;
        down = kInvalidNode;
      }
    }
    EXPECT_EQ(down, kInvalidNode) << "crash never rejoined, seed " << seed;
  }
}

TEST(FaultPlanTest, OutageBoundsRespected) {
  const FaultPlanConfig config = BaseConfig();
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const FaultPlan plan = FaultPlan::Generate(config, seed);
    for (size_t i = 0; i + 1 < plan.events.size(); i += 2) {
      const SimTime outage = plan.events[i + 1].at - plan.events[i].at;
      EXPECT_GE(outage, config.min_outage_us);
      EXPECT_LE(outage, config.max_outage_us);
    }
  }
}

TEST(FaultPlanTest, NoStallPlansEmitCrashNoStallEvents) {
  FaultPlanConfig config = BaseConfig();
  config.no_stall = true;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const FaultPlan plan = FaultPlan::Generate(config, seed);
    EXPECT_EQ(plan.events.size(), 2u * config.crash_cycles);
    NodeId down = kInvalidNode;
    for (const FaultEvent& e : plan.events) {
      EXPECT_NE(e.kind, FaultEvent::Kind::kCrash)
          << "a no-stall plan drew a stalling crash, seed " << seed;
      if (e.kind == FaultEvent::Kind::kCrashNoStall) {
        EXPECT_EQ(down, kInvalidNode) << "overlapping outages, seed " << seed;
        down = e.node;
      } else {
        ASSERT_EQ(e.kind, FaultEvent::Kind::kRejoin);
        EXPECT_EQ(down, e.node) << "rejoin without crash, seed " << seed;
        down = kInvalidNode;
      }
    }
    EXPECT_EQ(down, kInvalidNode) << "crash never rejoined, seed " << seed;
  }
}

TEST(FaultPlanTest, NoStallFlagOnlyChangesEventKinds) {
  // Same seed, same draws: the no-stall flag swaps the crash kind but
  // must not perturb the schedule itself.
  FaultPlanConfig stall = BaseConfig();
  FaultPlanConfig no_stall = BaseConfig();
  no_stall.no_stall = true;
  const FaultPlan a = FaultPlan::Generate(stall, 42);
  const FaultPlan b = FaultPlan::Generate(no_stall, 42);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].node, b.events[i].node);
    if (a.events[i].kind == FaultEvent::Kind::kCrash) {
      EXPECT_EQ(b.events[i].kind, FaultEvent::Kind::kCrashNoStall);
    } else {
      EXPECT_EQ(b.events[i].kind, a.events[i].kind);
    }
  }
  EXPECT_NE(b.DebugString().find("crash-nostall"), std::string::npos)
      << b.DebugString();
}

TEST(FaultPlanTest, LinkConfigCarriedThrough) {
  FaultPlanConfig config = BaseConfig();
  config.link.drop_prob = 0.05;
  config.link.duplicate_prob = 0.02;
  config.link.max_jitter_us = 123;
  const FaultPlan plan = FaultPlan::Generate(config, 9);
  EXPECT_DOUBLE_EQ(plan.link.drop_prob, 0.05);
  EXPECT_DOUBLE_EQ(plan.link.duplicate_prob, 0.02);
  EXPECT_EQ(plan.link.max_jitter_us, 123u);
  EXPECT_FALSE(plan.DebugString().empty());
}

// --- Partition generation. ---

FaultPlanConfig PartitionConfig() {
  FaultPlanConfig config = BaseConfig();
  config.no_stall = true;
  config.crash_cycles = 2;
  config.partition_cycles = 2;
  config.min_partition_us = MsToSim(20);
  config.max_partition_us = MsToSim(200);
  config.one_way_fraction = 0.5;
  return config;
}

TEST(FaultPlanTest, PartitionEventsSortedPairedAndBounded) {
  const FaultPlanConfig config = PartitionConfig();
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const FaultPlan plan = FaultPlan::Generate(config, seed);
    SimTime prev = 0;
    NodeId cut = kInvalidNode;
    SimTime cut_at = 0;
    PartitionMode cut_mode = PartitionMode::kTwoSided;
    size_t pairs = 0;
    for (const FaultEvent& e : plan.events) {
      EXPECT_GE(e.at, prev) << "events out of order, seed " << seed;
      prev = e.at;
      EXPECT_LT(e.at, config.horizon_us);
      if (e.kind == FaultEvent::Kind::kPartitionStart) {
        EXPECT_EQ(cut, kInvalidNode) << "overlapping cuts, seed " << seed;
        EXPECT_GE(e.node, 0);
        EXPECT_LT(e.node, config.num_nodes);
        cut = e.node;
        cut_at = e.at;
        cut_mode = e.mode;
      } else if (e.kind == FaultEvent::Kind::kPartitionHeal) {
        EXPECT_EQ(cut, e.node) << "heal without cut, seed " << seed;
        EXPECT_EQ(cut_mode, e.mode) << "heal mode mismatch, seed " << seed;
        const SimTime duration = e.at - cut_at;
        EXPECT_GE(duration, config.min_partition_us) << "seed " << seed;
        EXPECT_LE(duration, config.max_partition_us) << "seed " << seed;
        cut = kInvalidNode;
        ++pairs;
      }
    }
    EXPECT_EQ(cut, kInvalidNode) << "cut never healed, seed " << seed;
    EXPECT_EQ(pairs, static_cast<size_t>(config.partition_cycles));
  }
}

TEST(FaultPlanTest, PartitionVictimsDisjointFromCrashVictims) {
  // The detector marks partition victims down via the same membership path
  // kCrashNoStall uses, and a node must never be marked down twice.
  const FaultPlanConfig config = PartitionConfig();
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const FaultPlan plan = FaultPlan::Generate(config, seed);
    std::set<NodeId> crashed;
    for (const FaultEvent& e : plan.events) {
      if (e.kind == FaultEvent::Kind::kCrashNoStall) crashed.insert(e.node);
    }
    for (const FaultEvent& e : plan.events) {
      if (e.kind == FaultEvent::Kind::kPartitionStart) {
        EXPECT_EQ(crashed.count(e.node), 0u)
            << "node " << e.node << " both crashed and partitioned, seed "
            << seed;
      }
    }
  }
}

TEST(FaultPlanTest, OneWayFractionExtremes) {
  FaultPlanConfig config = PartitionConfig();
  config.crash_cycles = 0;
  config.one_way_fraction = 0.0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    for (const FaultEvent& e : FaultPlan::Generate(config, seed).events) {
      EXPECT_EQ(e.mode, PartitionMode::kTwoSided);
    }
  }
  config.one_way_fraction = 1.0;
  bool saw_inbound = false, saw_outbound = false;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    for (const FaultEvent& e : FaultPlan::Generate(config, seed).events) {
      EXPECT_NE(e.mode, PartitionMode::kTwoSided) << "seed " << seed;
      saw_inbound = saw_inbound || e.mode == PartitionMode::kInbound;
      saw_outbound = saw_outbound || e.mode == PartitionMode::kOutbound;
    }
  }
  EXPECT_TRUE(saw_inbound);
  EXPECT_TRUE(saw_outbound);
}

TEST(FaultPlanTest, PartitionKnobsDoNotPerturbCrashSchedule) {
  // Partition and gray draws are appended AFTER the crash draws, so adding
  // them must leave the crash/rejoin schedule bit-identical.
  FaultPlanConfig base = BaseConfig();
  base.no_stall = true;
  FaultPlanConfig extended = base;
  extended.partition_cycles = 2;
  extended.gray = true;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const FaultPlan a = FaultPlan::Generate(base, seed);
    const FaultPlan b = FaultPlan::Generate(extended, seed);
    std::vector<FaultEvent> crashes;
    for (const FaultEvent& e : b.events) {
      if (e.kind == FaultEvent::Kind::kCrashNoStall ||
          e.kind == FaultEvent::Kind::kRejoin) {
        crashes.push_back(e);
      }
    }
    ASSERT_EQ(crashes.size(), a.events.size()) << "seed " << seed;
    for (size_t i = 0; i < crashes.size(); ++i) {
      EXPECT_EQ(crashes[i].at, a.events[i].at) << "seed " << seed;
      EXPECT_EQ(crashes[i].kind, a.events[i].kind) << "seed " << seed;
      EXPECT_EQ(crashes[i].node, a.events[i].node) << "seed " << seed;
    }
  }
}

TEST(FaultPlanTest, GrayWindowSeededValidAndAvoidsCrashVictims) {
  FaultPlanConfig config = PartitionConfig();
  config.partition_cycles = 0;
  config.gray = true;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const FaultPlan plan = FaultPlan::Generate(config, seed);
    ASSERT_TRUE(plan.link.has_gray()) << "seed " << seed;
    EXPECT_GT(plan.link.gray_until_us, plan.link.gray_from_us);
    EXPECT_LE(plan.link.gray_until_us, config.horizon_us);
    EXPECT_GE(plan.link.gray_node, 0);
    EXPECT_LT(plan.link.gray_node, config.num_nodes);
    EXPECT_DOUBLE_EQ(plan.link.gray_drop_prob, config.gray_drop_prob);
    EXPECT_EQ(plan.link.gray_extra_delay_us, config.gray_extra_delay_us);
    for (const FaultEvent& e : plan.events) {
      if (e.kind == FaultEvent::Kind::kCrashNoStall) {
        EXPECT_NE(e.node, plan.link.gray_node) << "seed " << seed;
      }
    }
    EXPECT_NE(plan.DebugString().find("gray node="), std::string::npos);
    // Same seed, same window.
    const FaultPlan again = FaultPlan::Generate(config, seed);
    EXPECT_EQ(again.link.gray_from_us, plan.link.gray_from_us);
    EXPECT_EQ(again.link.gray_until_us, plan.link.gray_until_us);
    EXPECT_EQ(again.link.gray_node, plan.link.gray_node);
  }
}

// --- LinkChaos boundary behavior (satellite: drop/jitter/purity). ---

TEST(LinkChaosTest, CertainDropIsBoundedByMaxDropsPerMessage) {
  LinkChaosConfig config;
  config.drop_prob = 1.0;
  config.max_drops_per_message = 3;
  config.retransmit_delay_us = 200;
  const LinkChaos chaos(config, 7);
  for (uint64_t seq = 0; seq < 64; ++seq) {
    const net::Perturbation p = chaos.Draw(0, 1, seq);
    EXPECT_EQ(p.dropped_attempts, 3) << "seq " << seq;
    EXPECT_EQ(p.extra_delay_us, 3u * 200u) << "seq " << seq;
  }
}

TEST(LinkChaosTest, ZeroProbZeroJitterDrawsNothing) {
  const LinkChaos chaos(LinkChaosConfig{}, 7);
  for (uint64_t seq = 0; seq < 64; ++seq) {
    const net::Perturbation p = chaos.Draw(0, 1, seq, /*now=*/seq * 1000);
    EXPECT_EQ(p.dropped_attempts, 0);
    EXPECT_EQ(p.duplicates, 0);
    EXPECT_EQ(p.extra_delay_us, 0u);
  }
}

TEST(LinkChaosTest, DrawsArePureFunctionsOfLinkAndSeq) {
  LinkChaosConfig config;
  config.drop_prob = 0.5;
  config.duplicate_prob = 0.3;
  config.max_jitter_us = 500;
  const LinkChaos a(config, 99);
  const LinkChaos b(config, 99);
  // Interleave calls on other links between the two instances: the draw
  // for (src, dst, seq) must not depend on call order or other links.
  bool links_differ = false;
  for (uint64_t seq = 0; seq < 64; ++seq) {
    const net::Perturbation pa = a.Draw(0, 1, seq);
    (void)b.Draw(2, 3, seq);
    (void)b.Draw(1, 0, 63 - seq);
    const net::Perturbation pb = b.Draw(0, 1, seq);
    EXPECT_EQ(pa.dropped_attempts, pb.dropped_attempts) << "seq " << seq;
    EXPECT_EQ(pa.duplicates, pb.duplicates) << "seq " << seq;
    EXPECT_EQ(pa.extra_delay_us, pb.extra_delay_us) << "seq " << seq;
    const net::Perturbation reverse = a.Draw(1, 0, seq);
    links_differ = links_differ ||
                   reverse.extra_delay_us != pa.extra_delay_us ||
                   reverse.dropped_attempts != pa.dropped_attempts;
  }
  EXPECT_TRUE(links_differ) << "directed links share a draw stream";
}

TEST(LinkChaosTest, GrayWindowGatesExtraDelayAndStaysBounded) {
  LinkChaosConfig config;
  config.gray_from_us = 1000;
  config.gray_until_us = 2000;
  config.gray_node = 1;
  config.gray_extra_delay_us = 400;
  config.gray_drop_prob = 1.0;  // certain extra drops, still bounded
  config.max_drops_per_message = 3;
  config.retransmit_delay_us = 200;
  const LinkChaos chaos(config, 7);

  // Inside the window, on a victim link: flat extra delay + bounded drops.
  const net::Perturbation in = chaos.Draw(0, 1, 0, /*now=*/1500);
  EXPECT_EQ(in.dropped_attempts, 3);
  EXPECT_EQ(in.extra_delay_us, 3u * 200u + 400u);
  // Victim as sender is just as sick.
  EXPECT_EQ(chaos.Draw(1, 2, 0, 1500).extra_delay_us, 3u * 200u + 400u);
  // Outside the window (before, at the half-open end) or away from the
  // victim: clean.
  EXPECT_EQ(chaos.Draw(0, 1, 0, 999).extra_delay_us, 0u);
  EXPECT_EQ(chaos.Draw(0, 1, 0, 2000).extra_delay_us, 0u);
  EXPECT_EQ(chaos.Draw(0, 2, 0, 1500).extra_delay_us, 0u);
}

TEST(LinkChaosTest, HeartbeatDropsAreWindowGatedAndPure) {
  LinkChaosConfig config;
  config.gray_from_us = 1000;
  config.gray_until_us = 2000;
  config.gray_node = 1;
  config.gray_heartbeat_drop_prob = 1.0;
  const LinkChaos chaos(config, 7);
  EXPECT_TRUE(chaos.HeartbeatDropped(0, 1, 5, 1500));
  EXPECT_TRUE(chaos.HeartbeatDropped(1, 0, 5, 1500));
  EXPECT_FALSE(chaos.HeartbeatDropped(0, 2, 5, 1500)) << "non-victim link";
  EXPECT_FALSE(chaos.HeartbeatDropped(0, 1, 5, 999)) << "before the window";
  EXPECT_FALSE(chaos.HeartbeatDropped(0, 1, 5, 2000)) << "half-open end";

  config.gray_heartbeat_drop_prob = 0.6;
  const LinkChaos a(config, 123);
  const LinkChaos b(config, 123);
  bool saw_drop = false, saw_pass = false;
  for (uint64_t tick = 0; tick < 64; ++tick) {
    const bool dropped = a.HeartbeatDropped(0, 1, tick, 1500);
    EXPECT_EQ(dropped, b.HeartbeatDropped(0, 1, tick, 1500))
        << "tick " << tick;
    saw_drop = saw_drop || dropped;
    saw_pass = saw_pass || !dropped;
  }
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_pass);
}

}  // namespace
}  // namespace hermes::fault
