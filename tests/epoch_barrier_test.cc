// Edge cases of the simulator's epoch schedule (DESIGN.md §5 "Epoch
// schedule"): lanes with no events at an epoch, a lane whose only events
// are epoch-crossing deliveries staged by another lane, and a crash mid-run
// under kCrashNoStall where the parked-transaction FIFO must survive the
// barrier, and seeded random programs over the whole scheduling API. Each
// case pins the literal pop transcript or digests, so any change to the
// control slice -> lane slice -> barrier order shows up here first.
#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/digest.h"
#include "common/rng.h"
#include "engine/cluster.h"
#include "partition/partition_map.h"
#include "sim/simulator.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;
using sim::Simulator;

using Fired = std::pair<SimTime, int>;  // (time, lane) of one executed event

/// The decision digest a pop transcript must produce: Simulator::MixPop
/// mixes each (time, lane, seq) as Mix(time); Mix((lane + 1) << 40 ^ seq).
uint64_t TranscriptDigest(
    const std::vector<std::tuple<SimTime, int, uint64_t>>& pops) {
  DecisionDigest d;
  for (const auto& [when, lane, seq] : pops) {
    d.Mix(when);
    d.Mix((static_cast<uint64_t>(lane + 1) << 40) ^ seq);
  }
  return d.value();
}

// Only lane 2 (of four) ever has events; lanes 0, 1 and 3 are empty at
// every epoch. The barrier must skip them without perturbing the digest,
// and the run must terminate.
TEST(EpochBarrierTest, EmptyLanesAreSkipped) {
  Simulator sim;
  DecisionDigest digest;
  sim.set_decision_digest(&digest);
  sim.ConfigureLanes(4);
  std::vector<Fired> fired;
  auto note = [&] { fired.emplace_back(sim.Now(), sim.current_lane()); };

  sim.Schedule(5, note);  // control lane
  for (SimTime when : {10, 10, 25, 40}) sim.ScheduleOnLaneAt(2, when, note);
  sim.RunAll();

  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_EQ(fired, (std::vector<Fired>{{5, sim::kControlLane},
                                       {10, 2},
                                       {10, 2},
                                       {25, 2},
                                       {40, 2}}));
  EXPECT_EQ(digest.value(), TranscriptDigest({{5, sim::kControlLane, 0},
                                              {10, 2, 0},
                                              {10, 2, 1},
                                              {25, 2, 2},
                                              {40, 2, 3}}));
}

// Lane 1 never schedules anything itself: every one of its events is an
// epoch-crossing delivery staged by a lane-0 event (the migration-delivery
// shape). Deliveries staged with delay 0 land in the SAME epoch — the
// barrier applies the staged push and re-enters the lane slice at the same
// virtual time — so the receiving closure observes the sender's clock.
TEST(EpochBarrierTest, DeliveryOnlyLaneRunsAfterTheBarrier) {
  Simulator sim;
  DecisionDigest digest;
  sim.set_decision_digest(&digest);
  sim.ConfigureLanes(2);
  std::vector<Fired> fired;
  auto note = [&] { fired.emplace_back(sim.Now(), sim.current_lane()); };

  for (SimTime when : {10, 10, 30}) {
    sim.ScheduleOnLaneAt(0, when, [&] {
      note();
      // Same-epoch delivery to lane 1 plus a delayed one: both staged at
      // the barrier, never pushed directly into a sibling queue.
      sim.ScheduleOnLane(1, 0, note);
      sim.ScheduleOnLane(1, 7, note);
    });
  }
  sim.RunAll();

  EXPECT_EQ(sim.events_executed(), 9u);
  // Lane 1's deliveries queue in staging order — (10, seq 0), (17, 1),
  // (10, 2), (17, 3) from the two t=10 senders — so the re-entered t=10
  // slice pops seqs 0 and 2, and t=17 pops 1 and 3.
  EXPECT_EQ(fired, (std::vector<Fired>{{10, 0},
                                       {10, 0},
                                       {10, 1},
                                       {10, 1},
                                       {17, 1},
                                       {17, 1},
                                       {30, 0},
                                       {30, 1},
                                       {37, 1}}));
  EXPECT_EQ(digest.value(), TranscriptDigest({{10, 0, 0},
                                              {10, 0, 1},
                                              {10, 1, 0},
                                              {10, 1, 2},
                                              {17, 1, 1},
                                              {17, 1, 3},
                                              {30, 0, 2},
                                              {30, 1, 4},
                                              {37, 1, 5}}));
}

// Crash under kCrashNoStall with a chunk-migration stream toward the dead
// node: chunks park in FIFO order while the node is down and release in
// that order at rejoin. Pins the parked list (rendered in park order by
// DegradedDebugString) and the post-drain decision digest.
TEST(EpochBarrierTest, CrashNoStallParkedFifoSurvivesTheBarrier) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 8'000;
  config.hermes.fusion_table_capacity = 300;
  Cluster cluster(config, RouterKind::kHermes,
                  std::make_unique<partition::RangePartitionMap>(
                      config.num_records, config.num_nodes));
  cluster.Load();

  cluster.CrashNoStall(1);
  cluster.SubmitMigrationPlan({{100, 899, 1}});
  cluster.RunUntil(MsToSim(20));

  EXPECT_EQ(cluster.DegradedDebugString(),
            "membership epoch=1 down=[1]\n"
            "degraded: parked=1 retries=0 unavailable=0 watchdog_aborts=0 "
            "reclaims=0 reships=0 retry_digest=14650fb0739d0383\n"
            "parked txn=0 kind=1 attempt=0 epoch=1\n");

  cluster.RejoinNoStall(1);
  cluster.Drain();
  EXPECT_EQ(cluster.parked_count(), 0u);
  for (Key k = 100; k <= 899; ++k) {
    EXPECT_TRUE(cluster.node(1).store().Contains(k)) << "chunk key " << k;
  }
  EXPECT_EQ(cluster.degraded_ledger().parked_total(), 1u);
  EXPECT_EQ(cluster.decision_digest().value(), 0x2a8384e16b72fb45u);
}

// A seeded random program over the simulator's public API: same-time and
// delayed pushes to the own lane, other lanes, an out-of-range lane and
// the control lane; past-time ScheduleAt; Defer chains; EnsureLanes
// mid-run (1 to 9 lanes); and RunUntil splitting epochs, with pushes from
// outside the run between the slices. Every closure notes (time, rank) in
// `observed`, so a pin covers the run order as well as the pop transcript.
class RandomProgram {
 public:
  explicit RandomProgram(uint64_t seed) : rng_(seed) {}

  void Run() {
    sim.set_decision_digest(&digest);
    sim.ConfigureLanes(1 + static_cast<int>(rng_.NextBounded(4)));
    for (int i = 0; i < 6; ++i) Spawn(rng_.NextBounded(40));
    for (SimTime deadline : {20, 45, 70}) {
      sim.RunUntil(deadline);
      Spawn(sim.Now() - rng_.NextBounded(5));  // past: clamps to deadline
      Spawn(sim.Now() + rng_.NextBounded(30));
    }
    sim.RunAll();
  }

  Simulator sim;
  DecisionDigest digest;
  DecisionDigest observed;
  int max_rounds = 0;  // most control/lane/barrier rounds at one time

 private:
  static constexpr int kMaxLanes = 9;
  static constexpr int kBarrierRank = kMaxLanes;

  // [-1, num_lanes]: control, every node lane, and one out-of-range lane.
  int RandomLane() {
    return static_cast<int>(rng_.NextBounded(sim.num_lanes() + 2)) - 1;
  }
  void Spawn(SimTime when) {
    sim.ScheduleOnLaneAt(RandomLane(), when, [this] { Event(); });
  }
  void Event() {
    Note(sim.current_lane());
    for (uint64_t n = rng_.NextBounded(3); n > 0; --n) Act();
  }

  void Act() {
    if (budget_-- <= 0) return;
    auto event = [this] { Event(); };
    const SimTime later = 1 + rng_.NextBounded(20);
    const SimTime back = std::min<SimTime>(sim.Now(), rng_.NextBounded(8));
    auto grow = [this] {
      sim.EnsureLanes(std::min(sim.num_lanes() + 1, kMaxLanes));
    };
    switch (rng_.NextBounded(10)) {
      case 0:
      case 1: sim.Schedule(0, event); break;
      case 2: sim.Schedule(later, event); break;
      case 3:
      case 4: sim.ScheduleOnLane(RandomLane(), 0, event); break;
      case 5: sim.ScheduleOnLane(RandomLane(), later, event); break;
      case 6: sim.ScheduleAt(sim.Now() - back, event); break;
      case 7: sim.ScheduleOnLane(sim::kControlLane, 0, event); break;
      case 8: {  // runs inline when exclusive, at the barrier otherwise
        const int rank = sim.in_lane_context() ? kBarrierRank : -1;
        sim.Defer([this, rank] {
          Note(rank);
          if (rng_.NextBounded(2) == 0) Act();
        });
        break;
      }
      default:  // lane growth is exclusive-only
        if (sim.in_lane_context()) {
          sim.Defer(grow);
        } else {
          grow();
        }
    }
  }

  // A new round at the same time starts whenever the rank (control -1,
  // lane i, barrier kBarrierRank) drops.
  void Note(int rank) {
    rounds_ = sim.Now() != last_now_ ? 1 : rounds_ + (rank < last_rank_);
    max_rounds = std::max(max_rounds, rounds_);
    last_now_ = sim.Now();
    last_rank_ = rank;
    observed.Mix(sim.Now());
    observed.Mix(static_cast<uint64_t>(rank + 2));
  }

  Rng rng_;
  int budget_ = 160;
  SimTime last_now_ = ~SimTime{0};
  int last_rank_ = 0;
  int rounds_ = 0;
};

// 300 seeded random programs, each pinned by its decision digest,
// events_executed(), final Now() and observed run order, folded into one
// value. Any change to the (time, lane, seq) pop order, the barrier's
// staging order or the RunUntil clock moves the pin.
TEST(EpochBarrierTest, RandomProgramTranscriptsArePinned) {
  DecisionDigest combined;
  int multi_round_seeds = 0;  // seeds with >= 3 rounds at one time
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    RandomProgram p(seed);
    p.Run();
    if (seed == 1) {
      EXPECT_EQ(p.digest.value(), 0xaa440a6efeb4d856u);
      EXPECT_EQ(p.sim.events_executed(), 58u);
      EXPECT_EQ(p.sim.Now(), 74u);
    }
    combined.Mix(p.digest.value());
    combined.Mix(p.sim.events_executed());
    combined.Mix(p.sim.Now());
    combined.Mix(p.observed.value());
    multi_round_seeds += p.max_rounds >= 3;
  }
  EXPECT_GE(multi_round_seeds, 100);
  EXPECT_EQ(combined.value(), 0x35356f603879aeabu);
}

}  // namespace
}  // namespace hermes
