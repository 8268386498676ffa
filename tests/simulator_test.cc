#include "sim/simulator.h"

#include <vector>

#include <gtest/gtest.h>

namespace hermes::sim {
namespace {

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = 0;
  sim.Schedule(100, [&] { seen = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(sim.Now(), 100u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(50, [&] { ++fired; });
  sim.Schedule(150, [&] { ++fired; });
  sim.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 100u);
  sim.RunUntil(200);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilAdvancesClockOnIdleQueue) {
  Simulator sim;
  sim.RunUntil(500);
  EXPECT_EQ(sim.Now(), 500u);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, NestedSchedulingFromHandlers) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(10, [&] {
    times.push_back(sim.Now());
    sim.Schedule(5, [&] { times.push_back(sim.Now()); });
  });
  sim.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [] {});
  sim.RunAll();
  SimTime seen = 0;
  sim.ScheduleAt(50, [&] { seen = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(seen, 100u);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(i, [] {});
  sim.RunAll();
  EXPECT_EQ(sim.events_executed(), 7u);
}

// Regression for the ScheduleAt past-time semantics: a past `when` clamps
// to the *caller's epoch-local clock* and the clamped event takes the next
// sequence number on the caller's lane — so the pop transcript fed to the
// decision digest is exactly (100, seq 0), (100, seq 1) on the control
// lane. Pinned by replaying MixPop's mixing scheme by hand; a change to
// either the clamp rule or the digest total order breaks this test.
TEST(SimulatorTest, ScheduleAtPastClampDigestTranscript) {
  Simulator sim;
  DecisionDigest digest;
  sim.set_decision_digest(&digest);
  SimTime clamped_fire = 0;
  sim.Schedule(100, [&] {
    sim.ScheduleAt(40, [&] { clamped_fire = sim.Now(); });  // 40 < now=100
  });
  sim.RunAll();
  EXPECT_EQ(clamped_fire, 100u);

  DecisionDigest expected;  // MixPop: Mix(when); Mix((lane+1)<<40 ^ seq)
  expected.Mix(100);        // outer event: control lane (tag 0), seq 0
  expected.Mix((uint64_t{0} << 40) ^ 0);
  expected.Mix(100);        // clamped event: same epoch, seq 1
  expected.Mix((uint64_t{0} << 40) ^ 1);
  EXPECT_EQ(digest.value(), expected.value());
  EXPECT_EQ(digest.count(), expected.count());
}

// The same clamp from inside a node-lane event: the reference clock is the
// lane's epoch clock, the clamped event stays on the caller's lane, and
// the transcript is (60, lane 1, seq 0), (60, lane 1, seq 1).
TEST(SimulatorTest, ScheduleAtPastClampOnLaneDigestTranscript) {
  Simulator sim;
  DecisionDigest digest;
  sim.set_decision_digest(&digest);
  sim.ConfigureLanes(2);
  SimTime fire = 0;
  int fire_lane = -99;
  sim.ScheduleOnLaneAt(1, 60, [&] {
    sim.ScheduleAt(20, [&] {  // past; clamps to lane 1's clock (60)
      fire = sim.Now();
      fire_lane = sim.current_lane();
    });
  });
  sim.RunAll();
  EXPECT_EQ(fire, 60u);
  EXPECT_EQ(fire_lane, 1);

  DecisionDigest expected;
  expected.Mix(60);  // outer lane-1 event (tag 2), seq 0
  expected.Mix((uint64_t{2} << 40) ^ 0);
  expected.Mix(60);  // clamped event, same epoch, lane 1, seq 1
  expected.Mix((uint64_t{2} << 40) ^ 1);
  EXPECT_EQ(digest.value(), expected.value());
}

}  // namespace
}  // namespace hermes::sim
