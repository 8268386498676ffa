// The simulator's event heap through its public API: (time, seq) order on
// one lane, the total order every property test in this repository leans
// on. Lane interleaving is pinned by epoch_barrier_test.
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace hermes::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  Simulator sim;
  std::vector<int> fired;
  sim.Schedule(30, [&] { fired.push_back(3); });
  sim.Schedule(10, [&] { fired.push_back(1); });
  sim.Schedule(20, [&] { fired.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreakAtEqualTimes) {
  Simulator sim;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&fired, i] { fired.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

// The documented total order is (when, insertion sequence): among equal
// virtual times, events fire strictly in the order they were pushed — no
// matter how pushes at other timestamps interleave with them. The
// scheduler, network, and executor all rely on this when they schedule
// work "now".
TEST(EventQueueTest, EqualTimeOrderIndependentOfInsertionPattern) {
  // Three insertion patterns for the same logical event set: events
  // {0..5} at time 100 interleaved with noise at times 50/150/100±0.
  // Within time 100 the push order of the labeled events is identical, so
  // the firing order of the labels must be identical too.
  auto run = [](int pattern) {
    Simulator sim;
    std::vector<int> fired;
    auto label = [&fired](int i) { return [&fired, i] { fired.push_back(i); }; };
    switch (pattern) {
      case 0:  // labels first, then noise
        for (int i = 0; i < 6; ++i) sim.ScheduleAt(100, label(i));
        sim.ScheduleAt(50, [] {});
        sim.ScheduleAt(150, [] {});
        break;
      case 1:  // noise before, between, after
        sim.ScheduleAt(150, [] {});
        sim.ScheduleAt(100, label(0));
        sim.ScheduleAt(50, [] {});
        sim.ScheduleAt(100, label(1));
        sim.ScheduleAt(100, label(2));
        sim.ScheduleAt(150, [] {});
        sim.ScheduleAt(100, label(3));
        sim.ScheduleAt(50, [] {});
        sim.ScheduleAt(100, label(4));
        sim.ScheduleAt(100, label(5));
        break;
      default:  // labels pushed while draining earlier times
        sim.ScheduleAt(50, [&sim, &label] {
          for (int i = 0; i < 3; ++i) sim.ScheduleAt(100, label(i));
        });
        sim.ScheduleAt(50, [&sim, &label] {
          for (int i = 3; i < 6; ++i) sim.ScheduleAt(100, label(i));
        });
        sim.ScheduleAt(150, [] {});
        break;
    }
    sim.RunAll();
    return fired;
  };
  const std::vector<int> want = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(run(0), want);
  EXPECT_EQ(run(1), want);
  EXPECT_EQ(run(2), want);
}

TEST(EventQueueTest, PushDuringPopOfSameTimeFiresAfterAllCurrent) {
  // An event at time T that pushes another event at time T: the new event
  // has a larger sequence number, so it fires after everything already
  // enqueued at T — the heap can never reorder "now" work ahead of
  // earlier "now" work.
  Simulator sim;
  std::vector<int> fired;
  sim.ScheduleAt(10, [&] {
    fired.push_back(0);
    sim.Schedule(0, [&] { fired.push_back(2); });
  });
  sim.ScheduleAt(10, [&] { fired.push_back(1); });
  sim.RunAll();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace hermes::sim
