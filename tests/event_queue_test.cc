#include "sim/event_queue.h"

#include <vector>

#include <gtest/gtest.h>

namespace hermes::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Push(30, [&] { fired.push_back(3); });
  q.Push(10, [&] { fired.push_back(1); });
  q.Push(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.PopEntry().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreakAtEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Push(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.PopEntry().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.Push(42, [] {});
  q.Push(7, [] {});
  EXPECT_EQ(q.NextTime(), 7u);
  q.PopEntry();
  EXPECT_EQ(q.NextTime(), 42u);
}

TEST(EventQueueTest, SizeTracksContents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.Push(1, [] {});
  q.Push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.PopEntry();
  EXPECT_EQ(q.size(), 1u);
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
    EventQueue q;
    std::vector<int> fired;
    auto label = [&fired](int i) { return [&fired, i] { fired.push_back(i); }; };
    switch (pattern) {
      case 0:  // labels first, then noise
        for (int i = 0; i < 6; ++i) q.Push(100, label(i));
        q.Push(50, [] {});
        q.Push(150, [] {});
        break;
      case 1:  // noise before, between, after
        q.Push(150, [] {});
        q.Push(100, label(0));
        q.Push(50, [] {});
        q.Push(100, label(1));
        q.Push(100, label(2));
        q.Push(150, [] {});
        q.Push(100, label(3));
        q.Push(50, [] {});
        q.Push(100, label(4));
        q.Push(100, label(5));
        break;
      default:  // labels pushed while draining earlier times
        q.Push(50, [&q, &label] {
          for (int i = 0; i < 3; ++i) q.Push(100, label(i));
        });
        q.Push(50, [&q, &label] {
          for (int i = 3; i < 6; ++i) q.Push(100, label(i));
        });
        q.Push(150, [] {});
        break;
    }
    while (!q.empty()) q.PopEntry().fn();
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
  // enqueued at T — the queue can never reorder "now" work ahead of
  // earlier "now" work.
  EventQueue q;
  std::vector<int> fired;
  q.Push(10, [&] {
    fired.push_back(0);
    q.Push(10, [&] { fired.push_back(2); });
  });
  q.Push(10, [&] { fired.push_back(1); });
  while (!q.empty()) q.PopEntry().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace hermes::sim
