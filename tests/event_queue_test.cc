// The simulator's event queue through its public API: (time, seq) order on
// one lane, the total order every property test in this repository leans
// on, and a differential test of the timing wheel against a sorted-key
// reference model over seeded random programs. Lane interleaving is pinned
// by epoch_barrier_test.
#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/digest.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/callback.h"
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

// The queue's specification, kept independent of the wheel: one ordered
// map keyed (when, (lane + 1) << 48 | seq) with the same lane staging,
// Defer, clamping and RunUntil clock rule as Simulator. The random
// programs below must pop identically on both.
class ReferenceSim {
 public:
  SimTime Now() const { return now_; }
  void ConfigureLanes(int n) { EnsureLanes(n); }
  void EnsureLanes(int n) {
    if (n > num_lanes()) next_seq_.resize(static_cast<size_t>(n) + 1, 0);
  }
  int num_lanes() const { return static_cast<int>(next_seq_.size()) - 1; }
  int current_lane() const { return lane_; }
  bool in_lane_context() const { return lane_ != kControlLane; }
  uint64_t events_executed() const { return events_executed_; }
  void set_decision_digest(DecisionDigest* d) { digest_ = d; }

  void Schedule(SimTime delay, Callback fn) {
    ScheduleOnLaneAt(lane_, now_ + delay, std::move(fn));
  }
  void ScheduleAt(SimTime when, Callback fn) {
    ScheduleOnLaneAt(lane_, when, std::move(fn));
  }
  void ScheduleOnLane(int lane, SimTime delay, Callback fn) {
    ScheduleOnLaneAt(lane, now_ + delay, std::move(fn));
  }
  void ScheduleOnLaneAt(int lane, SimTime when, Callback fn) {
    when = std::max(when, now_);
    if (lane < 0 || lane >= num_lanes()) lane = kControlLane;
    if (in_lane_context() && lane != lane_) {
      staged_.push_back({false, lane, when, std::move(fn)});
    } else {
      Push(lane, when, std::move(fn));
    }
  }
  void Defer(Callback fn) {
    if (in_lane_context()) {
      staged_.push_back({true, kControlLane, 0, std::move(fn)});
    } else {
      fn();
    }
  }

  void RunUntil(SimTime deadline) { Run(deadline, false); }
  void RunAll() { Run(0, true); }

 private:
  struct Staged {
    bool is_effect;
    int lane;
    SimTime when;
    Callback fn;
  };

  void Push(int lane, SimTime when, Callback fn) {
    const uint64_t order = static_cast<uint64_t>(lane + 1) << 48 |
                           next_seq_[static_cast<size_t>(lane + 1)]++;
    queue_.emplace(std::make_pair(when, order), std::move(fn));
  }

  void Run(SimTime deadline, bool run_all) {
    while (!queue_.empty()) {
      const SimTime t = queue_.begin()->first.first;
      if (!run_all && t > deadline) break;
      now_ = t;
      while (!queue_.empty() && queue_.begin()->first.first == t) {
        auto node = queue_.extract(queue_.begin());
        const uint64_t order = node.key().second;
        lane_ = static_cast<int>(order >> 48) - 1;
        if (digest_ != nullptr) {
          digest_->Mix(t);
          digest_->Mix((static_cast<uint64_t>(lane_ + 1) << 40) ^
                       (order & ((uint64_t{1} << 48) - 1)));
        }
        ++events_executed_;
        node.mapped()();
      }
      lane_ = kControlLane;
      std::vector<Staged> staged = std::move(staged_);
      staged_.clear();
      for (Staged& op : staged) {
        if (op.is_effect) {
          op.fn();
        } else {
          Push(op.lane, op.when, std::move(op.fn));
        }
      }
    }
    if (!run_all && now_ < deadline) now_ = deadline;
  }

  std::map<std::pair<SimTime, uint64_t>, Callback> queue_;
  std::vector<uint64_t> next_seq_ = std::vector<uint64_t>(1, 0);
  std::vector<Staged> staged_;
  SimTime now_ = 0;
  int lane_ = kControlLane;
  uint64_t events_executed_ = 0;
  DecisionDigest* digest_ = nullptr;
};

constexpr SimTime kW = Simulator::kWheelSpan;

/// (time, lane, event id) of one pop; the seq half of the key is checked
/// through the decision digest, which mixes it.
using Pop = std::tuple<SimTime, int, int>;

/// A seeded random program over the scheduling API, run against `S`:
/// same-time bursts, delays around and beyond the wheel span, past-time
/// clamps, staged cross-lane pushes and Defer, and RunUntil deadlines that
/// stop between events followed by pushes before the pending minimum.
template <typename S>
class WheelProgram {
 public:
  explicit WheelProgram(uint64_t seed) : rng_(seed) {}

  void Run() {
    sim.set_decision_digest(&digest);
    sim.ConfigureLanes(1 + static_cast<int>(rng_.NextBounded(4)));
    for (int i = 0; i < 8; ++i) Spawn(rng_.NextBounded(3 * kW));
    for (int i = 0; i < 6; ++i) {
      sim.RunUntil(sim.Now() + 1 + rng_.NextBounded(2 * kW));
      // Every pending event is past the deadline, so these land before
      // the pending minimum: at the deadline itself, one tick later, and
      // a past time that clamps to the deadline.
      Spawn(sim.Now());
      Spawn(sim.Now() + 1);
      Spawn(sim.Now() - std::min<SimTime>(sim.Now(), 3));
    }
    sim.RunAll();
  }

  S sim;
  DecisionDigest digest;
  std::vector<Pop> pops;
  int far_pushes = 0;  // pushes at least one wheel span ahead

 private:
  int RandomLane() {
    return static_cast<int>(rng_.NextBounded(sim.num_lanes() + 2)) - 1;
  }
  Callback NewEvent() {
    const int id = next_id_++;
    return [this, id] { Event(id); };
  }
  void Spawn(SimTime when) {
    sim.ScheduleOnLaneAt(RandomLane(), when, NewEvent());
  }
  SimTime RandomDelay() {
    switch (rng_.NextBounded(8)) {
      case 0: return 0;
      case 1: return kW - 1;
      case 2: return kW;
      case 3: return kW + 1;
      case 4: return (2 + rng_.NextBounded(4)) * kW + rng_.NextBounded(3);
      case 5: return rng_.NextBounded(kW);
      default: return rng_.NextBounded(40);
    }
  }
  void Event(int id) {
    pops.emplace_back(sim.Now(), sim.current_lane(), id);
    for (uint64_t n = rng_.NextBounded(3); n > 0; --n) Act();
  }
  void Act() {
    if (budget_-- <= 0) return;
    const SimTime delay = RandomDelay();
    far_pushes += delay >= kW;
    switch (rng_.NextBounded(8)) {
      case 0: {  // same-time burst on this lane, then one on another lane
        for (uint64_t k = 1 + rng_.NextBounded(6); k > 0; --k) {
          sim.Schedule(0, NewEvent());
        }
        const int lane = RandomLane();
        for (uint64_t k = 1 + rng_.NextBounded(4); k > 0; --k) {
          sim.ScheduleOnLane(lane, 0, NewEvent());
        }
        break;
      }
      case 1: sim.Schedule(delay, NewEvent()); break;
      case 2: sim.ScheduleOnLane(RandomLane(), delay, NewEvent()); break;
      case 3:  // a burst at one future time from several lanes
        for (uint64_t k = 1 + rng_.NextBounded(5); k > 0; --k) {
          sim.ScheduleOnLane(RandomLane(), delay, NewEvent());
        }
        break;
      case 4:
        sim.ScheduleAt(sim.Now() - std::min<SimTime>(sim.Now(),
                                                     rng_.NextBounded(9)),
                       NewEvent());
        break;
      case 5:
        sim.ScheduleOnLaneAt(RandomLane(), sim.Now() + delay, NewEvent());
        break;
      case 6:  // runs inline when exclusive, at the barrier otherwise
        sim.Defer([this] {
          if (rng_.NextBounded(2) == 0) Act();
        });
        break;
      default:
        if (sim.in_lane_context()) {
          sim.Defer([this] { sim.EnsureLanes(sim.num_lanes() + 1); });
        } else if (sim.num_lanes() < 8) {
          sim.EnsureLanes(sim.num_lanes() + 1);
        }
    }
  }

  Rng rng_;
  int budget_ = 400;
  int next_id_ = 0;
};

TEST(EventQueueTest, WheelMatchesSortedReferenceOnRandomPrograms) {
  int far_programs = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    WheelProgram<Simulator> wheel(seed);
    WheelProgram<ReferenceSim> ref(seed);
    wheel.Run();
    ref.Run();
    ASSERT_EQ(wheel.pops.size(), ref.pops.size()) << "seed " << seed;
    for (size_t i = 0; i < ref.pops.size(); ++i) {
      ASSERT_EQ(wheel.pops[i], ref.pops[i]) << "seed " << seed << " pop " << i;
    }
    EXPECT_EQ(wheel.digest.value(), ref.digest.value()) << "seed " << seed;
    EXPECT_EQ(wheel.sim.events_executed(), ref.sim.events_executed());
    EXPECT_EQ(wheel.sim.Now(), ref.sim.Now()) << "seed " << seed;
    EXPECT_TRUE(wheel.sim.idle());
    far_programs += wheel.far_pushes > 0;
  }
  EXPECT_GE(far_programs, 150);
}

}  // namespace
}  // namespace hermes::sim
