#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace hermes::sim {

namespace {

constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

}  // namespace

Simulator::Simulator() = default;

Simulator::~Simulator() = default;

void Simulator::ConfigureLanes(int num_lanes, int threads) {
  assert(threads == 0 && "lanes run sequentially; threads must be 0");
  (void)threads;
  EnsureLanes(num_lanes);
}

void Simulator::EnsureLanes(int num_lanes) {
  assert(!in_lane_context() && "lane growth must happen in exclusive context");
  while (static_cast<int>(lanes_.size()) < num_lanes) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

void Simulator::Schedule(SimTime delay, Callback fn) {
  ScheduleOnLaneAt(current_lane(), Now() + delay, std::move(fn));
}

void Simulator::ScheduleAt(SimTime when, Callback fn) {
  ScheduleOnLaneAt(current_lane(), when, std::move(fn));
}

void Simulator::ScheduleOnLane(int lane, SimTime delay, Callback fn) {
  ScheduleOnLaneAt(lane, Now() + delay, std::move(fn));
}

void Simulator::ScheduleOnLaneAt(int lane, SimTime when, Callback fn) {
  // Past times fire "now": the executing event's epoch, the only clock the
  // caller can observe.
  if (when < now_) when = now_;
  if (lane < 0 || lane >= static_cast<int>(lanes_.size())) lane = kControlLane;
  if (in_lane_context()) {
    if (lane == lane_) {
      // Same-lane work needs no barrier: the push order is the lane's own
      // program order.
      lanes_[static_cast<size_t>(lane_)]->queue.Push(when, std::move(fn));
      return;
    }
    lanes_[static_cast<size_t>(lane_)]->staged.push_back(
        StagedOp{false, lane, when, std::move(fn)});
    return;
  }
  PushDirect(lane, when, std::move(fn));
}

void Simulator::PushDirect(int lane, SimTime when, Callback fn) {
  if (lane == kControlLane) {
    control_.Push(when, std::move(fn));
  } else {
    lanes_[static_cast<size_t>(lane)]->queue.Push(when, std::move(fn));
  }
}

void Simulator::Defer(Callback fn) {
  if (in_lane_context()) {
    lanes_[static_cast<size_t>(lane_)]->staged.push_back(
        StagedOp{true, kControlLane, 0, std::move(fn)});
    return;
  }
  fn();
}

void Simulator::MixPop(SimTime when, int lane, uint64_t seq) {
  if (digest_ == nullptr) return;
  digest_->Mix(when);
  digest_->Mix((static_cast<uint64_t>(lane + 1) << 40) ^ seq);
}

void Simulator::ExecuteLane(int i, SimTime t) {
  Lane& lane = *lanes_[static_cast<size_t>(i)];
  lane_ = i;
  while (!lane.queue.empty() && lane.queue.NextTime() == t) {
    EventQueue::Popped e = lane.queue.PopEntry();
    lane.popped_seqs.push_back(e.seq);
    e.fn();
  }
  lane_ = kControlLane;
}

void Simulator::RunUntil(SimTime deadline) {
  RunLoop(deadline, /*run_all=*/false);
}

void Simulator::RunAll() { RunLoop(0, /*run_all=*/true); }

void Simulator::RunLoop(SimTime deadline, bool run_all) {
  const int entry_lane = lane_;
  lane_ = kControlLane;
  for (;;) {
    // Next epoch: the earliest pending timestamp across all queues.
    SimTime t = control_.empty() ? kNoEvent : control_.NextTime();
    for (const auto& lane : lanes_) {
      if (!lane->queue.empty()) t = std::min(t, lane->queue.NextTime());
    }
    if (t == kNoEvent || (!run_all && t > deadline)) break;
    now_ = t;

    // 1. Control slice: exclusive.
    while (!control_.empty() && control_.NextTime() == t) {
      EventQueue::Popped e = control_.PopEntry();
      MixPop(t, kControlLane, e.seq);
      ++events_executed_;
      e.fn();
    }

    // 2. Lane slice: every lane with events at t, in ascending lane order.
    active_lanes_.clear();
    for (int i = 0; i < static_cast<int>(lanes_.size()); ++i) {
      const EventQueue& q = lanes_[static_cast<size_t>(i)]->queue;
      if (!q.empty() && q.NextTime() == t) active_lanes_.push_back(i);
    }
    if (active_lanes_.empty()) continue;
    for (int i : active_lanes_) ExecuteLane(i, t);

    // 3. Barrier: fold pop transcripts, then apply staged work, both in
    // ascending lane order — the merge order is part of the total order.
    for (int i : active_lanes_) {
      Lane& lane = *lanes_[static_cast<size_t>(i)];
      for (uint64_t seq : lane.popped_seqs) MixPop(t, i, seq);
      events_executed_ += lane.popped_seqs.size();
      lane.popped_seqs.clear();
    }
    for (int i : active_lanes_) {
      // Effects run exclusively (and may push directly or Defer inline),
      // so the staged vector cannot grow while we drain it; draining it in
      // place keeps its capacity for the next epoch.
      std::vector<StagedOp>& ops = lanes_[static_cast<size_t>(i)]->staged;
      for (StagedOp& op : ops) {
        if (op.is_effect) {
          op.fn();
        } else {
          PushDirect(op.lane, op.when, std::move(op.fn));
        }
      }
      ops.clear();
    }
  }
  if (!run_all && now_ < deadline) now_ = deadline;
  lane_ = entry_lane;
}

bool Simulator::idle() const {
  if (!control_.empty()) return false;
  for (const auto& lane : lanes_) {
    if (!lane->queue.empty()) return false;
  }
  return true;
}

}  // namespace hermes::sim
