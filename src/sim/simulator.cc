#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace hermes::sim {

namespace {

constexpr int kSeqBits = 48;
constexpr uint64_t kSeqMask = (uint64_t{1} << kSeqBits) - 1;

}  // namespace

void Simulator::ConfigureLanes(int num_lanes, int threads) {
  assert(threads == 0 && "lanes run sequentially; threads must be 0");
  (void)threads;
  EnsureLanes(num_lanes);
}

void Simulator::EnsureLanes(int num_lanes) {
  assert(!in_lane_context() && "lane growth must happen in exclusive context");
  assert(num_lanes < (1 << (64 - kSeqBits)) - 1 && "lane tag overflows key");
  if (num_lanes > this->num_lanes()) {
    next_seq_.resize(static_cast<size_t>(num_lanes) + 1, 0);
  }
}

void Simulator::Schedule(SimTime delay, Callback fn) {
  ScheduleOnLaneAt(lane_, now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(SimTime when, Callback fn) {
  ScheduleOnLaneAt(lane_, when, std::move(fn));
}

void Simulator::ScheduleOnLane(int lane, SimTime delay, Callback fn) {
  ScheduleOnLaneAt(lane, now_ + delay, std::move(fn));
}

void Simulator::ScheduleOnLaneAt(int lane, SimTime when, Callback fn) {
  // Past times fire "now": the executing event's epoch, the only clock the
  // caller can observe.
  if (when < now_) when = now_;
  if (lane < 0 || lane >= num_lanes()) lane = kControlLane;
  if (in_lane_context() && lane != lane_) {
    // Same-lane work needs no barrier (the push order is the lane's own
    // program order); anything else waits for it.
    staged_.push_back(StagedOp{false, lane, when, std::move(fn)});
    return;
  }
  PushDirect(lane, when, std::move(fn));
}

void Simulator::PushDirect(int lane, SimTime when, Callback fn) {
  uint64_t& seq = next_seq_[static_cast<size_t>(lane + 1)];
  heap_.push(Entry{
      when, (static_cast<uint64_t>(lane + 1) << kSeqBits) | seq++,
      std::move(fn)});
}

void Simulator::Defer(Callback fn) {
  if (in_lane_context()) {
    staged_.push_back(StagedOp{true, kControlLane, 0, std::move(fn)});
    return;
  }
  fn();
}

void Simulator::MixPop(SimTime when, int lane, uint64_t seq) {
  if (digest_ == nullptr) return;
  digest_->Mix(when);
  digest_->Mix((static_cast<uint64_t>(lane + 1) << 40) ^ seq);
}

void Simulator::RunUntil(SimTime deadline) {
  RunLoop(deadline, /*run_all=*/false);
}

void Simulator::RunAll() { RunLoop(0, /*run_all=*/true); }

void Simulator::RunLoop(SimTime deadline, bool run_all) {
  const int entry_lane = lane_;
  while (!heap_.empty()) {
    const SimTime t = heap_.top().when;
    if (!run_all && t > deadline) break;
    now_ = t;

    // Control slice, then the lane slices: every event at t, in heap order.
    do {
      const Entry& top = heap_.top();
      const uint64_t order = top.order;
      Callback fn = std::move(top.fn);
      heap_.pop();
      lane_ = static_cast<int>(order >> kSeqBits) - 1;
      MixPop(t, lane_, order & kSeqMask);
      ++events_executed_;
      fn();
    } while (!heap_.empty() && heap_.top().when == t);
    lane_ = kControlLane;

    // Barrier: staged work applies exclusively, in staging order. Effects
    // push directly or Defer inline, so staged_ cannot grow while we drain
    // it; draining it in place keeps its capacity for the next round.
    for (StagedOp& op : staged_) {
      if (op.is_effect) {
        op.fn();
      } else {
        PushDirect(op.lane, op.when, std::move(op.fn));
      }
    }
    staged_.clear();
  }
  if (!run_all && now_ < deadline) now_ = deadline;
  lane_ = entry_lane;
}

}  // namespace hermes::sim
