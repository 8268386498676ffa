#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace hermes::sim {

namespace {

constexpr int kSeqBits = 48;
constexpr uint64_t kSeqMask = (uint64_t{1} << kSeqBits) - 1;
constexpr uint64_t kAllBits = ~uint64_t{0};

// Heap comparators: std::*_heap keeps the largest on top, so "after"
// makes min-heaps.
constexpr auto kOrderAfter = [](const auto& a, const auto& b) {
  return a.order > b.order;
};
constexpr auto kWhenAfter = [](const auto& a, const auto& b) {
  return a.when > b.when;
};

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
  Push(lane_, now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(SimTime when, Callback fn) {
  Push(lane_, when, std::move(fn));
}

void Simulator::ScheduleOnLane(int lane, SimTime delay, Callback fn) {
  Push(lane, now_ + delay, std::move(fn));
}

void Simulator::ScheduleOnLaneAt(int lane, SimTime when, Callback fn) {
  Push(lane, when, std::move(fn));
}

void Simulator::Push(int lane, SimTime when, Callback&& fn) {
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

void Simulator::PushDirect(int lane, SimTime when, Callback&& fn) {
  uint64_t& seq = next_seq_[static_cast<size_t>(lane + 1)];
  const uint64_t order = (static_cast<uint64_t>(lane + 1) << kSeqBits) | seq++;
  uint32_t slot = free_;
  if (slot != kNoSlot) {
    Node& node = nodes_[slot];
    free_ = node.next;
    node.fn = std::move(fn);
    node.order = order;
  } else {
    slot = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Node{std::move(fn), order, kNoSlot});
  }
  ++pending_;

  if (when == now_) {
    PushDue(order, slot);
  } else if (when - now_ < kWheelSpan) {
    const size_t b = when % kWheelSpan;
    const uint64_t bit = uint64_t{1} << (b % 64);
    uint64_t& word = words_[b / 64];
    nodes_[slot].next = (word & bit) != 0 ? buckets_[b] : kNoSlot;
    buckets_[b] = slot;
    if (word == 0) summary_[b / 4096] |= uint64_t{1} << (b / 64 % 64);
    word |= bit;
  } else {
    far_.push_back(FarKey{when, order, slot});
    std::push_heap(far_.begin(), far_.end(), kWhenAfter);
  }
}

void Simulator::PushDue(uint64_t order, uint32_t slot) {
  due_.push_back(DueKey{order, slot});
  std::push_heap(due_.begin(), due_.end(), kOrderAfter);
}

size_t Simulator::FindBucket(size_t from) const {
  size_t w = from / 64;
  const uint64_t bits = words_[w] & (kAllBits << (from % 64));
  if (bits != 0) return w * 64 + static_cast<size_t>(std::countr_zero(bits));
  // Later words, 64 at a time through the summary.
  for (++w; w < kWheelWords; w = (w / 64 + 1) * 64) {
    const uint64_t words = summary_[w / 64] & (kAllBits << (w % 64));
    if (words != 0) {
      const size_t word =
          w / 64 * 64 + static_cast<size_t>(std::countr_zero(words));
      return word * 64 + static_cast<size_t>(std::countr_zero(words_[word]));
    }
  }
  return kWheelSpan;
}

SimTime Simulator::NextTime() const {
  const SimTime far = far_.empty() ? kSimTimeMax : far_.front().when;
  // Wheel nodes lie in (now_, now_ + kWheelSpan), so the first occupied
  // bucket circularly after now_'s holds the wheel's earliest time.
  const size_t start = now_ % kWheelSpan;
  size_t b = FindBucket(start);
  if (b == kWheelSpan) b = FindBucket(0);
  if (b == kWheelSpan) return far;
  return std::min(far, now_ + ((b - start) % kWheelSpan));
}

void Simulator::CollectDue() {
  const size_t b = now_ % kWheelSpan;
  uint64_t& word = words_[b / 64];
  const uint64_t bit = uint64_t{1} << (b % 64);
  if ((word & bit) != 0) {
    for (uint32_t s = buckets_[b]; s != kNoSlot; s = nodes_[s].next) {
      PushDue(nodes_[s].order, s);
    }
    word &= ~bit;
    if (word == 0) summary_[b / 4096] &= ~(uint64_t{1} << (b / 64 % 64));
  }
  while (!far_.empty() && far_.front().when == now_) {
    PushDue(far_.front().order, far_.front().slot);
    std::pop_heap(far_.begin(), far_.end(), kWhenAfter);
    far_.pop_back();
  }
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
  while (pending_ != 0) {
    if (due_.empty()) {
      const SimTime t = NextTime();
      if (!run_all && t > deadline) break;
      now_ = t;
      CollectDue();
    } else if (!run_all && now_ > deadline) {
      break;
    }

    // Control slice, then the lane slices: every event at now_, in order.
    do {
      std::pop_heap(due_.begin(), due_.end(), kOrderAfter);
      const uint32_t slot = due_.back().slot;
      due_.pop_back();
      Node& node = nodes_[slot];
      const uint64_t order = node.order;
      Callback fn = std::move(node.fn);
      node.next = free_;
      free_ = slot;
      --pending_;
      lane_ = static_cast<int>(order >> kSeqBits) - 1;
      MixPop(now_, lane_, order & kSeqMask);
      ++events_executed_;
      fn();
    } while (!due_.empty());
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
