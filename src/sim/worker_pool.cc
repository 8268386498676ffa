#include "sim/worker_pool.h"

#include <algorithm>
#include <utility>

namespace hermes::sim {

WorkerPool::WorkerPool(Simulator* sim, int num_workers, int lane)
    : sim_(sim), lane_(lane), busy_until_(std::max(num_workers, 1), 0) {}

SimTime WorkerPool::Submit(SimTime duration, Callback done) {
  // Pick the worker that frees up first (lowest index on ties).
  size_t best = 0;
  for (size_t i = 1; i < busy_until_.size(); ++i) {
    if (busy_until_[i] < busy_until_[best]) best = i;
  }
  const SimTime start = std::max(sim_->Now(), busy_until_[best]);
  const SimTime end = start + duration;
  busy_until_[best] = end;
  busy_us_ += duration;
  // Completions land on the owning node's lane no matter which lane (or
  // the control slice) submitted the job.
  sim_->ScheduleOnLaneAt(lane_, end, std::move(done));
  return start;
}

uint64_t WorkerPool::TakeBusyDelta() {
  const uint64_t delta = busy_us_ - last_sampled_busy_;
  last_sampled_busy_ = busy_us_;
  return delta;
}

}  // namespace hermes::sim
