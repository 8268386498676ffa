#ifndef HERMES_SIM_EVENT_QUEUE_H_
#define HERMES_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "common/types.h"
#include "sim/callback.h"

namespace hermes::sim {

/// A time-ordered queue of closures. Events at equal timestamps fire in
/// insertion order (FIFO tie-break by sequence number) so that a run is a
/// pure function of the inputs — the determinism invariant every property
/// test in this repository leans on.
class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `fn` to fire at absolute time `when`.
  void Push(SimTime when, Callback fn);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest pending event. Requires !empty().
  SimTime NextTime() const { return heap_.top().when; }

  /// One dequeued event plus its ordering key. `seq` is this queue's own
  /// insertion sequence — for the simulator's lane queues it is the
  /// lane-local component of the global (time, lane, seq) total order.
  struct Popped {
    SimTime when;
    uint64_t seq;
    Callback fn;
  };

  /// Removes and returns the earliest pending event with its ordering key
  /// (the caller owns any transcript mixing). Requires !empty().
  Popped PopEntry();

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    // Mutable so the closure can be moved out of the priority queue's
    // const top() during PopEntry().
    mutable Callback fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_EVENT_QUEUE_H_
