#include "sim/event_queue.h"

#include <utility>

namespace hermes::sim {

void EventQueue::Push(SimTime when, Callback fn) {
  heap_.push(Entry{when, next_seq_++, std::move(fn)});
}

EventQueue::Popped EventQueue::PopEntry() {
  const Entry& top = heap_.top();
  Popped out{top.when, top.seq, std::move(top.fn)};
  heap_.pop();
  return out;
}

}  // namespace hermes::sim
