#ifndef HERMES_LEDGER_ALLOC_COUNTER_H_
#define HERMES_LEDGER_ALLOC_COUNTER_H_

#include <cstdint>

namespace hermes::ledger {

/// Process-wide heap-allocation counter, fed by the global operator new
/// overrides in alloc_counter.cc. Counting is off unless switched on, so
/// the end-to-end runs pay one predictable branch per allocation and
/// nothing else.
void SetAllocCounting(bool on);

/// Allocations counted so far (while counting was on).
uint64_t AllocCount();

}  // namespace hermes::ledger

#endif  // HERMES_LEDGER_ALLOC_COUNTER_H_
