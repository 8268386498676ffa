// detlint-fixture: path=bench/raw_thread_neg.cc
#include <atomic>

// bench/ drops raw-thread: allocation counters in the harness are atomics.
std::atomic<long> allocations_{0};
int thread = 0;
