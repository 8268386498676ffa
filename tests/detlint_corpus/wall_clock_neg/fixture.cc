// detlint-fixture: path=src/engine/wall_clock_neg.cc
// Mentions of steady_clock in comments and strings are not reads.
const char* kDoc = "system_clock is banned";
uint64_t Deadline(uint64_t time_budget) { return sim.Now() + time_budget; }
