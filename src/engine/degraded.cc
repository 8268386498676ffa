#include "engine/degraded.h"

#include <algorithm>
#include <cstdio>

namespace hermes::engine {

uint64_t DegradedLedger::RetryDigest() const {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  for (const RetryRecord& r : transcript_) {
    mix(r.blocked_id);
    mix(r.retry_of);
    mix((static_cast<uint64_t>(r.epoch) << 32) | r.attempt);
    mix(static_cast<uint64_t>(r.delay_us));
    mix(r.exhausted ? 1 : 0);
  }
  return h;
}

uint64_t DegradedLedger::unavailable_aborts() const {
  return static_cast<uint64_t>(
      std::count_if(transcript_.begin(), transcript_.end(),
                    [](const RetryRecord& r) { return r.exhausted; }));
}

std::string DegradedLedger::DebugString() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "degraded: parked=%llu retries=%llu unavailable=%llu "
                "watchdog_aborts=%llu reclaims=%llu reships=%llu "
                "retry_digest=%016llx\n",
                static_cast<unsigned long long>(parked_total_),
                static_cast<unsigned long long>(retries_scheduled()),
                static_cast<unsigned long long>(unavailable_aborts()),
                static_cast<unsigned long long>(watchdog_aborts_),
                static_cast<unsigned long long>(reclaims_),
                static_cast<unsigned long long>(reships_),
                static_cast<unsigned long long>(RetryDigest()));
  out += buf;
  // Transcript entries are already in classification order (a total
  // order), so printing them as-is is deterministic.
  for (const RetryRecord& r : transcript_) {
    std::snprintf(
        buf, sizeof(buf),
        "  blocked txn=%llu retry_of=%llu attempt=%u epoch=%u "
        "delay=%llu%s\n",
        static_cast<unsigned long long>(r.blocked_id),
        static_cast<unsigned long long>(r.retry_of), r.attempt, r.epoch,
        static_cast<unsigned long long>(r.delay_us),
        r.exhausted ? " UNAVAILABLE" : "");
    out += buf;
  }
  return out;
}

}  // namespace hermes::engine
