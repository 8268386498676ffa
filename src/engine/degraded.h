#ifndef HERMES_ENGINE_DEGRADED_H_
#define HERMES_ENGINE_DEGRADED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "txn/transaction.h"

namespace hermes::engine {

// Degraded-mode (no-stall crash) timings. Every value feeds a pure
// function of (txn id, attempt) or of virtual time, so retry slots,
// watchdog sweeps and reclaim deadlines are identical across hash salts
// and across live vs. replay runs.

/// Retries a blocked regular transaction gets before the cluster returns
/// a deterministic UNAVAILABLE abort to the client.
inline constexpr uint32_t kMaxRetries = 3;
/// Exponential backoff: delay(attempt) = min(base << attempt, cap) +
/// jitter, in virtual microseconds.
inline constexpr SimTime kRetryBackoffBaseUs = 2000;
inline constexpr SimTime kRetryBackoffCapUs = 64'000;
/// Deterministic "jitter" drawn as Mix64(txn id ^ attempt) % (j + 1):
/// decorrelates retry slots without consulting any RNG stream.
inline constexpr SimTime kRetryJitterUs = 1000;
/// Virtual time an executor presence-wait may point at a dead node
/// before the watchdog aborts the waiter.
inline constexpr SimTime kWatchdogDeadlineUs = 5000;
/// Watchdog re-sweep period while any node is down.
inline constexpr SimTime kWatchdogPeriodUs = 5000;
/// Timeout after which a record shipped toward a node that died in
/// flight is reclaimed by re-inserting it at the sender.
inline constexpr SimTime kReclaimTimeoutUs = 2000;
/// Virtual cost charged per replayed batch when a no-stall victim
/// rebuilds in the background (the stall model measures this live;
/// degraded mode charges it without pausing intake).
inline constexpr SimTime kReplayUsPerBatch = 150;

/// One entry of the degraded-mode retry transcript: a transaction was
/// classified as blocked by a dead node and either re-enqueued after a
/// deterministic backoff or (attempts exhausted) returned to the client
/// as a deterministic UNAVAILABLE abort. The transcript is recorded in
/// classification order — a total order — so it must be bit-identical
/// across hash salts for the same (workload seed, fault plan).
struct RetryRecord {
  TxnId blocked_id = kInvalidTxn;  ///< id of the blocked submission
  TxnId retry_of = kInvalidTxn;    ///< id of the original submission
  uint32_t attempt = 0;            ///< attempt number that got blocked
  uint32_t epoch = 0;              ///< membership epoch at classification
  SimTime delay_us = 0;            ///< backoff applied (0 when exhausted)
  bool exhausted = false;          ///< true = UNAVAILABLE abort to client
};

/// Live-side bookkeeping of every degraded-mode decision: the retry
/// transcript plus counters surfaced by Cluster/Executor DebugStrings
/// and the chaos tests. Purely observational — nothing here feeds back
/// into a decision.
class DegradedLedger {
 public:
  void RecordRetry(const RetryRecord& r) { transcript_.push_back(r); }
  void RecordPark() { ++parked_total_; }
  void RecordWatchdogAbort() { ++watchdog_aborts_; }
  void RecordReclaim() { ++reclaims_; }
  void RecordReship() { ++reships_; }

  const std::vector<RetryRecord>& transcript() const { return transcript_; }
  uint64_t parked_total() const { return parked_total_; }
  /// Transcript entries that scheduled a retry.
  uint64_t retries_scheduled() const {
    return transcript_.size() - unavailable_aborts();
  }
  /// Transcript entries that exhausted their attempts.
  uint64_t unavailable_aborts() const;
  uint64_t watchdog_aborts() const { return watchdog_aborts_; }
  uint64_t reclaims() const { return reclaims_; }
  uint64_t reships() const { return reships_; }

  /// FNV-1a fold of the transcript in recorded order; chaos tests assert
  /// it is bit-identical across salts.
  uint64_t RetryDigest() const;

  std::string DebugString() const;

 private:
  std::vector<RetryRecord> transcript_;
  uint64_t parked_total_ = 0;
  uint64_t watchdog_aborts_ = 0;
  uint64_t reclaims_ = 0;
  uint64_t reships_ = 0;
};

}  // namespace hermes::engine

#endif  // HERMES_ENGINE_DEGRADED_H_
