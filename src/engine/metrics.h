#ifndef HERMES_ENGINE_METRICS_H_
#define HERMES_ENGINE_METRICS_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "obs/telemetry.h"
#include "txn/transaction.h"

namespace hermes::engine {

/// Per-window cluster statistics (window length is configurable; defaults
/// to one simulated second).
struct WindowStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t distributed_commits = 0;  ///< commits touching >1 node
  uint64_t migrations = 0;           ///< records that changed node
  uint64_t busy_us = 0;              ///< summed worker busy time, all nodes
  uint64_t net_bytes = 0;            ///< wire bytes sent in the window
  /// Wire bytes delivered in the window. Equals `net_bytes` modulo in-flight
  /// skew on a healthy fabric; under fault injection the gap is the cost of
  /// dropped wire attempts (sent, never delivered).
  uint64_t net_bytes_received = 0;
  /// Per-class split of `net_bytes`: foreground (transaction-critical
  /// participant shipments) vs bulk (migration/replica/reship traffic) —
  /// the Fig. 8 foreground-vs-migration wire series.
  uint64_t net_fg_bytes = 0;
  uint64_t net_bulk_bytes = 0;
  /// DecisionDigest value sampled at the window boundary. A prefix of the
  /// run's decision stream: two replicas agreeing up to window w have
  /// identical values here, so the first differing window brackets where
  /// a determinism divergence happened.
  uint64_t decision_digest = 0;
};

/// Collects commit events and sampled resource usage into fixed windows;
/// the bench binaries turn these into the paper's throughput-over-time,
/// CPU-usage and network-usage series (Figs. 6, 8, 12, 14) and the
/// latency breakdown (Fig. 7).
class Metrics {
 public:
  explicit Metrics(SimTime window_us);

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  void RecordCommit(SimTime when, const LatencyBreakdown& latency,
                    bool distributed, bool aborted);
  void RecordMigrations(SimTime when, uint64_t count);
  /// Adds worker busy time observed for the window containing `when`.
  void RecordBusy(SimTime when, uint64_t busy_us);
  void RecordNetBytes(SimTime when, uint64_t bytes);
  void RecordNetBytesReceived(SimTime when, uint64_t bytes);
  /// Adds wire bytes of one traffic class to `when`'s window.
  void RecordNetClassBytes(SimTime when, TrafficClass cls, uint64_t bytes);
  /// Snapshots the cluster's decision digest into `when`'s window.
  void RecordDecisionDigest(SimTime when, uint64_t digest);

  SimTime window_us() const { return window_us_; }
  const std::vector<WindowStats>& windows() const { return windows_; }

  uint64_t total_commits() const { return total_commits_; }
  uint64_t total_aborts() const { return total_aborts_; }
  uint64_t total_distributed() const { return total_distributed_; }

  /// Average latency phases across all committed transactions.
  LatencyBreakdown AverageLatency() const;

  /// End-to-end latency distribution of committed transactions.
  const obs::Histogram& latency_histogram() const { return histogram_; }

  /// Committed transactions per simulated second over [from, to).
  double Throughput(SimTime from, SimTime to) const;

  /// Fraction of worker capacity used in window `w`, given total worker
  /// count across the cluster.
  double CpuUtilization(size_t w, int total_workers) const;

  /// Wire bytes per committed transaction in window `w`.
  double NetBytesPerTxn(size_t w) const;

 private:
  WindowStats& WindowAt(SimTime when);

  SimTime window_us_;
  std::vector<WindowStats> windows_;
  LatencyBreakdown latency_sum_;
  obs::Histogram histogram_;
  uint64_t total_commits_ = 0;
  uint64_t total_aborts_ = 0;
  uint64_t total_distributed_ = 0;
};

}  // namespace hermes::engine

#endif  // HERMES_ENGINE_METRICS_H_
