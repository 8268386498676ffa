#ifndef HERMES_BENCH_BENCH_COMMON_H_
#define HERMES_BENCH_BENCH_COMMON_H_

#include <string>
#include <string_view>
#include <vector>

#include "engine/cluster.h"
#include "txn/transaction.h"
#include "workload/scenarios.h"

namespace hermes::bench {

/// Per-run outputs mirroring what the paper plots, one entry per reporting
/// window (Scenario::window) of the horizon.
struct RunResult {
  std::vector<double> throughput;    ///< commits per window
  std::vector<double> cpu;           ///< cluster CPU utilization per window
  std::vector<double> net_bytes;     ///< wire bytes sent per window
  std::vector<double> net_recv_bytes;  ///< wire bytes delivered per window
  std::vector<double> net_per_txn;   ///< wire bytes sent per commit per window
  /// Wire bytes delivered per commit per window; diverges from
  /// `net_per_txn` when messages straddle a window boundary or a chaos
  /// profile drops/duplicates wire attempts.
  std::vector<double> net_recv_per_txn;
  /// Per-class wire bytes sent per commit per window (foreground = txn
  /// execution traffic, bulk = migration/replica shipments). All zero
  /// unless the scenario enables the wire substrate (net.enabled;
  /// DESIGN.md §5 "Wire substrate").
  std::vector<double> net_fg_per_txn;
  std::vector<double> net_bulk_per_txn;
  /// Wire-substrate queueing delays (enqueue -> serializer accept) and
  /// counters, whole-run; zero when the substrate is disabled.
  SimTime wire_fg_delay_p50_us = 0;
  SimTime wire_fg_delay_p99_us = 0;
  SimTime wire_bulk_delay_p99_us = 0;
  uint64_t wire_envelopes = 0;
  uint64_t wire_coalesced = 0;
  uint64_t wire_credit_stalls = 0;
  LatencyBreakdown avg_latency;
  SimTime latency_p50_us = 0;
  SimTime latency_p99_us = 0;
  double mean_throughput = 0;        ///< txn/s after the first window
};

/// Reads `cluster`, drained after running `scenario`.
RunResult Measure(const workload::Scenario& scenario,
                  const engine::Cluster& cluster);

/// Runs one scenario line (aborting on a bad line) and measures it.
RunResult Run(std::string_view line);

/// One plotted system: its column name and the scenario keys that select
/// it.
struct System {
  std::string name;
  std::string keys;
};

/// The paper's six systems in plot order: calvin, clay (Calvin plus the
/// look-back planner), gstore, tpart, leap, hermes.
std::vector<System> Systems();

/// `member` of each run, one column per run, scaled by `scale`.
std::vector<std::vector<double>> Columns(
    const std::vector<RunResult>& runs,
    std::vector<double> RunResult::*member, double scale = 1.0);

/// Prints a CSV series table: one row per window, one column per system.
void PrintSeriesTable(const std::string& title,
                      const std::vector<std::string>& systems,
                      const std::vector<std::vector<double>>& columns,
                      double window_seconds, const std::string& unit);

double MeanOf(const std::vector<double>& series, size_t from, size_t to);

}  // namespace hermes::bench

#endif  // HERMES_BENCH_BENCH_COMMON_H_
