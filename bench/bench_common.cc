#include "bench_common.h"

#include <algorithm>
#include <cstdio>

namespace hermes::bench {

RunResult Measure(const workload::Scenario& scenario,
                  const engine::Cluster& cluster) {
  RunResult result;
  const auto& m = cluster.metrics();
  const size_t windows = scenario.horizon / scenario.window;
  const size_t metric_windows_per_window =
      std::max<size_t>(scenario.window / m.window_us(), 1);
  for (auto* series :
       {&result.throughput, &result.cpu, &result.net_bytes,
        &result.net_recv_bytes, &result.net_per_txn, &result.net_recv_per_txn,
        &result.net_fg_per_txn, &result.net_bulk_per_txn}) {
    series->assign(windows, 0.0);
  }
  const int total_workers =
      scenario.config.num_nodes * scenario.config.workers_per_node;
  for (size_t w = 0; w < windows; ++w) {
    double commits = 0, busy = 0, bytes = 0, recv = 0, fg = 0, bulk = 0;
    for (size_t i = 0; i < metric_windows_per_window; ++i) {
      const size_t mw = w * metric_windows_per_window + i;
      if (mw >= m.windows().size()) break;
      commits += static_cast<double>(m.windows()[mw].commits);
      busy += static_cast<double>(m.windows()[mw].busy_us);
      bytes += static_cast<double>(m.windows()[mw].net_bytes);
      recv += static_cast<double>(m.windows()[mw].net_bytes_received);
      fg += static_cast<double>(m.windows()[mw].net_fg_bytes);
      bulk += static_cast<double>(m.windows()[mw].net_bulk_bytes);
    }
    result.throughput[w] = commits;
    result.cpu[w] =
        busy / (static_cast<double>(scenario.window) * total_workers);
    result.net_bytes[w] = bytes;
    result.net_recv_bytes[w] = recv;
    result.net_per_txn[w] = commits > 0 ? bytes / commits : 0.0;
    result.net_recv_per_txn[w] = commits > 0 ? recv / commits : 0.0;
    result.net_fg_per_txn[w] = commits > 0 ? fg / commits : 0.0;
    result.net_bulk_per_txn[w] = commits > 0 ? bulk / commits : 0.0;
  }
  const net::Wire& wire = cluster.wire();
  result.wire_fg_delay_p50_us =
      wire.MergedQueueDelay(TrafficClass::kForeground).Percentile(0.50);
  result.wire_fg_delay_p99_us =
      wire.MergedQueueDelay(TrafficClass::kForeground).Percentile(0.99);
  result.wire_bulk_delay_p99_us =
      wire.MergedQueueDelay(TrafficClass::kBulk).Percentile(0.99);
  result.wire_envelopes = wire.envelopes_sent();
  result.wire_coalesced = wire.coalesced_messages();
  result.wire_credit_stalls = wire.credit_stalls();
  result.avg_latency = m.AverageLatency();
  result.latency_p50_us = m.latency_histogram().Percentile(0.50);
  result.latency_p99_us = m.latency_histogram().Percentile(0.99);
  result.mean_throughput = m.Throughput(scenario.window, scenario.horizon);
  return result;
}

RunResult Run(std::string_view line) {
  const workload::Scenario scenario = workload::MustParse(line);
  const workload::DrainedRun run = workload::RunScenario(scenario);
  return Measure(scenario, *run.cluster);
}

std::vector<System> Systems() {
  const auto router = [](engine::RouterKind kind) {
    const std::string name = engine::RouterKindName(kind);
    return System{name, "router=" + name};
  };
  return {router(engine::RouterKind::kCalvin),
          {"clay", "router=calvin clay=1"},
          router(engine::RouterKind::kGStore),
          router(engine::RouterKind::kTPart),
          router(engine::RouterKind::kLeap),
          router(engine::RouterKind::kHermes)};
}

std::vector<std::vector<double>> Columns(
    const std::vector<RunResult>& runs,
    std::vector<double> RunResult::*member, double scale) {
  std::vector<std::vector<double>> columns;
  for (const RunResult& run : runs) {
    columns.push_back(run.*member);
    for (double& x : columns.back()) x *= scale;
  }
  return columns;
}

void PrintSeriesTable(const std::string& title,
                      const std::vector<std::string>& systems,
                      const std::vector<std::vector<double>>& columns,
                      double window_seconds, const std::string& unit) {
  std::printf("\n== %s (%s) ==\n", title.c_str(), unit.c_str());
  std::printf("window_end_s");
  for (const auto& s : systems) std::printf(",%s", s.c_str());
  std::printf("\n");
  size_t rows = 0;
  for (const auto& c : columns) rows = std::max(rows, c.size());
  for (size_t r = 0; r < rows; ++r) {
    std::printf("%.0f", (r + 1) * window_seconds);
    for (const auto& c : columns) {
      std::printf(",%.2f", r < c.size() ? c[r] : 0.0);
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

double MeanOf(const std::vector<double>& series, size_t from, size_t to) {
  if (to > series.size()) to = series.size();
  if (from >= to) return 0.0;
  double sum = 0;
  for (size_t i = from; i < to; ++i) sum += series[i];
  return sum / static_cast<double>(to - from);
}

}  // namespace hermes::bench
