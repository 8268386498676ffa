// Replica-lease crossover bench (DESIGN.md §5 "Replica leases"): runs the
// read-heavy skewed YCSB scenario on the Hermes router with replication
// off and on across a write-fraction sweep, printing throughput, replica
// reads, and wire bytes per commit, and emitting BENCH_replication.json
// (override the path with the REPLICATION_OUT env var). The headline is
// the crossover: the write fraction where write fan-out has eaten the
// local-read savings and the two configurations converge. EXPERIMENTS.md
// records the measured series.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/env.h"

namespace {

using namespace hermes;  // NOLINT

struct RunStats {
  double txn_per_sec = 0;
  double net_per_txn = 0;
  uint64_t replica_reads = 0;
  uint64_t migrations = 0;
  uint64_t lease_grants = 0;
  uint64_t lease_revokes = 0;
  uint64_t installs = 0;
  uint64_t updates = 0;
};

RunStats RunOnce(double write_fraction, bool replication) {
  const workload::Scenario scenario = workload::MustParse(
      "readhot replication.enabled=" + std::to_string(replication) +
      " ycsb.rw_ratio=" + std::to_string(write_fraction));
  const workload::DrainedRun run = workload::RunScenario(scenario);
  const engine::Cluster& cluster = *run.cluster;

  RunStats out;
  out.txn_per_sec = bench::Measure(scenario, cluster).mean_throughput;
  const double commits =
      static_cast<double>(run.cluster->executor().committed());
  out.net_per_txn =
      commits > 0
          ? static_cast<double>(cluster.wire().total_bytes()) / commits
          : 0.0;
  const core::HermesRouter& router = *cluster.hermes_router();
  out.replica_reads = router.stats().replica_reads;
  out.migrations = router.stats().migrations;
  out.lease_grants = router.lease_table().stats().grants;
  out.lease_revokes = router.lease_table().stats().revokes;
  out.installs = cluster.lease_manager().installs();
  out.updates = cluster.lease_manager().updates();
  return out;
}

}  // namespace

int main() {
  const std::vector<double> fractions = {0.0, 0.05, 0.10, 0.20, 0.35, 0.50};

  const workload::Scenario& readhot = workload::Registered("readhot");
  std::printf(
      "== replica-lease crossover (hermes, read-heavy skewed ycsb, "
      "%d nodes, %llu records, %d clients) ==\n",
      readhot.config.num_nodes,
      static_cast<unsigned long long>(readhot.config.num_records),
      readhot.clients);
  std::printf(
      "write_frac,off_txn_s,on_txn_s,speedup,off_net_per_txn,on_net_per_txn,"
      "replica_reads,lease_grants,lease_revokes,installs,updates,"
      "off_migrations,on_migrations\n");

  std::vector<RunStats> offs, ons;
  std::vector<double> speedups;
  for (double f : fractions) {
    const RunStats off = RunOnce(f, /*replication=*/false);
    const RunStats on = RunOnce(f, /*replication=*/true);
    const double speedup =
        off.txn_per_sec > 0 ? on.txn_per_sec / off.txn_per_sec : 0.0;
    offs.push_back(off);
    ons.push_back(on);
    speedups.push_back(speedup);
    std::printf(
        "%.2f,%.0f,%.0f,%.3f,%.1f,%.1f,%llu,%llu,%llu,%llu,%llu,%llu,%llu\n",
        f, off.txn_per_sec, on.txn_per_sec, speedup, off.net_per_txn,
        on.net_per_txn, static_cast<unsigned long long>(on.replica_reads),
        static_cast<unsigned long long>(on.lease_grants),
        static_cast<unsigned long long>(on.lease_revokes),
        static_cast<unsigned long long>(on.installs),
        static_cast<unsigned long long>(on.updates),
        static_cast<unsigned long long>(off.migrations),
        static_cast<unsigned long long>(on.migrations));
    std::fflush(stdout);
  }

  // Crossover: the first sweep point where replication stops paying
  // (speedup below 1.05); -1 when it pays across the whole sweep.
  double crossover = -1.0;
  for (size_t i = 0; i < fractions.size(); ++i) {
    if (speedups[i] < 1.05) {
      crossover = fractions[i];
      break;
    }
  }
  if (crossover < 0) {
    std::printf("summary: replication pays across the whole sweep "
                "(min speedup %.3f)\n",
                *std::min_element(speedups.begin(), speedups.end()));
  } else {
    std::printf("summary: crossover at write fraction %.2f\n", crossover);
  }

  const char* out_env = hermes::EnvRead("REPLICATION_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_replication.json";
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"crossover_write_fraction\": %.2f,\n", crossover);
  std::fprintf(out, "  \"sweep\": [\n");
  for (size_t i = 0; i < fractions.size(); ++i) {
    std::fprintf(
        out,
        "    {\"write_fraction\": %.2f, \"off_txn_per_sec\": %.0f, "
        "\"on_txn_per_sec\": %.0f, \"speedup\": %.3f, "
        "\"off_net_per_txn\": %.1f, \"on_net_per_txn\": %.1f, "
        "\"replica_reads\": %llu, \"lease_grants\": %llu}%s\n",
        fractions[i], offs[i].txn_per_sec, ons[i].txn_per_sec, speedups[i],
        offs[i].net_per_txn, ons[i].net_per_txn,
        static_cast<unsigned long long>(ons[i].replica_reads),
        static_cast<unsigned long long>(ons[i].lease_grants),
        i + 1 < fractions.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
