// Fault-injection recovery bench: throughput dip and virtual
// time-to-recover under a seeded chaos schedule (two crash/rejoin cycles
// plus link drop/duplicate/jitter) versus the same workload fault-free,
// under both crash models:
//
//   stall      pause intake, drain, rebuild, resume (kCrash)
//   degraded   keep sequencing, route around the victim (kCrashNoStall)
//
// Expected shape: under stall, commits collapse to ~0 in the windows
// containing an outage and return to the fault-free level after the
// rejoin; under degraded mode the survivors keep committing through the
// outage (>=50% of fault-free inside the degraded windows). The stall
// model reports stall_us == time_to_recover_us (intake is down for the
// whole cycle); degraded mode reports stall_us == 0 while
// time_to_recover_us still covers crash -> node-serves-again.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/invariant_monitor.h"

namespace {

using hermes::SimTime;
using hermes::bench::PrintSeriesTable;
using hermes::fault::PartitionStats;
using hermes::fault::RecoveryStats;
using hermes::workload::Scenario;

enum class Mode { kFaultFree, kStall, kNoStall, kPartition };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kFaultFree:
      return "fault_free";
    case Mode::kStall:
      return "stall";
    case Mode::kNoStall:
      return "degraded";
    case Mode::kPartition:
      return "partition";
  }
  return "?";
}

/// `flags` (the `recovery` scenario plus the command line) in one mode.
/// The crash modes drop the partition cycles and the detector; the
/// partition mode keeps one crash cycle, so the bench exercises a crash
/// overlapping the cuts, matching the chaos tests' mixed plans.
Scenario ForMode(Scenario s, Mode mode) {
  switch (mode) {
    case Mode::kFaultFree:
      s.faults = Scenario{}.faults;
      s.config.detector.enabled = false;
      break;
    case Mode::kStall:
    case Mode::kNoStall:
      s.faults.no_stall = mode == Mode::kNoStall;
      s.faults.partition_cycles = 0;
      s.faults.one_way_fraction = 0;
      s.faults.gray = false;
      s.config.detector.enabled = false;
      break;
    case Mode::kPartition:
      s.faults.no_stall = true;
      s.faults.crash_cycles = s.faults.crash_cycles > 0 ? 1 : 0;
      s.config.detector.enabled = true;
      break;
  }
  return s;
}

/// One mode's drained run and its per-window series.
struct BenchOutcome {
  hermes::workload::DrainedRun run;
  hermes::bench::RunResult series;
  SimTime window = 0;

  const hermes::engine::Cluster& cluster() const { return *run.cluster; }
  uint64_t commits() const { return cluster().metrics().total_commits(); }
  uint64_t held() const { return cluster().wire().total_held(); }
  const hermes::engine::DegradedLedger& ledger() const {
    return cluster().degraded_ledger();
  }
  uint64_t suspects() const {
    const auto* detector = cluster().failure_detector();
    return detector != nullptr ? detector->suspects() : 0;
  }
  uint64_t restores() const {
    const auto* detector = cluster().failure_detector();
    return detector != nullptr ? detector->restores() : 0;
  }
};

BenchOutcome Run(const Scenario& flags, Mode mode) {
  const Scenario s = ForMode(flags, mode);
  if (s.faulted()) std::printf("%s", s.Plan().DebugString().c_str());
  BenchOutcome out{hermes::workload::RunScenario(s), {}, s.window};
  if (!s.faulted()) {
    // The fault-free baseline passes the same quiescent check.
    hermes::fault::InvariantMonitor monitor;
    monitor.CheckQuiescent(
        *out.run.cluster, [&s] { return hermes::workload::MakePlacement(s); },
        "final");
    out.run.monitors_ok = monitor.ok();
    out.run.report = monitor.FailureReport();
  }
  out.series = hermes::bench::Measure(s, out.cluster());
  if (!out.run.monitors_ok) std::printf("%s", out.run.report.c_str());
  return out;
}

/// Commits inside the windows overlapping any crash->resume span of
/// `faulty`, for both runs, as faulty/baseline — the availability
/// criterion: how much of fault-free throughput survives the outage.
double OutageThroughputRatio(const BenchOutcome& faulty,
                             const BenchOutcome& baseline) {
  double f = 0.0, b = 0.0;
  const std::vector<double>& commits = faulty.series.throughput;
  const SimTime window = faulty.window;
  for (const RecoveryStats& r : faulty.run.recoveries) {
    for (size_t w = r.crash_at / window;
         w <= r.resumed_at / window && w < commits.size(); ++w) {
      f += commits[w];
      if (w < baseline.series.throughput.size()) {
        b += baseline.series.throughput[w];
      }
    }
  }
  return b > 0.0 ? f / b : 0.0;
}

void PrintRecoveries(const char* label, const BenchOutcome& out) {
  std::printf("\n%s recoveries (virtual time):\n", label);
  for (const RecoveryStats& r : out.run.recoveries) {
    std::printf(
        "  node %d: crash at %.3fs, outage to %.3fs, replay %.1fms "
        "(%llu batches), stall %.1fms, recovered in %.1fms\n",
        r.node, r.crash_at / 1e6, r.rejoin_at / 1e6, r.replay_us / 1e3,
        static_cast<unsigned long long>(r.replayed_batches),
        r.stall_us() / 1e3, r.time_to_recover_us() / 1e3);
  }
}

void PrintPartitions(const char* label, const BenchOutcome& out) {
  if (out.run.partitions.empty()) return;
  std::printf("\n%s partitions (virtual time):\n", label);
  for (const PartitionStats& p : out.run.partitions) {
    std::printf("  node %d: %s cut at %.3fs, healed at %.3fs, "
                "%llu messages parked\n",
                p.node, hermes::fault::PartitionModeName(p.mode),
                p.cut_at / 1e6, p.healed_at / 1e6,
                static_cast<unsigned long long>(p.held_released));
  }
  std::printf("  detector: suspects=%llu restores=%llu held_total=%llu\n",
              static_cast<unsigned long long>(out.suspects()),
              static_cast<unsigned long long>(out.restores()),
              static_cast<unsigned long long>(out.held()));
}

/// One-line machine-readable summary: the arguments and flags that shaped
/// the run plus each mode's headline numbers (scripts diff these across
/// seeds).
void PrintJsonSummary(const std::string& args, const Scenario& flags,
                      const BenchOutcome& baseline,
                      const BenchOutcome& stall, const BenchOutcome& degraded,
                      const BenchOutcome& partition) {
  std::printf("JSON {\"seed\":%llu,\"plan\":\"%s\","
              "\"flags\":{\"crashes\":%d,\"partitions\":%d,"
              "\"one_way\":%.3f,\"gray\":%s},\"modes\":[",
              static_cast<unsigned long long>(flags.plan_seed), args.c_str(),
              flags.faults.crash_cycles, flags.faults.partition_cycles,
              flags.faults.one_way_fraction,
              flags.faults.gray ? "true" : "false");
  const BenchOutcome* outs[] = {&baseline, &stall, &degraded, &partition};
  const Mode modes[] = {Mode::kFaultFree, Mode::kStall, Mode::kNoStall,
                        Mode::kPartition};
  for (int i = 0; i < 4; ++i) {
    std::printf("%s{\"mode\":\"%s\",\"commits\":%llu,\"unavailable\":%llu,"
                "\"parked\":%llu,\"held\":%llu,\"suspects\":%llu,"
                "\"restores\":%llu,\"monitors_ok\":%s}",
                i > 0 ? "," : "", ModeName(modes[i]),
                static_cast<unsigned long long>(outs[i]->commits()),
                static_cast<unsigned long long>(
                    outs[i]->ledger().unavailable_aborts()),
                static_cast<unsigned long long>(
                    outs[i]->ledger().parked_total()),
                static_cast<unsigned long long>(outs[i]->held()),
                static_cast<unsigned long long>(outs[i]->suspects()),
                static_cast<unsigned long long>(outs[i]->restores()),
                outs[i]->run.monitors_ok ? "true" : "false");
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The arguments are scenario keys over `recovery`, e.g.
  // `plan_seed=7 faults.partition_cycles=1 faults.gray=1`.
  std::string args;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) args += ' ';
    args += argv[i];
  }
  std::string line = "recovery ";
  line += args;
  Scenario flags;
  const hermes::Status status = Scenario::Parse(line, &flags);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\nusage: %s [key=value ...]   (keys of the "
                 "`recovery` scenario line)\n",
                 status.message().c_str(), argv[0]);
    return 2;
  }
  std::printf("Fault recovery bench: stall vs degraded crash handling vs "
              "network partitions, against a fault-free baseline "
              "(seed=%llu)\n",
              static_cast<unsigned long long>(flags.plan_seed));
  BenchOutcome baseline = Run(flags, Mode::kFaultFree);
  BenchOutcome stall = Run(flags, Mode::kStall);
  BenchOutcome degraded = Run(flags, Mode::kNoStall);
  BenchOutcome partition = Run(flags, Mode::kPartition);

  PrintSeriesTable("throughput under chaos",
                   {"fault_free", "stall", "degraded", "partition"},
                   {baseline.series.throughput, stall.series.throughput,
                    degraded.series.throughput, partition.series.throughput},
                   1.0, "commits per window");
  PrintSeriesTable("degraded run wire traffic", {"sent", "received"},
                   {degraded.series.net_bytes, degraded.series.net_recv_bytes},
                   1.0,
                   "bytes per window");

  PrintRecoveries(ModeName(Mode::kStall), stall);
  PrintRecoveries(ModeName(Mode::kNoStall), degraded);
  PrintRecoveries(ModeName(Mode::kPartition), partition);
  PrintPartitions(ModeName(Mode::kPartition), partition);

  const double stall_ratio = OutageThroughputRatio(stall, baseline);
  const double degraded_ratio = OutageThroughputRatio(degraded, baseline);
  std::printf("\noutage-window throughput vs fault-free: stall=%.1f%% "
              "degraded=%.1f%%\n",
              100.0 * stall_ratio, 100.0 * degraded_ratio);
  std::printf("degraded handling: parked=%llu unavailable=%llu "
              "watchdog_aborts=%llu\n",
              static_cast<unsigned long long>(degraded.ledger().parked_total()),
              static_cast<unsigned long long>(
                  degraded.ledger().unavailable_aborts()),
              static_cast<unsigned long long>(
                  degraded.ledger().watchdog_aborts()));

  std::printf("\ntotals: fault-free=%llu stall=%llu degraded=%llu "
              "dropped=%llu duplicated=%llu monitors=%s\n",
              static_cast<unsigned long long>(baseline.commits()),
              static_cast<unsigned long long>(stall.commits()),
              static_cast<unsigned long long>(degraded.commits()),
              static_cast<unsigned long long>(
                  degraded.cluster().wire().messages_dropped()),
              static_cast<unsigned long long>(
                  degraded.cluster().wire().messages_duplicated()),
              stall.run.monitors_ok && degraded.run.monitors_ok ? "ok"
                                                                : "FAILED");
  std::printf("paper shape: stall drops to ~0 during outages; degraded "
              "keeps the survivors' share (>=50%% of fault-free) and pays "
              "only retries/parking on the victim's keys; partitions park "
              "the cut's traffic and the detector degrades membership "
              "until the heal\n");
  PrintJsonSummary(args, flags, baseline, stall, degraded, partition);
  const bool ok = stall.run.monitors_ok && degraded.run.monitors_ok &&
                  partition.run.monitors_ok && degraded_ratio >= 0.5;
  if (degraded_ratio < 0.5) {
    std::printf("FAIL: degraded outage-window ratio %.1f%% < 50%%\n",
                100.0 * degraded_ratio);
  }
  if (!partition.run.monitors_ok) {
    std::printf("FAIL: partition run tripped the invariant monitor\n");
  }
  return ok ? 0 : 1;
}
