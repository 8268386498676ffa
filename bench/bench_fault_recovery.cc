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
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/invariant_monitor.h"
#include "workload/client.h"
#include "workload/ycsb.h"

namespace {

using hermes::ClusterConfig;
using hermes::MsToSim;
using hermes::SecToSim;
using hermes::SimTime;
using hermes::bench::PrintSeriesTable;
using hermes::engine::Cluster;
using hermes::engine::RouterKind;
using hermes::fault::FaultInjector;
using hermes::fault::FaultPlan;
using hermes::fault::FaultPlanConfig;
using hermes::fault::InvariantMonitor;
using hermes::fault::PartitionStats;
using hermes::fault::RangeMapFactory;
using hermes::fault::RecoveryStats;

constexpr SimTime kHorizon = SecToSim(12);
constexpr int kClients = 64;
constexpr uint64_t kPlanSeed = 2026;

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

/// CLI flags: --seed=<n> reseeds every generated plan; --plan=<spec> is a
/// comma-separated k=v list overriding the plan shape, e.g.
/// --plan=crashes=1,partitions=2,one_way=0.5,gray=1,drop=0.05. Unknown
/// keys abort (a typo silently running the default plan would be worse).
struct Options {
  uint64_t seed = kPlanSeed;
  std::string plan_spec;  // verbatim, echoed into the JSON summary
  int crash_cycles = 2;
  int partition_cycles = 2;
  double one_way_fraction = 0.25;
  bool gray = false;
  double drop_prob = 0.02;
  double duplicate_prob = 0.01;
  SimTime max_jitter_us = 300;
};

bool ParsePlanSpec(const std::string& spec, Options* opts) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string kv = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    if (key == "crashes") {
      opts->crash_cycles = std::atoi(val.c_str());
    } else if (key == "partitions") {
      opts->partition_cycles = std::atoi(val.c_str());
    } else if (key == "one_way") {
      opts->one_way_fraction = std::atof(val.c_str());
    } else if (key == "gray") {
      opts->gray = std::atoi(val.c_str()) != 0;
    } else if (key == "drop") {
      opts->drop_prob = std::atof(val.c_str());
    } else if (key == "dup") {
      opts->duplicate_prob = std::atof(val.c_str());
    } else if (key == "jitter") {
      opts->max_jitter_us = std::strtoull(val.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--seed=", 7) == 0) {
      opts->seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--plan=", 7) == 0) {
      opts->plan_spec = arg + 7;
      if (!ParsePlanSpec(opts->plan_spec, opts)) {
        std::fprintf(stderr, "bad --plan spec: %s\n", arg + 7);
        return false;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed=<n>] "
                   "[--plan=crashes=N,partitions=N,one_way=F,gray=0|1,"
                   "drop=F,dup=F,jitter=US]\n",
                   argv[0]);
      return false;
    }
  }
  return true;
}

ClusterConfig BenchConfig(Mode mode) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 20'000;
  config.hermes.fusion_table_capacity = 500;
  // Partition runs need the heartbeat detector to degrade membership; the
  // other modes keep it off so their counter/digest surface is the same
  // as before the detector existed.
  config.detector.enabled = mode == Mode::kPartition;
  return config;
}

struct BenchOutcome {
  std::vector<double> commits;     // per metrics window
  std::vector<double> sent;        // bytes sent per window
  std::vector<double> received;    // bytes received per window
  SimTime window_us = 1;
  uint64_t total_commits = 0;
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t unavailable = 0;
  uint64_t parked = 0;
  uint64_t watchdog_aborts = 0;
  uint64_t messages_held = 0;
  uint64_t detector_suspects = 0;
  uint64_t detector_restores = 0;
  std::vector<RecoveryStats> recoveries;
  std::vector<PartitionStats> partitions;
  bool monitors_ok = true;
};

BenchOutcome Run(Mode mode, const Options& opts) {
  const ClusterConfig config = BenchConfig(mode);
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  std::unique_ptr<FaultInjector> injector;
  InvariantMonitor monitor(config.num_records);
  if (mode != Mode::kFaultFree) {
    FaultPlanConfig pc;
    pc.horizon_us = kHorizon;
    pc.num_nodes = config.num_nodes;
    pc.crash_cycles = opts.crash_cycles;
    pc.min_outage_us = MsToSim(200);
    pc.max_outage_us = MsToSim(800);
    pc.no_stall = mode == Mode::kNoStall || mode == Mode::kPartition;
    if (mode == Mode::kPartition) {
      pc.partition_cycles = opts.partition_cycles;
      pc.one_way_fraction = opts.one_way_fraction;
      pc.gray = opts.gray;
      // Partition victims draw from the non-crashed pool; keep one crash
      // cycle so the bench exercises the overlap, matching the chaos
      // tests' mixed plans.
      pc.crash_cycles = opts.crash_cycles > 0 ? 1 : 0;
    }
    pc.link.drop_prob = opts.drop_prob;
    pc.link.duplicate_prob = opts.duplicate_prob;
    pc.link.max_jitter_us = opts.max_jitter_us;
    const FaultPlan plan = FaultPlan::Generate(pc, opts.seed);
    std::printf("%s", plan.DebugString().c_str());
    injector = std::make_unique<FaultInjector>(&cluster, plan,
                                               RangeMapFactory(config));
    injector->set_monitor(&monitor);
  }

  hermes::workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 1337;
  hermes::workload::YcsbWorkload gen(wl, nullptr);
  hermes::workload::ClosedLoopDriver driver(
      &cluster, kClients,
      [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(kHorizon);
  driver.Start();

  if (injector) {
    injector->RunUntil(kHorizon);
    injector->Drain();
  } else {
    cluster.RunUntil(kHorizon);
    cluster.Drain();
  }

  BenchOutcome out;
  const auto& m = cluster.metrics();
  out.window_us = m.window_us();
  const size_t windows = kHorizon / m.window_us();
  for (size_t w = 0; w < windows; ++w) {
    const bool have = w < m.windows().size();
    out.commits.push_back(have ? m.windows()[w].commits : 0.0);
    out.sent.push_back(have ? m.windows()[w].net_bytes : 0.0);
    out.received.push_back(have ? m.windows()[w].net_bytes_received : 0.0);
  }
  out.total_commits = cluster.metrics().total_commits();
  out.dropped = cluster.wire().messages_dropped();
  out.duplicated = cluster.wire().messages_duplicated();
  out.unavailable = cluster.degraded_ledger().unavailable_aborts();
  out.parked = cluster.degraded_ledger().parked_total();
  out.watchdog_aborts = cluster.degraded_ledger().watchdog_aborts();
  out.messages_held = cluster.wire().total_held();
  if (const auto* det = cluster.failure_detector()) {
    out.detector_suspects = det->suspects();
    out.detector_restores = det->restores();
  }
  if (injector) {
    out.recoveries = injector->recoveries();
    out.partitions = injector->partitions();
    out.monitors_ok = monitor.ok();
    if (!monitor.ok()) std::printf("%s", monitor.FailureReport().c_str());
  }
  return out;
}

/// Commits inside the windows overlapping any crash->resume span of
/// `faulty`, for both runs, as faulty/baseline — the availability
/// criterion: how much of fault-free throughput survives the outage.
double OutageThroughputRatio(const BenchOutcome& faulty,
                             const BenchOutcome& baseline) {
  double f = 0.0, b = 0.0;
  for (const RecoveryStats& r : faulty.recoveries) {
    const size_t w0 = r.crash_at / faulty.window_us;
    const size_t w1 = r.resumed_at / faulty.window_us;
    for (size_t w = w0; w <= w1 && w < faulty.commits.size(); ++w) {
      f += faulty.commits[w];
      if (w < baseline.commits.size()) b += baseline.commits[w];
    }
  }
  return b > 0.0 ? f / b : 0.0;
}

void PrintRecoveries(const char* label, const BenchOutcome& out) {
  std::printf("\n%s recoveries (virtual time):\n", label);
  for (const RecoveryStats& r : out.recoveries) {
    std::printf(
        "  node %d: crash at %.3fs, outage to %.3fs, replay %.1fms "
        "(%llu batches), stall %.1fms, recovered in %.1fms\n",
        r.node, r.crash_at / 1e6, r.rejoin_at / 1e6, r.replay_us / 1e3,
        static_cast<unsigned long long>(r.replayed_batches),
        r.stall_us() / 1e3, r.time_to_recover_us() / 1e3);
  }
}

void PrintPartitions(const char* label, const BenchOutcome& out) {
  if (out.partitions.empty()) return;
  std::printf("\n%s partitions (virtual time):\n", label);
  for (const PartitionStats& p : out.partitions) {
    std::printf("  node %d: %s cut at %.3fs, healed at %.3fs, "
                "%llu messages parked\n",
                p.node, hermes::fault::PartitionModeName(p.mode),
                p.cut_at / 1e6, p.healed_at / 1e6,
                static_cast<unsigned long long>(p.held_released));
  }
  std::printf("  detector: suspects=%llu restores=%llu held_total=%llu\n",
              static_cast<unsigned long long>(out.detector_suspects),
              static_cast<unsigned long long>(out.detector_restores),
              static_cast<unsigned long long>(out.messages_held));
}

/// One-line machine-readable summary: the flags that shaped the run plus
/// each mode's headline numbers (scripts diff these across seeds).
void PrintJsonSummary(const Options& opts, const BenchOutcome& baseline,
                      const BenchOutcome& stall, const BenchOutcome& degraded,
                      const BenchOutcome& partition) {
  std::printf("JSON {\"seed\":%llu,\"plan\":\"%s\","
              "\"flags\":{\"crashes\":%d,\"partitions\":%d,"
              "\"one_way\":%.3f,\"gray\":%s},\"modes\":[",
              static_cast<unsigned long long>(opts.seed),
              opts.plan_spec.c_str(), opts.crash_cycles,
              opts.partition_cycles, opts.one_way_fraction,
              opts.gray ? "true" : "false");
  const BenchOutcome* outs[] = {&baseline, &stall, &degraded, &partition};
  const Mode modes[] = {Mode::kFaultFree, Mode::kStall, Mode::kNoStall,
                        Mode::kPartition};
  for (int i = 0; i < 4; ++i) {
    std::printf("%s{\"mode\":\"%s\",\"commits\":%llu,\"unavailable\":%llu,"
                "\"parked\":%llu,\"held\":%llu,\"suspects\":%llu,"
                "\"restores\":%llu,\"monitors_ok\":%s}",
                i > 0 ? "," : "", ModeName(modes[i]),
                static_cast<unsigned long long>(outs[i]->total_commits),
                static_cast<unsigned long long>(outs[i]->unavailable),
                static_cast<unsigned long long>(outs[i]->parked),
                static_cast<unsigned long long>(outs[i]->messages_held),
                static_cast<unsigned long long>(outs[i]->detector_suspects),
                static_cast<unsigned long long>(outs[i]->detector_restores),
                outs[i]->monitors_ok ? "true" : "false");
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) return 2;
  std::printf("Fault recovery bench: stall vs degraded crash handling vs "
              "network partitions, against a fault-free baseline "
              "(seed=%llu)\n",
              static_cast<unsigned long long>(opts.seed));
  BenchOutcome baseline = Run(Mode::kFaultFree, opts);
  BenchOutcome stall = Run(Mode::kStall, opts);
  BenchOutcome degraded = Run(Mode::kNoStall, opts);
  BenchOutcome partition = Run(Mode::kPartition, opts);

  PrintSeriesTable("throughput under chaos",
                   {"fault_free", "stall", "degraded", "partition"},
                   {baseline.commits, stall.commits, degraded.commits,
                    partition.commits},
                   1.0, "commits per window");
  PrintSeriesTable("degraded run wire traffic", {"sent", "received"},
                   {degraded.sent, degraded.received}, 1.0,
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
              static_cast<unsigned long long>(degraded.parked),
              static_cast<unsigned long long>(degraded.unavailable),
              static_cast<unsigned long long>(degraded.watchdog_aborts));

  std::printf("\ntotals: fault-free=%llu stall=%llu degraded=%llu "
              "dropped=%llu duplicated=%llu monitors=%s\n",
              static_cast<unsigned long long>(baseline.total_commits),
              static_cast<unsigned long long>(stall.total_commits),
              static_cast<unsigned long long>(degraded.total_commits),
              static_cast<unsigned long long>(degraded.dropped),
              static_cast<unsigned long long>(degraded.duplicated),
              stall.monitors_ok && degraded.monitors_ok ? "ok" : "FAILED");
  std::printf("paper shape: stall drops to ~0 during outages; degraded "
              "keeps the survivors' share (>=50%% of fault-free) and pays "
              "only retries/parking on the victim's keys; partitions park "
              "the cut's traffic and the detector degrades membership "
              "until the heal\n");
  PrintJsonSummary(opts, baseline, stall, degraded, partition);
  const bool ok = stall.monitors_ok && degraded.monitors_ok &&
                  partition.monitors_ok && degraded_ratio >= 0.5;
  if (degraded_ratio < 0.5) {
    std::printf("FAIL: degraded outage-window ratio %.1f%% < 50%%\n",
                100.0 * degraded_ratio);
  }
  if (!partition.monitors_ok) {
    std::printf("FAIL: partition run tripped the invariant monitor\n");
  }
  return ok ? 0 : 1;
}
