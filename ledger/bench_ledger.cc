// The performance ledger: one closed-loop workload per process, reporting
// simulated performance (virtual txn/s and latency, what the paper's
// figures plot) and simulator performance (wall time, set-up time, memory)
// from the same run, plus per-layer costs measured from outside the
// program.
//
//   bench_ledger --workload=NAME --mode=e2e|layers [--seed=42] [--threads=0]
//                [--seconds=10] [--json=FILE] [--trace-out=FILE]
//
// --mode=e2e repeats the workload for about --seconds of wall time and
// times only driver.Start(); RunUntil(horizon); Drain() of each run, with
// nothing instrumented; it reports medians over the runs.
//
// --mode=layers alternates an uninstrumented run with a traced one: the
// traced run times the generator and counts heap allocations, and after it
// bench-side replays time the router, lock manager, record store, serial
// engine and event queue through their public APIs. The wall-time
// difference between the two runs is the instrumentation overhead.
//
// Reported times are normalised by a reference kernel timed next to each
// run (calibration.h), which cancels most of the slowdown a busy shared
// host adds; the e2e mode also prints the raw medians.
//
// Both modes check their outputs and print correct=true|false; the last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
// The exit status is 0 only when every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "calibration.h"
#include "engine/cluster.h"
#include "obs/telemetry.h"
#include "replay.h"
#include "spans.h"
#include "workload/client.h"
#include "workloads.h"

namespace {

using hermes::Batch;
using hermes::SimTime;
using hermes::TrafficClass;
using hermes::engine::Cluster;
using hermes::ledger::MakeWorkload;
using hermes::ledger::SpanRecorder;
using hermes::ledger::WallNs;
using hermes::ledger::Workload;

constexpr int kMinTimedRuns = 3;
constexpr int kExtraSetups = 2;

struct Args {
  std::string workload;
  std::string mode = "e2e";
  uint64_t seed = 42;
  int threads = 0;
  double seconds = 10;
  std::string json_path;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "mode") {
      args->mode = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "threads") {
      args->threads = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "json") {
      args->json_path = value;
    } else if (key == "trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return false;
  }
  return (args->mode == "e2e" || args->mode == "layers") &&
         args->threads >= 0 && args->seconds > 0;
}

/// Upper bound of bucket `b` of engine::LatencyHistogram (4 linear
/// sub-buckets per power of two).
uint64_t HistogramUpperBound(size_t b) {
  const uint64_t base = 1ULL << (b / 4);
  return base + (base * (b % 4 + 1)) / 4;
}

/// Latency quantile `q` in milliseconds, interpolated linearly inside the
/// histogram bucket that holds it. The histogram's own Percentile()
/// returns bucket upper bounds, which step by up to 25% and would make a
/// one-bucket shift look like a regression.
double PercentileMs(const hermes::obs::HistogramSnapshot& snap, double q) {
  if (snap.count == 0) return 0;
  const double target = q * static_cast<double>(snap.count - 1);
  double seen = 0;
  for (const auto& [upper, n] : snap.buckets) {
    if (seen + static_cast<double>(n) > target) {
      uint64_t lower = 0;
      for (size_t b = 1; HistogramUpperBound(b - 1) < upper; ++b) {
        lower = HistogramUpperBound(b - 1);
      }
      const double frac = (target - seen + 0.5) / static_cast<double>(n);
      return (static_cast<double>(lower) +
              static_cast<double>(upper - lower) * frac) /
             1e3;
    }
    seen += static_cast<double>(n);
  }
  return static_cast<double>(snap.buckets.back().first) / 1e3;
}

/// Everything one closed-loop run produced.
struct RunRecord {
  // Conservation and determinism checks.
  uint64_t generated = 0;
  uint64_t completed = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t inflight = 0;
  uint64_t decision_digest = 0;
  uint64_t placement_digest = 0;
  uint64_t content_checksum = 0;
  uint64_t state_checksum = 0;
  // Simulated (deterministic) end-to-end results.
  double txn_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double commit_ratio = 0;
  double net_kb_per_txn = 0;
  // Deterministic layer counters.
  uint64_t events = 0;
  uint64_t batches = 0;
  uint64_t logged_txns = 0;
  uint64_t distributed = 0;
  hermes::LatencyBreakdown mean_latency;
  double cpu_util = 0;
  uint64_t net_msgs = 0;
  uint64_t fg_bytes = 0;
  uint64_t bulk_bytes = 0;
  SimTime wire_fg_p99_us = 0;
  SimTime wire_bulk_p99_us = 0;
  uint64_t envelopes = 0;
  uint64_t coalesced = 0;
  uint64_t credit_stalls = 0;
  uint64_t lease_installs = 0;
  uint64_t lease_updates = 0;
  // Wall clock.
  double setup_s = 0;
  double wall_s = 0;
  // Traced runs only.
  int64_t gen_ns = 0;
  uint64_t allocs = 0;
};

/// True when two runs of one workload and seed agree on every deterministic
/// output (wall-clock fields and traced-only counters excluded).
bool SameOutcome(const RunRecord& a, const RunRecord& b) {
  return a.generated == b.generated && a.completed == b.completed &&
         a.commits == b.commits && a.aborts == b.aborts &&
         a.decision_digest == b.decision_digest &&
         a.placement_digest == b.placement_digest &&
         a.content_checksum == b.content_checksum &&
         a.state_checksum == b.state_checksum && a.events == b.events &&
         a.txn_per_s == b.txn_per_s && a.p50_ms == b.p50_ms &&
         a.p99_ms == b.p99_ms && a.p999_ms == b.p999_ms &&
         a.net_kb_per_txn == b.net_kb_per_txn && a.net_msgs == b.net_msgs &&
         a.lease_updates == b.lease_updates;
}

/// A finished run whose cluster is still alive for replays and checks.
struct LiveRun {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Cluster> cluster;
  RunRecord record;
};

/// Set-up: the workload (generator, trace, partitioning) and a constructed,
/// loaded cluster; records its wall time in live->record.setup_s.
void SetUp(const Args& args, LiveRun* live) {
  const int64_t start = WallNs();
  live->workload = MakeWorkload(args.workload, args.seed, args.threads);
  const Workload& w = *live->workload;
  live->cluster = std::make_unique<Cluster>(w.config, w.kind,
                                            w.InitialPartitioning());
  live->cluster->Load();
  live->record.setup_s = static_cast<double>(WallNs() - start) / 1e9;
}

/// Sets up (timed as set-up), then runs the closed loop to the horizon and
/// drains (timed as the run). `spans` non-null makes this the traced run:
/// the generator is timed, allocations are counted, and the run gets a
/// span with an aggregated generator child.
LiveRun RunOnce(const Args& args, SpanRecorder* spans) {
  LiveRun live;
  SetUp(args, &live);
  Workload& w = *live.workload;
  Cluster& cluster = *live.cluster;
  RunRecord& r = live.record;

  hermes::workload::ClosedLoopDriver::Generator gen;
  if (spans == nullptr) {
    gen = [&w, &r](int, SimTime now) {
      ++r.generated;
      return w.Next(now);
    };
  } else {
    gen = [&w, &r](int, SimTime now) {
      ++r.generated;
      const int64_t start = WallNs();
      hermes::TxnRequest txn = w.Next(now);
      r.gen_ns += WallNs() - start;
      return txn;
    };
  }
  hermes::workload::ClosedLoopDriver driver(&cluster, w.clients,
                                            std::move(gen));
  driver.set_stop_time(w.horizon);

  const uint64_t allocs_before = hermes::ledger::AllocCount();
  if (spans != nullptr) hermes::ledger::SetAllocCounting(true);
  const int64_t run_start = WallNs();
  driver.Start();
  cluster.RunUntil(w.horizon);
  cluster.Drain();
  const int64_t run_end = WallNs();
  if (spans != nullptr) {
    hermes::ledger::SetAllocCounting(false);
    r.allocs = hermes::ledger::AllocCount() - allocs_before;
    const int run_span =
        spans->Add("run", SpanRecorder::kNoParent, run_start, run_end);
    spans->Add("generator", run_span, run_start, run_start + r.gen_ns);
  }
  r.wall_s = static_cast<double>(run_end - run_start) / 1e9;

  const auto& m = cluster.metrics();
  r.completed = driver.completed();
  r.commits = cluster.executor().committed();
  r.aborts = cluster.executor().aborted();
  r.inflight = cluster.executor().inflight();
  r.decision_digest = cluster.decision_digest().value();
  r.placement_digest = cluster.placement_digest().value();
  r.content_checksum = cluster.ContentChecksum();
  r.state_checksum = cluster.StateChecksum();

  const double commits = std::max<double>(static_cast<double>(r.commits), 1);
  r.txn_per_s = m.Throughput(w.warmup, w.horizon);
  const hermes::obs::HistogramSnapshot snap = m.latency_histogram().Snapshot();
  r.p50_ms = PercentileMs(snap, 0.50);
  r.p99_ms = PercentileMs(snap, 0.99);
  r.p999_ms = PercentileMs(snap, 0.999);
  r.commit_ratio = r.generated == 0 ? 0
                                    : static_cast<double>(r.commits) /
                                          static_cast<double>(r.generated);
  r.net_kb_per_txn =
      static_cast<double>(cluster.network().total_bytes()) / 1024 / commits;

  r.events = cluster.simulator().events_executed();
  r.batches = cluster.command_log().size();
  for (const Batch& b : cluster.command_log().batches()) {
    r.logged_txns += b.txns.size();
  }
  r.distributed = m.total_distributed();
  r.mean_latency = m.AverageLatency();
  uint64_t busy = 0;
  for (const auto& win : m.windows()) busy += win.busy_us;
  r.cpu_util = static_cast<double>(busy) /
               (static_cast<double>(cluster.Now()) * cluster.total_workers());
  r.net_msgs = cluster.network().total_messages();
  r.fg_bytes = cluster.network().class_bytes_sent(TrafficClass::kForeground);
  r.bulk_bytes = cluster.network().class_bytes_sent(TrafficClass::kBulk);
  const hermes::net::Wire& wire = cluster.wire();
  r.wire_fg_p99_us =
      wire.MergedQueueDelay(TrafficClass::kForeground).Percentile(0.99);
  r.wire_bulk_p99_us =
      wire.MergedQueueDelay(TrafficClass::kBulk).Percentile(0.99);
  r.envelopes = wire.envelopes_sent();
  r.coalesced = wire.coalesced_messages();
  r.credit_stalls = wire.credit_stalls();
  r.lease_installs = cluster.lease_manager().installs();
  r.lease_updates = cluster.lease_manager().updates();
  return live;
}

/// Conservation checks every run must pass: every generated transaction
/// completed exactly once, as a commit or an abort, and nothing is left in
/// flight after the drain.
bool Conserved(const RunRecord& r) {
  return r.generated > 0 && r.generated == r.completed &&
         r.completed == r.commits + r.aborts && r.inflight == 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Outcome of a whole invocation: the checks, the transaction counts and
/// the metrics main() prints.
struct Ledger {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
  void Count(const RunRecord& r) {
    attempted += r.generated;
    failed += r.generated > r.completed ? r.generated - r.completed : 0;
  }
};

void CheckRun(Ledger& ledger, const RunRecord& r, const char* which) {
  ledger.Count(r);
  ledger.Check(Conserved(r), std::string(which) +
                                 ": generated == completed == commits + "
                                 "aborts, nothing in flight after Drain()");
}

void CheckRouterReplay(Ledger& ledger, const LiveRun& live,
                       const hermes::ledger::RouterReplay& replay) {
  ledger.Check(replay.placement.value() ==
                   live.cluster->placement_digest().value(),
               "standalone router replay reproduces placement_digest");
}

// ---------------------------------------------------------------------------
// --mode=e2e
// ---------------------------------------------------------------------------

void RunE2e(const Args& args, Ledger& ledger) {
  const int64_t start = WallNs();
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);

  // Warm-up run: untimed. Peak RSS is read right after it, so the figure is
  // one set-up plus one run, not the fragmentation that repeated runs pile
  // on top. Its command log also feeds the standalone router replay.
  RunRecord warmup;
  double peak_rss_mb = 0;
  {
    LiveRun live = RunOnce(args, /*spans=*/nullptr);
    warmup = live.record;
    peak_rss_mb = PeakRssMb();
    CheckRun(ledger, warmup, "warm-up run");
    CheckRouterReplay(
        ledger, live,
        hermes::ledger::ReplayRouter(*live.workload,
                                     live.cluster->command_log().batches(),
                                     /*keep_plans=*/false, nullptr,
                                     SpanRecorder::kNoParent));
  }

  // Timed runs, each between two reference-kernel measurements: its times
  // are scaled by the kernel's idle-host time over the mean of the two,
  // which cancels most of the slowdown neighbours on a shared host cause.
  // Set-up takes milliseconds, so each run also sets up kExtraSetups more
  // times to give the set-up median enough samples.
  std::vector<double> wall, setup, raw_wall, kernel;
  double kernel_before = hermes::ledger::ReferenceKernelSeconds();
  kernel.push_back(kernel_before);
  for (;;) {
    const int64_t run_start = WallNs();
    std::vector<double> setups;
    for (int i = 0; i < kExtraSetups; ++i) {
      LiveRun live;
      SetUp(args, &live);
      setups.push_back(live.record.setup_s);
    }
    const RunRecord r = RunOnce(args, /*spans=*/nullptr).record;
    setups.push_back(r.setup_s);
    const double kernel_after = hermes::ledger::ReferenceKernelSeconds();
    kernel.push_back(kernel_after);
    const double scale = hermes::ledger::kReferenceKernelIdleSeconds /
                         ((kernel_before + kernel_after) / 2);
    kernel_before = kernel_after;

    CheckRun(ledger, r, "timed run");
    ledger.Check(SameOutcome(warmup, r),
                 "repeated runs agree on every deterministic output");
    raw_wall.push_back(r.wall_s);
    wall.push_back(r.wall_s * scale);
    for (double s : setups) setup.push_back(s * scale);
    std::printf("run %zu raw setup_s %.6f wall_s %.6f  kernel_s %.6f\n",
                wall.size(), r.setup_s, r.wall_s, kernel_after);
    const int64_t now = WallNs();
    if (static_cast<int>(wall.size()) >= kMinTimedRuns &&
        now - start + (now - run_start) > budget) {
      break;
    }
  }
  std::printf("raw wall_s median %.6f  reference kernel median %.6f s "
              "(idle host %.3f s)\n",
              Median(raw_wall), Median(kernel),
              hermes::ledger::kReferenceKernelIdleSeconds);

  const RunRecord& d = warmup;
  std::printf("timed runs %zu  commits %llu  aborts %llu  events %llu\n",
              wall.size(), static_cast<unsigned long long>(d.commits),
              static_cast<unsigned long long>(d.aborts),
              static_cast<unsigned long long>(d.events));
  std::printf("decision_digest %016llx  placement_digest %016llx\n",
              static_cast<unsigned long long>(d.decision_digest),
              static_cast<unsigned long long>(d.placement_digest));
  ledger.metrics = {
      {"txn_per_s", d.txn_per_s, "txn/s"},
      {"latency_p50_ms", d.p50_ms, "ms"},
      {"latency_p99_ms", d.p99_ms, "ms"},
      {"latency_p999_ms", d.p999_ms, "ms"},
      {"commit_ratio", d.commit_ratio, "ratio"},
      {"net_kb_per_txn", d.net_kb_per_txn, "KB/txn"},
      {"wall_s", Median(wall), "s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

// ---------------------------------------------------------------------------
// --mode=layers
// ---------------------------------------------------------------------------

/// Timed per-layer values of one round (one uninstrumented run, one traced
/// run, and the replays of the traced run), normalised like the e2e times
/// by reference-kernel runs at the round's start and end.
struct LayerRound {
  double plain_wall_s = 0;
  double traced_wall_s = 0;
  double gen_ns_per_txn = 0;
  double routing_us_per_txn = 0;
  double lock_ns_per_op = 0;
  double store_ns_per_op = 0;
  double replay_us_per_txn = 0;
  double unattributed_ns_per_event = 0;
  double queue_ns_per_event = 0;
};

void RunLayers(const Args& args, Ledger& ledger, SpanRecorder& spans) {
  std::vector<LayerRound> rounds;
  RunRecord first;
  hermes::ledger::RouterReplay router;  // of the first round (counts)
  hermes::ledger::LockReplay locks;
  hermes::ledger::StoreReplay store;
  size_t lock_window = 0;
  const int64_t start = WallNs();
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  // Untimed warm-up, so the first plain run is not the process's first
  // (which runs slower and would make the overhead read negative).
  CheckRun(ledger, RunOnce(args, /*spans=*/nullptr).record, "warm-up run");
  double kernel_before = hermes::ledger::ReferenceKernelSeconds();
  for (;;) {
    const int64_t round_start = WallNs();
    LayerRound round;
    RunRecord plain;
    {
      LiveRun live = RunOnce(args, /*spans=*/nullptr);
      plain = live.record;
      CheckRun(ledger, plain, "plain run");
    }
    round.plain_wall_s = plain.wall_s;

    LiveRun live = RunOnce(args, &spans);
    const RunRecord& t = live.record;
    CheckRun(ledger, t, "traced run");
    ledger.Check(SameOutcome(plain, t),
                 "traced run matches the plain run's digests and outputs "
                 "(instrumentation is passive)");
    if (!rounds.empty()) {
      ledger.Check(SameOutcome(first, t),
                   "repeated rounds agree on every deterministic output");
    }
    round.traced_wall_s = t.wall_s;
    round.gen_ns_per_txn = static_cast<double>(t.gen_ns) /
                           static_cast<double>(std::max<uint64_t>(t.generated, 1));

    const std::vector<Batch>& batches = live.cluster->command_log().batches();
    const int router_span = spans.Begin("router_replay", SpanRecorder::kNoParent);
    auto rr = hermes::ledger::ReplayRouter(*live.workload, batches,
                                           /*keep_plans=*/true, &spans,
                                           router_span);
    spans.End(router_span);
    CheckRouterReplay(ledger, live, rr);
    round.routing_us_per_txn = static_cast<double>(rr.route_ns) / 1e3 /
                               static_cast<double>(std::max<uint64_t>(rr.txns, 1));

    // Little's law: the run's mean in-flight count is throughput times
    // mean latency; the lock replay holds that many transactions.
    lock_window = static_cast<size_t>(std::llround(
        t.txn_per_s * static_cast<double>(t.mean_latency.total_us) / 1e6));
    auto lr = hermes::ledger::ReplayLocks(
        rr.plans, live.workload->config.num_nodes, lock_window, spans);
    round.lock_ns_per_op = static_cast<double>(lr.ns) /
                           static_cast<double>(std::max<uint64_t>(2 * lr.requests, 1));

    auto sr = hermes::ledger::ReplayStore(*live.workload, rr.plans, spans);
    ledger.Check(sr.misses == 0,
                 "record-store replay finds every record where the plans "
                 "put it");
    round.store_ns_per_op = static_cast<double>(sr.ns) /
                            static_cast<double>(std::max<uint64_t>(sr.ops, 1));

    {
      // Serial replay: the command log through a fresh, loaded cluster with
      // no clients and no contention.
      auto fresh_w = MakeWorkload(args.workload, args.seed, args.threads);
      Cluster fresh(fresh_w->config, fresh_w->kind,
                    fresh_w->InitialPartitioning());
      fresh.Load();
      const int64_t replay_start = WallNs();
      fresh.ReplayBatches(batches);
      const int64_t replay_ns = WallNs() - replay_start;
      spans.Add("serial_replay", SpanRecorder::kNoParent, replay_start,
                replay_start + replay_ns);
      ledger.Check(fresh.ContentChecksum() == t.content_checksum &&
                       fresh.StateChecksum() == t.state_checksum,
                   "serial ReplayBatches reproduces ContentChecksum and "
                   "StateChecksum");
      round.replay_us_per_txn =
          static_cast<double>(replay_ns) / 1e3 /
          static_cast<double>(std::max<uint64_t>(t.logged_txns, 1));
    }

    const int queue_span = spans.Begin("sim_queue", SpanRecorder::kNoParent);
    round.queue_ns_per_event = hermes::ledger::SimQueueNsPerEvent(
        live.workload->config.num_nodes, t.events);
    spans.End(queue_span);

    // Self times of the generator, route_batch, lock_replay and
    // store_replay spans (none has children); what the plain run spent
    // beyond them is event-queue, closure and executor bookkeeping.
    const int64_t attributed = t.gen_ns + rr.route_ns + lr.ns + sr.ns;
    round.unattributed_ns_per_event =
        (plain.wall_s * 1e9 - static_cast<double>(attributed)) /
        static_cast<double>(std::max<uint64_t>(t.events, 1));

    const double kernel_after = hermes::ledger::ReferenceKernelSeconds();
    const double scale = hermes::ledger::kReferenceKernelIdleSeconds /
                         ((kernel_before + kernel_after) / 2);
    kernel_before = kernel_after;
    for (double LayerRound::*field :
         {&LayerRound::plain_wall_s, &LayerRound::traced_wall_s,
          &LayerRound::gen_ns_per_txn, &LayerRound::routing_us_per_txn,
          &LayerRound::lock_ns_per_op, &LayerRound::store_ns_per_op,
          &LayerRound::replay_us_per_txn,
          &LayerRound::unattributed_ns_per_event,
          &LayerRound::queue_ns_per_event}) {
      round.*field *= scale;
    }

    if (rounds.empty()) {
      first = t;
      router = std::move(rr);
      router.plans.clear();
      locks = lr;
      store = sr;
    }
    rounds.push_back(round);
    const int64_t now = WallNs();
    if (now - start + (now - round_start) > budget) break;
  }

  auto median_of = [&rounds](double LayerRound::*field) {
    std::vector<double> v;
    for (const LayerRound& r : rounds) v.push_back(r.*field);
    return Median(v);
  };
  const RunRecord& t = first;
  const double commits = static_cast<double>(std::max<uint64_t>(t.commits, 1));
  const double routed = static_cast<double>(std::max<uint64_t>(router.txns, 1));
  const double plain_wall = median_of(&LayerRound::plain_wall_s);
  const double traced_wall = median_of(&LayerRound::traced_wall_s);
  std::printf("rounds %zu  commits %llu  lock replay window %zu txns\n",
              rounds.size(), static_cast<unsigned long long>(t.commits),
              lock_window);
  ledger.metrics = {
      {"workload.gen_ns_per_txn", median_of(&LayerRound::gen_ns_per_txn),
       "ns/txn"},
      {"sequencer.batches", static_cast<double>(t.batches), "count"},
      {"sequencer.txns_per_batch",
       static_cast<double>(t.logged_txns) /
           static_cast<double>(std::max<uint64_t>(t.batches, 1)),
       "txn/batch"},
      {"scheduler.wait_ms",
       static_cast<double>(t.mean_latency.scheduling_us) / 1e3, "ms"},
      {"routing.us_per_txn", median_of(&LayerRound::routing_us_per_txn),
       "us/txn"},
      {"routing.allocs_per_txn", static_cast<double>(router.allocs) / routed,
       "allocs/txn"},
      {"routing.remote_reads_per_txn",
       static_cast<double>(router.remote_reads) / routed, "reads/txn"},
      {"routing.migrations_per_txn",
       static_cast<double>(router.migrations) / routed, "records/txn"},
      {"routing.distributed_ratio", static_cast<double>(t.distributed) / commits,
       "ratio"},
      {"lock.wait_ms", static_cast<double>(t.mean_latency.lock_wait_us) / 1e3,
       "ms"},
      {"lock.ops_per_txn",
       2.0 * static_cast<double>(locks.requests) /
           static_cast<double>(std::max<uint64_t>(locks.txns, 1)),
       "ops/txn"},
      {"lock.ns_per_op", median_of(&LayerRound::lock_ns_per_op), "ns/op"},
      {"store.ops_per_txn", static_cast<double>(store.ops) / routed, "ops/txn"},
      {"store.storage_ms", static_cast<double>(t.mean_latency.storage_us) / 1e3,
       "ms"},
      {"store.ns_per_op", median_of(&LayerRound::store_ns_per_op), "ns/op"},
      {"executor.cpu_util", t.cpu_util, "ratio"},
      {"executor.remote_wait_ms",
       static_cast<double>(t.mean_latency.remote_wait_us) / 1e3, "ms"},
      {"executor.other_ms", static_cast<double>(t.mean_latency.other_us) / 1e3,
       "ms"},
      {"engine.replay_us_per_txn", median_of(&LayerRound::replay_us_per_txn),
       "us/txn"},
      {"sim.events", static_cast<double>(t.events), "count"},
      {"sim.events_per_txn", static_cast<double>(t.events) / commits,
       "events/txn"},
      {"sim.events_per_s", static_cast<double>(t.events) / plain_wall,
       "events/s"},
      {"sim.unattributed_ns_per_event",
       median_of(&LayerRound::unattributed_ns_per_event), "ns/event"},
      {"sim.queue_ns_per_event", median_of(&LayerRound::queue_ns_per_event),
       "ns/event"},
      {"net.msgs_per_txn", static_cast<double>(t.net_msgs) / commits,
       "msgs/txn"},
      {"net.fg_kb_per_txn", static_cast<double>(t.fg_bytes) / 1024 / commits,
       "KB/txn"},
      {"net.bulk_kb_per_txn",
       static_cast<double>(t.bulk_bytes) / 1024 / commits, "KB/txn"},
      {"wire.fg_queue_p99_us", static_cast<double>(t.wire_fg_p99_us), "us"},
      {"wire.bulk_queue_p99_us", static_cast<double>(t.wire_bulk_p99_us), "us"},
      {"wire.msgs_per_envelope",
       t.envelopes == 0 ? 0.0
                        : static_cast<double>(t.coalesced) /
                              static_cast<double>(t.envelopes),
       "msgs/envelope"},
      {"wire.credit_stalls", static_cast<double>(t.credit_stalls), "count"},
      {"lease.replica_read_share",
       router.reads == 0 ? 0.0
                         : static_cast<double>(router.replica_reads) /
                               static_cast<double>(router.reads),
       "ratio"},
      {"lease.installs", static_cast<double>(t.lease_installs), "count"},
      {"lease.updates_per_txn", static_cast<double>(t.lease_updates) / commits,
       "updates/txn"},
      {"process.allocs_per_txn", static_cast<double>(t.allocs) / commits,
       "allocs/txn"},
      {"process.instrumentation_overhead_pct",
       100.0 * (traced_wall - plain_wall) / plain_wall, "%"},
  };
}

/// Formats a double with every digit it carries.
std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonLine(const Ledger& ledger) {
  std::string out = "{\"correct\": ";
  out += ledger.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted);
  out += ", \"failed\": " + std::to_string(ledger.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < ledger.metrics.size(); ++i) {
    const Metric& m = ledger.metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const auto& names = hermes::ledger::WorkloadNames();
  if (!ParseArgs(argc, argv, &args) ||
      std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr,
                 "usage: bench_ledger --workload=NAME --mode=e2e|layers "
                 "[--seed=42] [--threads=0] [--seconds=10] [--json=FILE] "
                 "[--trace-out=FILE]\nworkloads:");
    for (const std::string& name : names) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("bench_ledger workload=%s mode=%s seed=%llu threads=%d\n",
              args.workload.c_str(), args.mode.c_str(),
              static_cast<unsigned long long>(args.seed), args.threads);

  Ledger ledger;
  SpanRecorder spans;
  if (args.mode == "e2e") {
    RunE2e(args, ledger);
  } else {
    RunLayers(args, ledger, spans);
    if (!args.trace_out.empty() && !spans.WriteChromeTrace(args.trace_out)) {
      ledger.Check(false, "writing " + args.trace_out);
    }
  }

  for (const Metric& m : ledger.metrics) {
    std::printf("%-38s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : ledger.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::printf("correct=%s\n", ledger.correct ? "true" : "false");
  const std::string json = JsonLine(ledger);
  if (!args.json_path.empty()) {
    if (std::FILE* out = std::fopen(args.json_path.c_str(), "w")) {
      std::fprintf(out, "%s\n", json.c_str());
      std::fclose(out);
    } else {
      std::fprintf(stderr, "bench_ledger: cannot write %s\n",
                   args.json_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", json.c_str());
  return ledger.correct ? 0 : 1;
}
