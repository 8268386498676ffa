#include "digest_oracle.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "core/hermes_router.h"
#include "engine/cluster.h"
#include "fault/injector.h"
#include "fault/invariant_monitor.h"
#include "net/wire.h"
#include "workload/client.h"
#include "workload/scenarios.h"
#include "workload/ycsb.h"

namespace hermes::oracle {
namespace {

using engine::Cluster;
using engine::RouterKind;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultPlanConfig;
using fault::InvariantMonitor;
using fault::RangeMapFactory;

void AddTrace(Profile& p, const Cluster& cluster) {
  const core::HermesRouter& router = *cluster.hermes_router();
  p.Hex("trace", cluster.trace_digest().value())
      .Count("trace_count", cluster.trace_digest().count())
      .Count("events", cluster.tracer().total_recorded())
      .Count("trace_dropped", cluster.tracer().total_dropped())
      .Blob("trace_json", cluster.TraceJson())
      // Counters that neither the digests nor the trace determine.
      .Unprinted("bytes_sent", cluster.wire().total_bytes())
      .Unprinted("bytes_received", cluster.wire().total_bytes_received())
      .Unprinted("fusion_size", router.fusion_table().size())
      .Unprinted("reroutes", router.stats().reroutes)
      .Unprinted("reorders", router.stats().reorders);
}

// decision: skewed YCSB on the Hermes router with a small fusion table
// (forces evictions), a mid-run scale-out with cold chunk migration, and a
// scale-in consolidation — so the digest covers routing placements,
// fusion-table evictions, migration scheduling, and every event-queue pop
// across all of those phases.
Profile RunDecision() {
  ClusterConfig config;
  config.num_nodes = 3;
  config.num_records = 12'000;
  config.hermes.fusion_table_capacity = 300;
  config.migration_chunk_records = 250;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 20'260'805;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 16, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(1'500));
  driver.Start();

  cluster.RunUntil(MsToSim(400));
  // Scale out: re-home the first quarter of the keyspace onto the new
  // node via chunk-migration transactions.
  const NodeId added = cluster.AddNode(
      {{0, config.num_records / 4 - 1, 3}}, /*migrate_cold=*/true);
  cluster.RunUntil(MsToSim(900));
  // Consolidate back: remove the node and return its ranges.
  cluster.RemoveNode(added, {{0, config.num_records / 4 - 1, 0}},
                     /*migrate_cold=*/true);
  cluster.RunUntil(MsToSim(1'500));
  cluster.Drain();

  uint64_t migrations = 0;
  for (const auto& w : cluster.metrics().windows()) migrations += w.migrations;
  Profile p;
  p.Hex("digest", cluster.decision_digest().value())
      .Count("count", cluster.decision_digest().count())
      .Count("commits", cluster.metrics().total_commits())
      .Count("migrations", migrations)
      .Hex("placement", cluster.placement_digest().value())
      .Hex("state", cluster.StateChecksum())
      .Hex("content", cluster.ContentChecksum())
      .Count("aborts", cluster.metrics().total_aborts());
  return p;
}

// degraded_retry: a kCrashNoStall plan on a 4-node cluster. The whole
// degraded outcome — who was blocked, in which epoch, with which backoff,
// plus the final placements and state — must be a pure function of
// (workload seed, plan seed, config). The quiescent check replays the log
// under the membership schedule on every salt.
Profile RunDegradedRetry(uint64_t seed) {
  const ClusterConfig config = DegradedConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  const FaultPlan plan = NoStallPlan(config, seed);
  FaultInjector injector(&cluster, plan, RangeMapFactory(config));
  InvariantMonitor monitor;
  injector.set_monitor(&monitor);

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = Mix64(seed ^ 0xdeadULL);
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 10, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(300));
  driver.Start();

  injector.RunUntil(MsToSim(300));
  injector.Drain();
  monitor.CheckQuiescent(cluster, RangeMapFactory(config), "final");

  const engine::DegradedLedger& ledger = cluster.degraded_ledger();
  Profile p;
  p.Hex("retry_digest", ledger.RetryDigest())
      .Count("retries", ledger.transcript().size())
      .Count("parked", ledger.parked_total())
      .Count("watchdog", ledger.watchdog_aborts())
      .Hex("placement", cluster.placement_digest().value())
      .Hex("checksum", cluster.StateChecksum())
      .Count("commits", cluster.metrics().total_commits());
  p.monitors_ok = monitor.ok();
  p.report = monitor.FailureReport();
  return p;
}

// replication: a read-heavy leased workload with a mid-run crash/rejoin
// lapsing every lease, tracer on.
Profile RunReplication() {
  ClusterConfig config = LeaseConfig();
  config.obs.trace_enabled = true;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  workload::YcsbConfig wl = workload::ReadHeavySkewedYcsb(
      config.num_records, config.num_nodes, 0.05, /*seed=*/23);
  workload::YcsbWorkload gen(wl, /*trace=*/nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 16, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(300));
  driver.Start();

  cluster.RunUntil(MsToSim(150));
  cluster.CrashNoStall(3);  // lapse all leases mid-run...
  cluster.RunUntil(MsToSim(180));
  cluster.RejoinNoStall(3);  // ...and re-grant after the rejoin epoch
  cluster.RunUntil(MsToSim(300));
  cluster.Drain();

  const auto& router =
      *static_cast<const core::HermesRouter*>(&cluster.router());
  Profile p;
  p.Hex("decision", cluster.decision_digest().value())
      .Hex("placement", cluster.placement_digest().value())
      .Hex("trace", cluster.trace_digest().value())
      .Hex("replicas", cluster.ReplicaChecksum())
      .Hex("state", cluster.StateChecksum())
      .Count("commits", cluster.metrics().total_commits())
      .Count("grants", router.lease_table().stats().grants)
      .Count("replica_reads", router.stats().replica_reads);
  return p;
}

// partition: every plan has one partition cycle (40% one-way) and one
// overlapping no-stall crash cycle on a disjoint victim; every third seed
// adds a gray window on top. Windows are long enough (>= 10ms against a
// 2.5ms heartbeat, miss threshold 3) that the detector converts each cut
// into membership epochs and restores them after the heal.
FaultPlan PartitionPlan(const ClusterConfig& config, uint64_t seed) {
  FaultPlanConfig pc;
  pc.horizon_us = MsToSim(120);
  pc.num_nodes = config.num_nodes;
  pc.crash_cycles = 1;
  pc.min_outage_us = MsToSim(10);
  pc.max_outage_us = MsToSim(40);
  pc.no_stall = true;
  pc.partition_cycles = 1;
  pc.min_partition_us = MsToSim(15);
  pc.max_partition_us = MsToSim(45);
  pc.one_way_fraction = 0.4;
  pc.gray = (seed % 3) == 0;
  pc.link.drop_prob = 0.05;
  pc.link.duplicate_prob = 0.03;
  pc.link.max_jitter_us = 300;
  return FaultPlan::Generate(pc, seed);
}

// One partition-chaos lifetime, detector, replica leases and tracing all
// on.
Profile RunPartition(uint64_t plan_seed) {
  ClusterConfig config = PartitionConfig();
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  const FaultPlan plan = PartitionPlan(config, plan_seed);
  FaultInjector injector(&cluster, plan, RangeMapFactory(config));
  InvariantMonitor monitor;
  monitor.AttachTracer(&cluster.tracer());
  injector.set_monitor(&monitor);

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = Mix64(plan_seed ^ 0x9a17ULL);
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 8, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(120));
  driver.Start();

  injector.RunUntil(MsToSim(120));
  injector.Drain();

  monitor.CheckQuiescent(cluster, RangeMapFactory(config), "final");

  const engine::FailureDetector& detector = *cluster.failure_detector();
  Profile p;
  p.Hex("digest", cluster.decision_digest().value())
      .Hex("placement", cluster.placement_digest().value())
      .Hex("trace", cluster.trace_digest().value())
      .Hex("checksum", cluster.StateChecksum())
      .Hex("replicas", cluster.ReplicaChecksum())
      .Count("commits", cluster.metrics().total_commits())
      .Count("held", cluster.wire().total_held())
      .Count("misses", detector.heartbeat_misses())
      .Count("suspects", detector.suspects())
      .Count("restores", detector.restores())
      .Count("parked", cluster.degraded_ledger().parked_total())
      .Hex("retry_digest", cluster.degraded_ledger().RetryDigest())
      .Count("cut_deliveries", cluster.wire().cut_deliveries());
  p.monitors_ok = monitor.ok();
  p.report = monitor.FailureReport();
  return p;
}

// net: bounded-bandwidth links, envelope coalescing and credit
// backpressure under steady YCSB, a scale-out at 150ms (lane + link growth
// while envelopes are in flight), a two-sided cut of node 2 at 220ms
// (transmit queues drain into the pens) healed at 260ms (pens release
// FIFO, serialization re-measured).
Profile RunNet() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 6'000;
  config.hermes.fusion_table_capacity = 250;
  config.migration_chunk_records = 250;
  config.obs.trace_enabled = true;
  config.net.enabled = true;
  // Tight enough that migration envelopes exhaust the window and stall
  // behind their own deliveries — the backpressure path must be exercised,
  // not just configured.
  config.net.link_credit_bytes = 8 * 1024;
  config.net.coalesce_window_us = 50;
  config.net.coalesce_max_bytes = 16 * 1024;
  // Leased-key write fan-out is the steady bulk stream that coalesces:
  // several copies toward the same holder inside one window ride one
  // envelope (chunk migrations are each far above the size cap).
  config.replication.enabled = true;
  config.replication.replicas = 3;
  config.replication.read_hot_threshold = 2;
  config.replication.write_revoke_threshold = 32;
  config.replication.max_leases = 256;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  workload::YcsbConfig wl = workload::ReadHeavySkewedYcsb(
      config.num_records, config.num_nodes, /*write_fraction=*/0.05,
      /*seed=*/20'260'808);
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 24, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(400));
  driver.Start();

  cluster.RunUntil(MsToSim(150));
  cluster.AddNode({{0, config.num_records / 4 - 1, 4}},
                  /*migrate_cold=*/true);
  cluster.RunUntil(MsToSim(220));
  cluster.PartitionCut(2, /*cut_inbound=*/true, /*cut_outbound=*/true);
  cluster.RunUntil(MsToSim(260));
  cluster.PartitionHeal(2);
  cluster.RunUntil(MsToSim(400));
  cluster.Drain();

  const net::Wire& wire = cluster.wire();
  Profile p;
  p.Hex("digest", cluster.decision_digest().value())
      .Hex("placement", cluster.placement_digest().value())
      .Hex("trace", cluster.trace_digest().value())
      .Hex("checksum", cluster.StateChecksum())
      .Count("commits", cluster.metrics().total_commits())
      .Count("envelopes", wire.envelopes_sent())
      .Count("coalesced", wire.coalesced_messages())
      .Count("fg_tx", wire.transmits(TrafficClass::kForeground))
      .Count("bulk_tx", wire.transmits(TrafficClass::kBulk))
      .Count("stalls", wire.credit_stalls())
      .Count("fg_p99", wire.MergedQueueDelay(TrafficClass::kForeground)
                           .Percentile(0.99))
      .Count("bulk_p99",
             wire.MergedQueueDelay(TrafficClass::kBulk).Percentile(0.99))
      .Count("aborts", cluster.metrics().total_aborts());
  return p;
}

constexpr uint64_t kChaosSeedBase = 20'260'000;
constexpr uint64_t kPartitionSeedBase = 20'267'000;
// The trace row's seeds: the healthy run, one traced stall-mode chaos plan
// and one traced no-stall plan.
constexpr uint64_t kTraceHealthySeed = 0;
constexpr uint64_t kTraceDegradedSeed = 20'260'003;

std::vector<uint64_t> SeedRange(uint64_t base, int n) {
  std::vector<uint64_t> seeds;
  for (int i = 0; i < n; ++i) seeds.push_back(base + i);
  return seeds;
}

Profile RunTrace(uint64_t seed) {
  if (seed == kTraceHealthySeed) return RunHealthy(/*traced=*/true);
  return RunChaos(seed,
                  {.no_stall = seed == kTraceDegradedSeed, .traced = true});
}

bool Faulted(const Profile& p) { return !p.Text("recovery_us").empty(); }

bool Contains(const std::string& text, const char* needle) {
  return text.find(needle) != std::string::npos;
}

Guard Above(const char* field, uint64_t floor) {
  return {std::string(field) + " > " + std::to_string(floor),
          [field, floor](const Profile& p) { return p.Get(field) > floor; }};
}

const Guard kRecovered{"the plan's crash was recovered", Faulted};

}  // namespace

Profile& Profile::Add(std::string key, std::string text, uint64_t value,
                      bool printed) {
  fields_.push_back({std::move(key), std::move(text), value, printed});
  return *this;
}

Profile& Profile::Hex(std::string key, uint64_t value) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(value));
  return Add(std::move(key), hex, value, true);
}

Profile& Profile::Count(std::string key, uint64_t value) {
  return Add(std::move(key), std::to_string(value), value, true);
}

Profile& Profile::List(std::string key, const std::vector<uint64_t>& values) {
  std::string text;
  uint64_t sum = 0;
  for (uint64_t v : values) {
    if (!text.empty()) text += ',';
    text += std::to_string(v);
    sum += v;
  }
  return Add(std::move(key), std::move(text), sum, true);
}

Profile& Profile::Blob(std::string key, std::string text) {
  return Add(std::move(key), std::move(text), 0, false);
}

Profile& Profile::Unprinted(std::string key, uint64_t value) {
  return Add(std::move(key), std::to_string(value), value, false);
}

uint64_t Profile::Get(std::string_view key) const {
  for (const Field& f : fields_) {
    if (f.key == key) return f.value;
  }
  return 0;
}

const std::string& Profile::Text(std::string_view key) const {
  static const std::string kEmpty;
  for (const Field& f : fields_) {
    if (f.key == key) return f.text;
  }
  return kEmpty;
}

std::string Profile::Line() const {
  std::string line;
  for (const Field& f : fields_) {
    if (!f.printed) continue;
    if (!line.empty()) line += ' ';
    line += f.key + "=" + f.text;
  }
  return line;
}

std::string Profile::FirstDifference(const Profile& other) const {
  for (size_t i = 0; i < fields_.size() && i < other.fields_.size(); ++i) {
    const Field& a = fields_[i];
    const Field& b = other.fields_[i];
    if (a.key != b.key) return "field '" + a.key + "' vs '" + b.key + "'";
    if (a.text == b.text) continue;
    return "field '" + a.key +
           (a.printed ? "': " + a.text + " vs " + b.text : "' differs");
  }
  if (fields_.size() == other.fields_.size()) return "";
  return "field count " + std::to_string(fields_.size()) + " vs " +
         std::to_string(other.fields_.size());
}

std::vector<uint64_t> Salts() {
  return {HashSalt(), 0x9e3779b97f4a7c15ULL, 0xdeadbeefcafef00dULL};
}

Profile RunChaos(uint64_t plan_seed, ChaosOptions options) {
  ClusterConfig config;
  config.num_nodes = 3;
  config.num_records = 6'000;
  config.hermes.fusion_table_capacity = 250;
  config.obs.trace_enabled = options.traced;
  // The degraded corpus runs a chunk-migration stream under the outage,
  // so crashes land mid-chunk-migration / mid-consolidation; small
  // chunks stretch the stream across the whole fault window.
  if (options.no_stall) config.migration_chunk_records = 300;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  FaultPlanConfig pc;
  pc.horizon_us = MsToSim(120);
  pc.num_nodes = config.num_nodes;
  pc.crash_cycles = 1;
  pc.min_outage_us = MsToSim(10);
  pc.max_outage_us = MsToSim(40);
  pc.no_stall = options.no_stall;
  pc.link.drop_prob = 0.05;
  pc.link.duplicate_prob = 0.03;
  pc.link.max_jitter_us = 300;
  const FaultPlan plan = FaultPlan::Generate(pc, plan_seed);
  FaultInjector injector(&cluster, plan, RangeMapFactory(config));
  InvariantMonitor monitor;
  injector.set_monitor(&monitor);

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = Mix64(plan_seed ^ 0x5c5bULL);
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 8, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(120));
  driver.Start();

  if (options.no_stall) {
    // Start a seeded consolidation-style migration wave early so the
    // plan's crash can land while chunks are mid-flight.
    injector.RunUntil(MsToSim(15));
    const Key lo = Mix64(plan_seed ^ 0x6d1eULL) %
                   (config.num_records - 1'500);
    const NodeId target =
        static_cast<NodeId>(Mix64(plan_seed ^ 0x3a7fULL) % config.num_nodes);
    cluster.SubmitMigrationPlan({{lo, lo + 1'199, target}});
  }
  injector.RunUntil(MsToSim(120));
  injector.Drain();

  monitor.CheckQuiescent(cluster, RangeMapFactory(config), "final");

  std::vector<uint64_t> recovery_us;
  for (const fault::RecoveryStats& r : injector.recoveries()) {
    recovery_us.push_back(r.time_to_recover_us());
  }
  const engine::DegradedLedger& ledger = cluster.degraded_ledger();
  Profile p;
  p.Hex("digest", cluster.decision_digest().value())
      .Hex("placement", cluster.placement_digest().value())
      .Hex("checksum", cluster.StateChecksum())
      .Count("commits", cluster.metrics().total_commits());
  const auto link = [&] {
    p.Count("dropped", cluster.wire().messages_dropped())
        .Count("dup", cluster.wire().messages_duplicated());
  };
  const auto degraded = [&] {
    p.Hex("retry_digest", ledger.RetryDigest())
        .Count("retries", ledger.transcript().size())
        .Count("parked", ledger.parked_total())
        .Count("watchdog", ledger.watchdog_aborts());
  };
  // Each mode prints its own fault path's counters first.
  if (options.no_stall) {
    degraded();
    p.List("recovery_us", recovery_us);
    link();
  } else {
    link();
    p.List("recovery_us", recovery_us);
    degraded();
  }
  p.Count("count", cluster.decision_digest().count())
      .Count("aborts", cluster.metrics().total_aborts());
  if (options.traced) AddTrace(p, cluster);
  p.monitors_ok = monitor.ok();
  p.report = monitor.FailureReport();
  return p;
}

Profile RunHealthy(bool traced) {
  ClusterConfig config;
  config.num_nodes = 3;
  config.num_records = 6'000;
  config.hermes.fusion_table_capacity = 250;
  config.migration_chunk_records = 300;
  config.obs.trace_enabled = traced;
  Cluster cluster(config, RouterKind::kHermes, RangeMapFactory(config)());
  cluster.Load();

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 20'260'805;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 8, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(300));
  driver.Start();

  cluster.RunUntil(MsToSim(100));
  cluster.AddNode({{0, config.num_records / 4 - 1, 3}},
                  /*migrate_cold=*/true);
  cluster.RunUntil(MsToSim(300));
  cluster.Drain();

  Profile p;
  AddTrace(p, cluster);
  p.Hex("decision", cluster.decision_digest().value());
  return p;
}

ClusterConfig DegradedConfig() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 8'000;
  config.hermes.fusion_table_capacity = 300;
  return config;
}

FaultPlan NoStallPlan(const ClusterConfig& config, uint64_t seed) {
  FaultPlanConfig pc;
  pc.horizon_us = MsToSim(300);
  pc.num_nodes = config.num_nodes;
  pc.crash_cycles = 1;
  pc.min_outage_us = MsToSim(30);
  pc.max_outage_us = MsToSim(80);
  pc.no_stall = true;
  return FaultPlan::Generate(pc, seed);
}

ClusterConfig PartitionConfig() {
  ClusterConfig config;
  config.num_nodes = 3;
  config.num_records = 6'000;
  config.hermes.fusion_table_capacity = 250;
  config.detector.enabled = true;
  config.replication.enabled = true;
  config.obs.trace_enabled = true;
  return config;
}

ClusterConfig LeaseConfig() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 4'000;
  config.hermes.fusion_table_capacity = 200;
  config.replication.enabled = true;
  config.replication.replicas = 3;
  config.replication.read_hot_threshold = 2;
  config.replication.write_revoke_threshold = 32;
  config.replication.max_leases = 256;
  return config;
}

const std::vector<Scenario>& Scenarios() {
  static const std::vector<Scenario> kScenarios = {
      {.name = "decision",
       .run = [](uint64_t) { return RunDecision(); },
       .profile_seed = 1,
       .guards = {Above("commits", 100), Above("migrations", 0),
                  Above("count", 1'000)}},
      {.name = "chaos",
       .run = [](uint64_t seed) { return RunChaos(seed); },
       .profile_seed = kChaosSeedBase + 1000,
       .corpus = SeedRange(kChaosSeedBase, 25),
       .guards = {Above("commits", 50), kRecovered},
       .corpus_guards = {{"link chaos fired", {"dropped", "dup"}}}},
      {.name = "degraded",
       .run =
           [](uint64_t seed) { return RunChaos(seed, {.no_stall = true}); },
       .profile_seed = kChaosSeedBase + 2000,
       .corpus = SeedRange(kChaosSeedBase, 25),
       .guards = {Above("commits", 50), kRecovered},
       .corpus_guards = {{"a plan blocked, parked or watchdog-aborted",
                          {"retries", "parked", "watchdog"}}}},
      {.name = "degraded_retry",
       .run = RunDegradedRetry,
       .profile_seed = 31,
       .guards = {Above("retries", 0)}},
      {.name = "trace",
       .run = RunTrace,
       .profile_seed = kTraceHealthySeed,
       .corpus = {kChaosSeedBase, kTraceDegradedSeed},
       .guards = {{"a healthy trace holds over 1000 events",
                   [](const Profile& p) {
                     return Faulted(p) || p.Get("events") > 1'000;
                   }},
                  {"a faulted trace holds over 100 events, crash and "
                   "rejoin among them",
                   [](const Profile& p) {
                     const std::string& json = p.Text("trace_json");
                     return !Faulted(p) || (p.Get("events") > 100 &&
                                            Contains(json, "\"crash\"") &&
                                            Contains(json, "\"rejoin\""));
                   }},
                  {"the Chrome export is a closed trace_event container",
                   [](const Profile& p) {
                     const std::string& json = p.Text("trace_json");
                     return json.rfind("{\"traceEvents\":[", 0) == 0 &&
                            Contains(json, "\"otherData\"");
                   }}}},
      {.name = "replication",
       .run = [](uint64_t) { return RunReplication(); },
       .profile_seed = 1,
       .guards = {Above("commits", 200), Above("grants", 0),
                  Above("replica_reads", 0)}},
      {.name = "partition",
       .run = RunPartition,
       .profile_seed = kPartitionSeedBase + 3000,
       .corpus = SeedRange(kPartitionSeedBase, 25),
       .guards = {Above("commits", 50),
                  {"no payload crossed a live cut",
                   [](const Profile& p) {
                     return p.Get("cut_deliveries") == 0;
                   }},
                  {"every suspicion was restored",
                   [](const Profile& p) {
                     return p.Get("suspects") == p.Get("restores");
                   }}},
       .corpus_guards = {{"a payload parked in a holding pen", {"held"}},
                         {"the detector suspected a node", {"suspects"}}}},
      {.name = "net",
       .run = [](uint64_t) { return RunNet(); },
       .profile_seed = 1,
       .guards = {Above("commits", 50), Above("envelopes", 0),
                  Above("fg_tx", 0), Above("stalls", 0),
                  {"an envelope carried more than one message",
                   [](const Profile& p) {
                     return p.Get("coalesced") > p.Get("envelopes");
                   }}}},
  };
  return kScenarios;
}

}  // namespace hermes::oracle
