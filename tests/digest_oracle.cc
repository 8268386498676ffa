#include "digest_oracle.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "core/hermes_router.h"
#include "engine/cluster.h"
#include "net/wire.h"

namespace hermes::oracle {
namespace {

using engine::Cluster;
using workload::DrainedRun;
using workload::Registered;
using workload::Scenario;
using workload::Step;

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

Scenario Traced(Scenario s) {
  s.config.obs.trace_enabled = true;
  return s;
}

// chaos: a seeded crash/rejoin plan plus link chaos against seeded YCSB.
Scenario Chaos(uint64_t seed) {
  Scenario s = Registered("chaos");
  s.plan_seed = seed;
  s.ycsb.seed = Mix64(seed ^ 0x5c5bULL);
  return s;
}

// degraded: the chaos plan as kCrashNoStall, with a seeded chunk-migration
// wave started at 15 ms so the crash lands mid-chunk-migration; small
// chunks stretch the stream across the whole fault window.
Scenario Degraded(uint64_t seed) {
  Scenario s = Chaos(seed);
  s.faults.no_stall = true;
  s.config.migration_chunk_records = 300;
  const Key lo = Mix64(seed ^ 0x6d1eULL) % (s.config.num_records - 1'500);
  const auto target = static_cast<NodeId>(Mix64(seed ^ 0x3a7fULL) %
                                          s.config.num_nodes);
  s.steps = {{.at = MsToSim(15),
              .kind = Step::Kind::kMigrate,
              .moves = {{lo, lo + 1'199, target}}}};
  return s;
}

// degraded_retry: the whole degraded outcome — who was blocked, in which
// epoch, with which backoff, plus the final placements and state — is a
// pure function of (workload seed, plan seed, config).
Scenario DegradedRetry(uint64_t seed) {
  Scenario s = Registered("degraded_retry");
  s.plan_seed = seed;
  s.ycsb.seed = Mix64(seed ^ 0xdeadULL);
  return s;
}

// partition: every third seed adds a gray window on top.
Scenario Partition(uint64_t seed) {
  Scenario s = Registered("partition");
  s.plan_seed = seed;
  s.ycsb.seed = Mix64(seed ^ 0x9a17ULL);
  s.faults.gray = (seed % 3) == 0;
  return s;
}

// Fixed lifetimes ignore the seed.
std::function<Scenario(uint64_t)> Fixed(Scenario s) {
  return [s](uint64_t) { return s; };
}

Profile DecisionProfile(const Scenario&, const DrainedRun& run) {
  const Cluster& cluster = *run.cluster;
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

Profile ChaosProfile(const Scenario& s, const DrainedRun& run) {
  const Cluster& cluster = *run.cluster;
  std::vector<uint64_t> recovery_us;
  for (const fault::RecoveryStats& r : run.recoveries) {
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
  if (s.faults.no_stall) {
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
  if (s.config.obs.trace_enabled) AddTrace(p, cluster);
  return p;
}

Profile DegradedRetryProfile(const Scenario&, const DrainedRun& run) {
  const Cluster& cluster = *run.cluster;
  const engine::DegradedLedger& ledger = cluster.degraded_ledger();
  Profile p;
  p.Hex("retry_digest", ledger.RetryDigest())
      .Count("retries", ledger.transcript().size())
      .Count("parked", ledger.parked_total())
      .Count("watchdog", ledger.watchdog_aborts())
      .Hex("placement", cluster.placement_digest().value())
      .Hex("checksum", cluster.StateChecksum())
      .Count("commits", cluster.metrics().total_commits());
  return p;
}

Profile TraceProfile(const Scenario& s, const DrainedRun& run) {
  if (s.faulted()) return ChaosProfile(s, run);
  Profile p;
  AddTrace(p, *run.cluster);
  p.Hex("decision", run.cluster->decision_digest().value());
  return p;
}

Profile ReplicationProfile(const Scenario&, const DrainedRun& run) {
  const Cluster& cluster = *run.cluster;
  const core::HermesRouter& router = *cluster.hermes_router();
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

Profile PartitionProfile(const Scenario&, const DrainedRun& run) {
  const Cluster& cluster = *run.cluster;
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
  return p;
}

Profile NetProfile(const Scenario&, const DrainedRun& run) {
  const Cluster& cluster = *run.cluster;
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

Scenario TraceScenario(uint64_t seed) {
  if (seed == kTraceHealthySeed) return Traced(Registered("healthy"));
  return Traced(seed == kTraceDegradedSeed ? Degraded(seed) : Chaos(seed));
}

std::vector<uint64_t> SeedRange(uint64_t base, int n) {
  std::vector<uint64_t> seeds;
  for (int i = 0; i < n; ++i) seeds.push_back(base + i);
  return seeds;
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

Profile RunRow(const Row& row, uint64_t seed) {
  const Scenario scenario =
      workload::MustParse(row.scenario(seed).ToString());
  const DrainedRun run = workload::RunScenario(scenario);
  Profile p = row.profile(scenario, run);
  p.monitors_ok = run.monitors_ok;
  p.report = run.report;
  return p;
}

const std::vector<Row>& Rows() {
  static const std::vector<Row> kRows = {
      {.name = "decision",
       .scenario = Fixed(Registered("decision")),
       .profile = DecisionProfile,
       .profile_seed = 1,
       .guards = {Above("commits", 100), Above("migrations", 0),
                  Above("count", 1'000)}},
      {.name = "chaos",
       .scenario = Chaos,
       .profile = ChaosProfile,
       .profile_seed = kChaosSeedBase + 1000,
       .corpus = SeedRange(kChaosSeedBase, 25),
       .guards = {Above("commits", 50), kRecovered},
       .corpus_guards = {{"link chaos fired", {"dropped", "dup"}}}},
      {.name = "degraded",
       .scenario = Degraded,
       .profile = ChaosProfile,
       .profile_seed = kChaosSeedBase + 2000,
       .corpus = SeedRange(kChaosSeedBase, 25),
       .guards = {Above("commits", 50), kRecovered},
       .corpus_guards = {{"a plan blocked, parked or watchdog-aborted",
                          {"retries", "parked", "watchdog"}}}},
      {.name = "degraded_retry",
       .scenario = DegradedRetry,
       .profile = DegradedRetryProfile,
       .profile_seed = 31,
       .guards = {Above("retries", 0)}},
      {.name = "trace",
       .scenario = TraceScenario,
       .profile = TraceProfile,
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
       .scenario = Fixed(Traced(Registered("replication"))),
       .profile = ReplicationProfile,
       .profile_seed = 1,
       .guards = {Above("commits", 200), Above("grants", 0),
                  Above("replica_reads", 0)}},
      {.name = "partition",
       .scenario = Partition,
       .profile = PartitionProfile,
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
       .scenario = Fixed(Registered("net")),
       .profile = NetProfile,
       .profile_seed = 1,
       .guards = {Above("commits", 50), Above("envelopes", 0),
                  Above("fg_tx", 0), Above("stalls", 0),
                  {"an envelope carried more than one message",
                   [](const Profile& p) {
                     return p.Get("coalesced") > p.Get("envelopes");
                   }}}},
  };
  return kRows;
}

}  // namespace hermes::oracle
