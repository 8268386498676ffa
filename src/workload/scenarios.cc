#include "workload/scenarios.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <tuple>
#include <utility>

#include "fault/invariant_monitor.h"
#include "migration/provisioning.h"
#include "partition/partition_map.h"
#include "routing/schism_partitioner.h"
#include "workload/client.h"
#include "workload/google_trace.h"

namespace hermes::workload {
namespace {

// ---- Values: one text form per field type. ----

constexpr const char* kWorkloadNames[] = {"google", "ycsb", "tpcc",
                                          "multitenant"};
constexpr const char* kPlacementNames[] = {"range", "hash", "warehouse",
                                           "skewed", "schism"};
constexpr const char* kEvictionNames[] = {"fifo", "lru"};
constexpr const char* kStepNames[] = {"add", "remove", "crash", "rejoin",
                                      "cut", "heal",   "migrate"};

// Fig. 13's skewed placement puts the first 7 of 16 tenants on node 0.
constexpr int kSkewedTenants = 7;
// Schism trains on this many requests spread over its window, at least 1 us
// apart.
constexpr SimTime kSchismSamples = 20'000;

template <typename T>
std::string FormatValue(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "1" : "0";
  } else {
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    return std::string(buf, end);
  }
}

template <typename T>
bool ParseValue(std::string_view text, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    *out = text == "1";
    return text == "1" || text == "0";
  } else {
    T value{};
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size()) return false;
    *out = value;
    return true;
  }
}

/// Times print in the largest exact unit of s, ms and us, and parse only
/// with a unit (zero prints and parses bare).
std::string FormatTime(SimTime t) {
  if (t != 0 && t % SecToSim(1) == 0) return FormatValue(t / SecToSim(1)) + "s";
  if (t != 0 && t % MsToSim(1) == 0) return FormatValue(t / MsToSim(1)) + "ms";
  return FormatValue(t) + (t != 0 ? "us" : "");
}

bool ParseTime(std::string_view text, SimTime* out) {
  SimTime unit = 1;
  if (text.ends_with("ms")) {
    unit = MsToSim(1);
    text.remove_suffix(2);
  } else if (text.ends_with("us")) {
    text.remove_suffix(2);
  } else if (text.ends_with("s")) {
    unit = SecToSim(1);
    text.remove_suffix(1);
  } else if (text != "0") {
    return false;
  }
  SimTime value = 0;
  if (!ParseValue(text, &value) || value > kSimTimeMax / unit) return false;
  *out = value * unit;
  return true;
}

template <typename E, size_t N>
bool ParseName(std::string_view text, const char* const (&names)[N], E* out) {
  for (size_t i = 0; i < N; ++i) {
    if (text != names[i]) continue;
    *out = static_cast<E>(i);
    return true;
  }
  return false;
}

/// `text` cut at every `sep` (a trailing `sep` adds no empty part).
std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  while (!text.empty()) {
    const size_t at = std::min(text.find(sep), text.size());
    parts.push_back(text.substr(0, at));
    text.remove_prefix(std::min(at + 1, text.size()));
  }
  return parts;
}

bool TakesNode(Step::Kind kind) {
  return kind != Step::Kind::kAdd && kind != Step::Kind::kMigrate;
}

bool TakesMoves(Step::Kind kind) {
  return kind == Step::Kind::kAdd || kind == Step::Kind::kRemove ||
         kind == Step::Kind::kMigrate;
}

// steps: verb@time[:node][:lo-hi>target+...][:hot] joined by ','.
std::string FormatSteps(const std::vector<Step>& steps) {
  std::string text;
  for (const Step& step : steps) {
    if (!text.empty()) text += ',';
    text += std::string(kStepNames[static_cast<int>(step.kind)]) + "@" +
            FormatTime(step.at);
    if (TakesNode(step.kind)) text += ":" + FormatValue(step.node);
    for (size_t i = 0; i < step.moves.size(); ++i) {
      const RangeMove& m = step.moves[i];
      text += i == 0 ? ':' : '+';
      text += FormatValue(m.lo) + "-" + FormatValue(m.hi) + ">" +
              FormatValue(m.target);
    }
    if (!step.migrate_cold) text += ":hot";
  }
  return text;
}

bool ParseMove(std::string_view text, RangeMove* m) {
  const size_t dash = text.find('-');
  const size_t arrow = text.find('>');
  return dash < arrow && arrow != std::string_view::npos &&
         ParseValue(text.substr(0, dash), &m->lo) &&
         ParseValue(text.substr(dash + 1, arrow - dash - 1), &m->hi) &&
         ParseValue(text.substr(arrow + 1), &m->target) && m->lo <= m->hi;
}

bool ParseStep(std::string_view text, Step* step) {
  const std::vector<std::string_view> parts = Split(text, ':');
  if (parts.empty()) return false;
  const size_t at = parts[0].find('@');
  if (at == std::string_view::npos ||
      !ParseName(parts[0].substr(0, at), kStepNames, &step->kind) ||
      !ParseTime(parts[0].substr(at + 1), &step->at)) {
    return false;
  }
  size_t next = 1;
  if (TakesNode(step->kind) &&
      (next == parts.size() || !ParseValue(parts[next++], &step->node))) {
    return false;
  }
  if (TakesMoves(step->kind) && next < parts.size() && parts[next] != "hot") {
    for (std::string_view move : Split(parts[next++], '+')) {
      if (!ParseMove(move, &step->moves.emplace_back())) return false;
    }
  }
  if (next < parts.size() && parts[next] == "hot" &&
      step->kind != Step::Kind::kMigrate && TakesMoves(step->kind)) {
    step->migrate_cold = false;
    ++next;
  }
  return next == parts.size() &&
         (step->kind == Step::Kind::kRemove || !TakesMoves(step->kind) ||
          !step->moves.empty());
}

bool ParseSteps(std::string_view text, std::vector<Step>* out) {
  std::vector<Step> steps;
  for (std::string_view part : Split(text, ',')) {
    if (!ParseStep(part, &steps.emplace_back())) return false;
  }
  *out = std::move(steps);
  return true;
}

// ---- Keys: every field of the line format, in print order. ----

struct Key {
  std::string name;
  std::function<std::string(const Scenario&)> format;
  std::function<bool(std::string_view, Scenario&)> parse;
};

// `ref` is a generic lambda returning a reference to the field of a const
// or mutable Scenario.
template <typename Ref>
Key Num(std::string name, Ref ref) {
  return {std::move(name),
          [ref](const Scenario& s) { return FormatValue(ref(s)); },
          [ref](std::string_view text, Scenario& s) {
            return ParseValue(text, &ref(s));
          }};
}

template <typename Ref>
Key Time(std::string name, Ref ref) {
  return {std::move(name),
          [ref](const Scenario& s) { return FormatTime(ref(s)); },
          [ref](std::string_view text, Scenario& s) {
            return ParseTime(text, &ref(s));
          }};
}

template <typename Ref, size_t N>
Key Name(std::string name, Ref ref, const char* const (&names)[N]) {
  return {std::move(name),
          [ref, &names](const Scenario& s) {
            return std::string(names[static_cast<int>(ref(s))]);
          },
          [ref, &names](std::string_view text, Scenario& s) {
            return ParseName(text, names, &ref(s));
          }};
}

// A key named after its field path: KEY(Num, ycsb.seed) is `ycsb.seed`,
// CONFIG(Num, costs.record_bytes) is config.costs.record_bytes; a Name key
// adds its names table.
#define KEY(kind, path, ...) \
  kind(#path, [](auto& s) -> auto& { return s.path; } __VA_OPT__(, ) \
           __VA_ARGS__)
#define CONFIG(kind, path, ...) \
  kind(#path, [](auto& s) -> auto& { return s.config.path; } __VA_OPT__(, ) \
           __VA_ARGS__)

const std::vector<Key>& Keys() {
  static const std::vector<Key>* keys = new std::vector<Key>{
      KEY(Name, router, engine::kRouterKindNames),
      KEY(Name, workload, kWorkloadNames),
      KEY(Name, placement, kPlacementNames),
      KEY(Time, schism_from),
      KEY(Time, schism_to),
      KEY(Num, clay),
      Time("clay.monitor_window_us",
           [](auto& s) -> auto& { return s.clay_config.monitor_window_us; }),
      Num("clay.overload_slack",
          [](auto& s) -> auto& { return s.clay_config.overload_slack; }),
      Num("clay.range_size",
          [](auto& s) -> auto& { return s.clay_config.range_size; }),
      KEY(Num, clients),
      KEY(Time, horizon),
      KEY(Time, window),
      // ClusterConfig (sim.threads is a stub Validate pins to 0).
      CONFIG(Num, num_nodes),
      CONFIG(Num, workers_per_node),
      CONFIG(Time, epoch_us),
      CONFIG(Num, max_batch_size),
      CONFIG(Num, num_records),
      CONFIG(Num, seed),
      CONFIG(Time, costs.storage_op_us),
      CONFIG(Time, costs.txn_logic_us),
      CONFIG(Time, costs.txn_logic_per_record_us),
      CONFIG(Time, costs.msg_processing_us),
      CONFIG(Time, costs.net_latency_us),
      CONFIG(Num, costs.net_us_per_byte),
      CONFIG(Num, costs.record_bytes),
      CONFIG(Num, costs.message_overhead_bytes),
      CONFIG(Time, costs.total_order_us),
      CONFIG(Time, costs.route_linear_us),
      CONFIG(Num, hermes.alpha),
      CONFIG(Num, hermes.fusion_table_capacity),
      CONFIG(Name, hermes.eviction_policy, kEvictionNames),
      CONFIG(Num, hermes.enable_reorder),
      CONFIG(Num, hermes.enable_rebalance),
      CONFIG(Num, hermes.backward_pass),
      CONFIG(Num, migration_chunk_records),
      CONFIG(Num, ollp_stale_prob),
      CONFIG(Num, detector.enabled),
      CONFIG(Num, replication.enabled),
      CONFIG(Num, replication.replicas),
      CONFIG(Num, replication.read_hot_threshold),
      CONFIG(Num, replication.write_revoke_threshold),
      CONFIG(Num, replication.window_batches),
      CONFIG(Num, replication.max_leases),
      CONFIG(Num, net.enabled),
      CONFIG(Num, net.bytes_per_us),
      CONFIG(Num, net.link_credit_bytes),
      CONFIG(Time, net.coalesce_window_us),
      CONFIG(Num, net.coalesce_max_bytes),
      CONFIG(Num, obs.trace_enabled),
      // Workloads.
      KEY(Num, ycsb.distributed_ratio),
      KEY(Num, ycsb.rw_ratio),
      KEY(Num, ycsb.zipf_theta),
      KEY(Num, ycsb.global_zipf_theta),
      KEY(Num, ycsb.length_mean),
      KEY(Num, ycsb.length_stddev),
      KEY(Time, ycsb.hotspot_cycle_us),
      KEY(Num, ycsb.seed),
      KEY(Num, tpcc.num_warehouses),
      KEY(Num, tpcc.items),
      KEY(Num, tpcc.customers_per_district),
      KEY(Num, tpcc.order_slots_per_warehouse),
      KEY(Num, tpcc.remote_stock_ratio),
      KEY(Num, tpcc.remote_customer_ratio),
      KEY(Num, tpcc.hotspot_concentration),
      KEY(Num, tpcc.new_order_ratio),
      KEY(Num, tpcc.seed),
      KEY(Num, mt.tenants_per_node),
      KEY(Num, mt.records_per_tenant),
      KEY(Num, mt.zipf_theta),
      KEY(Num, mt.hot_fraction),
      KEY(Time, mt.rotation_us),
      KEY(Num, mt.records_per_txn),
      KEY(Num, mt.seed),
      // Faults.
      KEY(Num, faults.crash_cycles),
      KEY(Time, faults.min_outage_us),
      KEY(Time, faults.max_outage_us),
      KEY(Num, faults.no_stall),
      KEY(Num, faults.partition_cycles),
      KEY(Time, faults.min_partition_us),
      KEY(Time, faults.max_partition_us),
      KEY(Num, faults.one_way_fraction),
      KEY(Num, faults.gray),
      KEY(Num, faults.gray_drop_prob),
      KEY(Time, faults.gray_extra_delay_us),
      KEY(Num, faults.gray_heartbeat_drop_prob),
      KEY(Num, faults.link.drop_prob),
      KEY(Num, faults.link.duplicate_prob),
      KEY(Time, faults.link.max_jitter_us),
      KEY(Time, faults.link.retransmit_delay_us),
      KEY(Num, faults.link.max_drops_per_message),
      KEY(Num, plan_seed),
      Key{"steps",
          [](const Scenario& s) { return FormatSteps(s.steps); },
          [](std::string_view text, Scenario& s) {
            return ParseSteps(text, &s.steps);
          }},
  };
  return *keys;
}

#undef KEY
#undef CONFIG

// ---- The registry: one line per entry, over "default" or an earlier
// entry. ----

struct Entry {
  const char* name;
  const char* line;
};

constexpr Entry kEntries[] = {
    // The complex Google workload (§5.2.2) at simulator scale: the paper's
    // 20 servers, 200M records and 3-day trace shrink to 10 nodes, 100k
    // records and twelve 4 s windows; the fusion table holds 2.5% of the
    // database (EXPERIMENTS.md has the scale factors).
    {"google",
     "default workload=google clay.monitor_window_us=4s clay.range_size=500 "
     "clients=2500 horizon=48s window=4s num_nodes=10 workers_per_node=2 "
     "num_records=100000 hermes.fusion_table_capacity=2500 ycsb.seed=42"},
    // Fig. 11: TPC-C on 16 warehouses over 8 nodes; Clay moves clumps of
    // 1/16 warehouse, small enough that moving one off the hot node does
    // not just relocate the hot spot.
    {"tpcc",
     "default workload=tpcc placement=warehouse clay.monitor_window_us=2s "
     "clay.range_size=1000 clients=1600 horizon=16s window=6s num_nodes=8 "
     "workers_per_node=2 hermes.fusion_table_capacity=6404 "
     "tpcc.num_warehouses=16"},
    // Fig. 12: 4 tenants per node, the hot node rotating every 15 s
    // (scaled from the paper's 500 s).
    {"multitenant",
     "default workload=multitenant clay.monitor_window_us=3s "
     "clay.range_size=5000 clients=800 horizon=60s window=2s "
     "workers_per_node=2 hermes.fusion_table_capacity=10000 "
     "mt.records_per_tenant=25000 mt.rotation_us=15s"},
    // Fig. 14: a 4th node joins a 3-node cluster at t=15 s and takes the
    // hot tenant (a quarter of node 0's keys); fusion table 5% of the
    // database.
    {"scaleout",
     "multitenant clients=700 num_nodes=3 hermes.fusion_table_capacity=15000 "
     "migration_chunk_records=500 mt.hot_fraction=0.5 "
     "mt.rotation_us=100000s steps=add@15s:0-24999>3"},
    // Consolidation (§3.3): node 3 of 4 leaves at t=15 s.
    {"consolidation",
     "multitenant clients=600 horizon=45s hermes.fusion_table_capacity=16000 "
     "migration_chunk_records=500 mt.records_per_tenant=20000 "
     "mt.hot_fraction=0.4 mt.rotation_us=100000s steps=remove@15s:3"},
    // The read-heavy skewed YCSB shape, written once here for the lines
    // and once as ReadHeavySkewedYcsb (workload/ycsb.h) for the ledger,
    // which builds its workloads without scenarios: 95% of transactions
    // only read, and 90% reach into a global hot set that never moves.
    {"readheavy",
     "default ycsb.distributed_ratio=0.9 ycsb.rw_ratio=0.05 "
     "ycsb.zipf_theta=0.6 ycsb.global_zipf_theta=0.99 ycsb.length_mean=4 "
     "ycsb.hotspot_cycle_us=86400s"},
    // bench_replication: readheavy with replica leases, behind an
    // in-memory store and a commodity RPC stack where receiving and
    // deserializing a record shipment costs an order of magnitude more
    // worker time than the storage op itself. That is the regime replica
    // leases target: a remote read's storage op merely moves between
    // nodes, so the whole saving is the message handling.
    {"readhot",
     "readheavy clients=1200 horizon=6s workers_per_node=2 num_records=10000 "
     "costs.storage_op_us=15us costs.txn_logic_us=60us "
     "costs.txn_logic_per_record_us=10us costs.msg_processing_us=200us "
     "hermes.fusion_table_capacity=250 replication.enabled=1 "
     "replication.replicas=4 replication.read_hot_threshold=1 "
     "replication.write_revoke_threshold=32 replication.max_leases=4096 "
     "ycsb.seed=42"},
    // bench_fault_recovery's flags: two crash/rejoin cycles, two partition
    // cycles and link chaos over 12 s; the bench derives its four modes.
    {"recovery",
     "default clients=64 horizon=12s num_records=20000 "
     "hermes.fusion_table_capacity=500 detector.enabled=1 ycsb.seed=1337 "
     "faults.crash_cycles=2 faults.min_outage_us=200ms "
     "faults.max_outage_us=800ms faults.no_stall=1 faults.partition_cycles=2 "
     "faults.one_way_fraction=0.25 faults.link.drop_prob=0.02 "
     "faults.link.duplicate_prob=0.01 faults.link.max_jitter_us=300us "
     "plan_seed=2026"},
    // The digest oracle's lifetimes (tests/digest_oracle.cc). decision:
    // skewed YCSB with a small fusion table, a scale-out with cold chunk
    // migration and a scale-in consolidation.
    {"decision",
     "default clients=16 horizon=1500ms num_nodes=3 num_records=12000 "
     "hermes.fusion_table_capacity=300 migration_chunk_records=250 "
     "ycsb.seed=20260805 steps=add@400ms:0-2999>3,remove@900ms:3:0-2999>0"},
    // One crash/rejoin cycle plus link chaos (plan seed 20260000).
    {"chaos",
     "default horizon=120ms num_nodes=3 num_records=6000 "
     "hermes.fusion_table_capacity=250 ycsb.seed=8512181751617799814 "
     "faults.crash_cycles=1 faults.min_outage_us=10ms "
     "faults.max_outage_us=40ms faults.link.drop_prob=0.05 "
     "faults.link.duplicate_prob=0.03 faults.link.max_jitter_us=300us "
     "plan_seed=20260000"},
    // A kCrashNoStall cycle on 4 nodes; the retry transcript is pinned.
    {"degraded_retry",
     "default clients=10 horizon=300ms num_records=8000 "
     "hermes.fusion_table_capacity=300 ycsb.seed=5383389965799068743 "
     "faults.crash_cycles=1 faults.min_outage_us=30ms "
     "faults.max_outage_us=80ms faults.no_stall=1 plan_seed=31"},
    // Healthy YCSB plus a mid-run scale-out.
    {"healthy",
     "default horizon=300ms num_nodes=3 num_records=6000 "
     "hermes.fusion_table_capacity=250 migration_chunk_records=300 "
     "ycsb.seed=20260805 steps=add@100ms:0-1499>3"},
    // Leased read-heavy YCSB; node 3 crashes at 150 ms and rejoins at
    // 180 ms, lapsing every lease.
    {"replication",
     "readheavy clients=16 horizon=300ms num_records=4000 "
     "hermes.fusion_table_capacity=200 replication.enabled=1 "
     "replication.read_hot_threshold=2 replication.write_revoke_threshold=32 "
     "replication.max_leases=256 ycsb.seed=23 "
     "steps=crash@150ms:3,rejoin@180ms:3"},
    // One partition cycle (40% one-way) and one overlapping no-stall crash
    // on a disjoint victim, with the detector, replica leases and tracing
    // on. Windows are long enough (>= 10 ms against a 2.5 ms heartbeat,
    // miss threshold 3) that the detector converts each cut into
    // membership epochs and restores them after the heal.
    {"partition",
     "chaos detector.enabled=1 replication.enabled=1 obs.trace_enabled=1 "
     "ycsb.seed=2690458573828395389 faults.no_stall=1 "
     "faults.partition_cycles=1 faults.min_partition_us=15ms "
     "faults.max_partition_us=45ms faults.one_way_fraction=0.4 "
     "plan_seed=20270000"},
    // Bounded links, envelope coalescing and credit backpressure under the
    // leased workload: a credit window tight enough that migration
    // envelopes stall behind their own deliveries, leased-key write
    // fan-out as the bulk stream that coalesces, a scale-out at 150 ms
    // (link growth while envelopes are in flight) and a two-sided cut of
    // node 2 from 220 ms to 260 ms.
    {"net",
     "replication clients=24 horizon=400ms num_records=6000 "
     "hermes.fusion_table_capacity=250 migration_chunk_records=250 "
     "net.enabled=1 net.link_credit_bytes=8192 obs.trace_enabled=1 "
     "ycsb.seed=20260808 steps=add@150ms:0-1499>4,cut@220ms:2,heal@260ms:2"},
    // determinism_test: YCSB on 4 nodes for 1 s.
    {"determinism", "default clients=24 num_records=20000 ycsb.seed=1234"},
};

// ---- Running. ----

/// The synthetic Google trace, built once per shape and shared by every
/// run in the process (it is a pure function of its config).
const SyntheticGoogleTrace& SharedTrace(int machines, SimTime window_us,
                                        int windows) {
  using Shape = std::tuple<int, SimTime, int>;
  static auto* traces =
      new std::map<Shape, std::unique_ptr<SyntheticGoogleTrace>>();
  auto& trace = (*traces)[Shape{machines, window_us, windows}];
  if (trace == nullptr) {
    GoogleTraceConfig config;
    config.num_machines = machines;
    config.window_us = window_us;
    config.num_windows = windows;
    trace = std::make_unique<SyntheticGoogleTrace>(config);
  }
  return *trace;
}

/// `s` with every derived field filled in: the workloads follow the
/// cluster's shape, and config.num_records follows a tpcc or multitenant
/// workload.
Scenario Resolved(Scenario s) {
  s.ycsb.num_records = s.config.num_records;
  s.ycsb.num_partitions = s.config.num_nodes;
  if (s.workload == Workload::kGoogle) s.ycsb.hotspot_cycle_us = s.horizon;
  s.tpcc.num_nodes = s.mt.num_nodes = s.config.num_nodes;
  if (s.workload == Workload::kTpcc) {
    s.config.num_records = TpccWorkload(s.tpcc).num_records();
  } else if (s.workload == Workload::kMultiTenant) {
    s.config.num_records = MultiTenantWorkload(s.mt).num_records();
  }
  return s;
}

/// The trace a google scenario weights its partitions by, else null.
const SyntheticGoogleTrace* TraceOf(const Scenario& s) {
  if (s.workload != Workload::kGoogle) return nullptr;
  return &SharedTrace(s.config.num_nodes, s.window,
                      static_cast<int>(s.horizon / s.window));
}

/// Schism trained offline on [schism_from, schism_to) of the resolved
/// scenario's own workload, reseeded so the training trace differs from
/// the live one.
std::unique_ptr<partition::PartitionMap> TrainSchism(const Scenario& s) {
  YcsbConfig wl = s.ycsb;
  wl.seed = 999;
  YcsbWorkload gen(wl, TraceOf(s));
  const uint64_t records = s.config.num_records;
  routing::SchismPartitioner schism(records,
                                    std::max<uint64_t>(records / 500, 1));
  const SimTime step = (s.schism_to - s.schism_from) / kSchismSamples;
  for (SimTime t = s.schism_from; t < s.schism_to; t += step) {
    schism.Observe(gen.Next(t));
  }
  return schism.Partition(s.config.num_nodes);
}

/// The request generator of the resolved scenario `s`.
ClosedLoopDriver::Generator MakeGenerator(const Scenario& s) {
  const auto next = [](auto gen) {
    return [gen](int, SimTime now) { return gen->Next(now); };
  };
  switch (s.workload) {
    case Workload::kTpcc:
      return next(std::make_shared<TpccWorkload>(s.tpcc));
    case Workload::kMultiTenant:
      return next(std::make_shared<MultiTenantWorkload>(s.mt));
    default:
      return next(std::make_shared<YcsbWorkload>(s.ycsb, TraceOf(s)));
  }
}

void Apply(const Step& step, engine::Cluster& cluster) {
  switch (step.kind) {
    case Step::Kind::kAdd:
      cluster.AddNode(step.moves, step.migrate_cold);
      break;
    case Step::Kind::kRemove: {
      std::vector<RangeMove> plan = step.moves;
      if (plan.empty()) {
        std::vector<NodeId> others;
        for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
          if (n != step.node) others.push_back(n);
        }
        plan = migration::PlanDrainNode(cluster.ownership(),
                                        cluster.config().num_records,
                                        step.node, others);
      }
      cluster.RemoveNode(step.node, plan, step.migrate_cold);
      break;
    }
    case Step::Kind::kCrash:
      cluster.CrashNoStall(step.node);
      break;
    case Step::Kind::kRejoin:
      cluster.RejoinNoStall(step.node);
      break;
    case Step::Kind::kCut:
      cluster.PartitionCut(step.node, /*cut_inbound=*/true,
                           /*cut_outbound=*/true);
      break;
    case Step::Kind::kHeal:
      cluster.PartitionHeal(step.node);
      break;
    case Step::Kind::kMigrate: {
      std::vector<routing::ClumpMove> moves;
      for (const RangeMove& m : step.moves) {
        moves.push_back({m.lo, m.hi, m.target});
      }
      cluster.SubmitMigrationPlan(moves);
      break;
    }
  }
}

/// The rules Parse and RunScenario add to ClusterConfig::Validate.
Status CheckScenario(const Scenario& s) {
  const auto bad = [](const char* key, const std::string& what) {
    return Status::InvalidArgument("key '" + std::string(key) + "': " + what);
  };
  const Status config = s.config.Validate();
  if (!config.ok()) {
    return Status::InvalidArgument("invalid config: " + config.message());
  }
  // Every workload config, whichever workload runs: a value its generator
  // cannot run with is refused before Resolved() builds one.
  const std::pair<const char*, Status> workloads[] = {
      {"ycsb.", s.ycsb.Validate()},
      {"tpcc.", s.tpcc.Validate()},
      {"mt.", s.mt.Validate()}};
  for (const auto& [prefix, status] : workloads) {
    if (!status.ok()) {
      return Status::InvalidArgument("invalid workload: " +
                                     std::string(prefix) + status.message());
    }
  }
  if (s.clients < 1) return bad("clients", "must be at least 1");
  // Nodes are never renumbered: an add appends one, a remove keeps its id.
  NodeId nodes = s.config.num_nodes;
  const uint64_t records =
      s.steps.empty() ? 0 : Resolved(s).config.num_records;
  SimTime last = 0;
  for (const Step& step : s.steps) {
    const std::string what = "step " + FormatSteps({step});
    if (step.at > s.horizon) {
      return bad("steps",
                 what + " is after the horizon " + FormatTime(s.horizon));
    }
    if (step.at < last) return bad("steps", what + " is out of time order");
    last = step.at;
    if (step.kind == Step::Kind::kAdd) ++nodes;
    bool known = !TakesNode(step.kind) || (step.node >= 0 && step.node < nodes);
    for (const RangeMove& m : step.moves) {
      known = known && m.hi < records && m.target >= 0 && m.target < nodes;
    }
    if (!known) {
      return bad("steps", what + " names a node or key outside the " +
                              FormatValue(nodes) + "-node, " +
                              FormatValue(records) + "-record cluster");
    }
  }
  const Placement p = s.placement;
  const bool fits =
      p == Placement::kRange || p == Placement::kHash ||
      (p == Placement::kWarehouse && s.workload == Workload::kTpcc) ||
      (p == Placement::kSkewed && s.workload == Workload::kMultiTenant &&
       s.config.num_nodes >= 2 &&
       s.config.num_nodes * s.mt.tenants_per_node > kSkewedTenants) ||
      (p == Placement::kSchism && s.workload <= Workload::kYcsb);
  if (!fits) return bad("placement", "does not fit the workload");
  if (p == Placement::kSchism &&
      (s.schism_to < s.schism_from ||
       s.schism_to - s.schism_from < kSchismSamples)) {
    return bad("schism_to", "the training window must span at least " +
                                FormatTime(kSchismSamples));
  }
  if (s.window == 0) return bad("window", "must be positive");
  if (s.workload == Workload::kGoogle && s.horizon < s.window) {
    return bad("window", "a google trace window must be at most the horizon");
  }
  return Status::Ok();
}

/// Parse over `registry` (Registry() itself parses its entries so).
Status ParseOver(const std::vector<Scenario>& registry,
                 std::string_view line, Scenario* out) {
  std::vector<std::string_view> words = Split(line, ' ');
  std::erase(words, std::string_view());
  if (words.empty()) return Status::InvalidArgument("empty scenario line");
  const auto base = std::find_if(
      registry.begin(), registry.end(),
      [&](const Scenario& s) { return s.base == words[0]; });
  if (base == registry.end()) {
    return Status::InvalidArgument("unknown base '" + std::string(words[0]) +
                                   "'");
  }
  Scenario s = *base;
  for (size_t i = 1; i < words.size(); ++i) {
    const size_t eq = words[i].find('=');
    const std::string_view name = words[i].substr(0, eq);
    const auto key =
        std::find_if(Keys().begin(), Keys().end(),
                     [&](const Key& k) { return k.name == name; });
    if (key == Keys().end()) {
      return Status::InvalidArgument("unknown key '" + std::string(name) +
                                     "'");
    }
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("key '" + key->name + "' has no value");
    }
    const std::string_view value = words[i].substr(eq + 1);
    if (!key->parse(value, s)) {
      return Status::InvalidArgument("key '" + key->name +
                                     "': malformed value '" +
                                     std::string(value) + "'");
    }
  }
  Status status = CheckScenario(s);
  if (status.ok()) *out = std::move(s);
  return status;
}

}  // namespace

std::string Scenario::ToString() const {
  const Scenario& from = Registered(base);
  std::string line = base;
  for (const Key& key : Keys()) {
    const std::string value = key.format(*this);
    if (value != key.format(from)) line += " " + key.name + "=" + value;
  }
  return line;
}

Status Scenario::Parse(std::string_view line, Scenario* out) {
  return ParseOver(Registry(), line, out);
}

bool Scenario::faulted() const {
  return faults.crash_cycles > 0 || faults.partition_cycles > 0 ||
         faults.gray || faults.link.drop_prob > 0 ||
         faults.link.duplicate_prob > 0 || faults.link.max_jitter_us > 0;
}

fault::FaultPlan Scenario::Plan() const {
  fault::FaultPlanConfig plan = faults;
  plan.horizon_us = horizon;
  plan.num_nodes = config.num_nodes;
  return fault::FaultPlan::Generate(plan, plan_seed);
}

const std::vector<Scenario>& Registry() {
  static const std::vector<Scenario>* registry = [] {
    auto* entries = new std::vector<Scenario>(1);
    for (const Entry& entry : kEntries) {
      Scenario s;
      const Status status = ParseOver(*entries, entry.line, &s);
      if (!status.ok()) {
        std::fprintf(stderr, "registry entry %s: %s\n", entry.name,
                     status.message().c_str());
        std::abort();
      }
      s.base = entry.name;
      entries->push_back(std::move(s));
    }
    return entries;
  }();
  return *registry;
}

const Scenario& Registered(std::string_view name) {
  for (const Scenario& s : Registry()) {
    if (s.base == name) return s;
  }
  std::fprintf(stderr, "no registered scenario '%.*s'\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

Scenario MustParse(std::string_view line) {
  Scenario s;
  const Status status = Scenario::Parse(line, &s);
  if (!status.ok()) {
    std::fprintf(stderr, "bad scenario line '%.*s': %s\n",
                 static_cast<int>(line.size()), line.data(),
                 status.message().c_str());
    std::abort();
  }
  return s;
}

std::unique_ptr<partition::PartitionMap> MakePlacement(
    const Scenario& scenario) {
  const Scenario s = Resolved(scenario);
  switch (s.placement) {
    case Placement::kRange:
      return std::make_unique<partition::RangePartitionMap>(
          s.config.num_records, s.config.num_nodes);
    case Placement::kHash:
      return std::make_unique<partition::HashPartitionMap>(
          s.config.num_records, s.config.num_nodes);
    case Placement::kWarehouse:
      return TpccWorkload(s.tpcc).WarehousePartitioning();
    case Placement::kSkewed:
      return MultiTenantWorkload(s.mt).SkewedPartitioning(kSkewedTenants);
    case Placement::kSchism:
      return TrainSchism(s);
  }
  return nullptr;
}

DrainedRun RunScenario(const Scenario& scenario) {
  const Status status = CheckScenario(scenario);
  if (!status.ok()) {
    std::fprintf(stderr, "RunScenario(%s): %s\n", scenario.ToString().c_str(),
                 status.message().c_str());
    std::abort();
  }
  const Scenario s = Resolved(scenario);
  DrainedRun run;
  run.cluster =
      std::make_unique<engine::Cluster>(s.config, s.router, MakePlacement(s));
  engine::Cluster& cluster = *run.cluster;
  cluster.Load();
  if (s.clay) cluster.EnableClay(s.clay_config);

  const fault::MapFactory placement = [&s] { return MakePlacement(s); };
  fault::InvariantMonitor monitor;
  std::unique_ptr<fault::FaultInjector> injector;
  if (s.faulted()) {
    injector =
        std::make_unique<fault::FaultInjector>(&cluster, s.Plan(), placement);
    monitor.AttachTracer(&cluster.tracer());
    injector->set_monitor(&monitor);
  }

  ClosedLoopDriver driver(&cluster, s.clients, MakeGenerator(s));
  driver.set_stop_time(s.horizon);
  driver.Start();
  const auto run_until = [&](SimTime t) {
    if (injector) {
      injector->RunUntil(t);
    } else {
      cluster.RunUntil(t);
    }
  };
  for (const Step& step : s.steps) {
    run_until(step.at);
    Apply(step, cluster);
  }
  run_until(s.horizon);
  if (injector) {
    injector->Drain();
    monitor.CheckQuiescent(cluster, placement, "final");
    run.recoveries = injector->recoveries();
    run.partitions = injector->partitions();
  } else {
    cluster.Drain();
  }
  run.monitors_ok = monitor.ok();
  run.report = monitor.FailureReport();
  return run;
}

}  // namespace hermes::workload
