#ifndef HERMES_WORKLOAD_SCENARIOS_H_
#define HERMES_WORKLOAD_SCENARIOS_H_

// Scenarios (DESIGN.md §4 "Scenarios"): one value describes one run — the
// cluster config, router, workload, initial placement, clients, horizon,
// fault plan and timed steps — and prints as one line:
//
//   <base> key=value key=value ...
//
// where <base> names a registry entry and the keys list only the fields
// that differ from it, e.g. `google router=calvin clay=1` or
// `chaos plan_seed=20260007 ycsb.seed=1234`. Parse() reads such a line
// back; RunScenario() builds, loads, drives and drains the cluster. A new
// run is a registry entry or a line, not another hand-built ClusterConfig.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/cluster.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "routing/clay_planner.h"
#include "workload/multitenant.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace hermes::workload {

/// The request generator a scenario drives.
enum class Workload {
  kGoogle,       ///< YCSB weighted by the synthetic Google trace (§5.2.2)
  kYcsb,         ///< YCSB with uniform partition weights
  kTpcc,         ///< New-Order + Payment (§5.3.1)
  kMultiTenant,  ///< rotating hot tenant (§5.3.2)
};

/// The initial partitioning a scenario loads.
enum class Placement {
  kRange,      ///< num_records split into num_nodes equal ranges (for the
               ///< multi-tenant workload: each tenant on one node)
  kHash,       ///< keys scattered by hash
  kWarehouse,  ///< TPC-C warehouses, whole blocks per node
  kSkewed,     ///< multi-tenant: Fig. 13's first 7 tenants on node 0
  kSchism,     ///< Schism trained offline on [schism_from, schism_to)
};

/// One timed action, applied between events once virtual time reaches
/// `at`. Printed as `verb@time[:node][:lo-hi>target+...][:hot]`.
struct Step {
  enum class Kind {
    kAdd,      ///< AddNode(moves) — the moves name the new node
    kRemove,   ///< RemoveNode(node, moves); no moves drains it round-robin
    kCrash,    ///< CrashNoStall(node)
    kRejoin,   ///< RejoinNoStall(node)
    kCut,      ///< PartitionCut(node), both directions
    kHeal,     ///< PartitionHeal(node)
    kMigrate,  ///< SubmitMigrationPlan(moves)
  };
  SimTime at = 0;
  Kind kind = Kind::kAdd;
  NodeId node = kInvalidNode;
  std::vector<RangeMove> moves;
  /// Add/remove: move the plan's cold ranges by chunk transactions
  /// (false, printed `:hot`, moves only hot data via the fusion table).
  bool migrate_cold = true;

  bool operator==(const Step&) const = default;
};

/// One run. Fields the workload derives are noted; every other field is a
/// key of the line format (see Keys in scenarios.cc), so a scenario equals
/// the parse of its printed line.
struct Scenario {
  /// The registry entry this scenario is a delta of.
  std::string base = "default";
  ClusterConfig config;
  engine::RouterKind router = engine::RouterKind::kHermes;
  Workload workload = Workload::kYcsb;
  /// num_records and num_partitions follow config. Under kGoogle the
  /// hotspot cycle is the horizon.
  YcsbConfig ycsb;
  /// num_nodes follows config; config.num_records follows the workload.
  TpccConfig tpcc;
  /// num_nodes follows config; config.num_records follows the workload.
  MultiTenantConfig mt;
  Placement placement = Placement::kRange;
  SimTime schism_from = 0;
  SimTime schism_to = 0;
  bool clay = false;
  routing::ClayConfig clay_config;
  int clients = 8;
  SimTime horizon = SecToSim(1);
  /// Reporting window: the first one is warm-up, and under kGoogle the
  /// trace advances one window per window.
  SimTime window = SecToSim(1);
  /// horizon_us and num_nodes follow the scenario. No crash, partition,
  /// gray window or link chaos means no fault injector.
  fault::FaultPlanConfig faults = [] {
    fault::FaultPlanConfig none;
    none.crash_cycles = 0;
    return none;
  }();
  uint64_t plan_seed = 0;
  std::vector<Step> steps;

  /// `base key=value...`, listing only the keys that differ from base.
  std::string ToString() const;
  /// Reads a line: the registry entry named by its first word, then each
  /// key in order. Rejects an unknown base or key, a malformed value, a
  /// config ClusterConfig::Validate refuses, steps after the horizon, out
  /// of time order or naming a node or key the cluster lacks, a zero
  /// window and a Schism window under 20 ms; each error names the key.
  /// `out` is untouched on error.
  static Status Parse(std::string_view line, Scenario* out);

  /// Whether RunScenario drives this scenario through a FaultInjector.
  bool faulted() const;
  /// The fault plan this scenario's faults and plan_seed generate.
  fault::FaultPlan Plan() const;

  bool operator==(const Scenario&) const = default;
};

/// The registry: every named base, in registration order. The first entry
/// is "default", a Scenario{}.
const std::vector<Scenario>& Registry();
/// The entry `name`; aborts when there is none (a typo in code).
const Scenario& Registered(std::string_view name);
/// Parses `line`; aborts with the parse error (a typo in code).
Scenario MustParse(std::string_view line);

/// A drained run.
struct DrainedRun {
  std::unique_ptr<engine::Cluster> cluster;
  /// The injector's record of each crash/rejoin and cut/heal cycle.
  std::vector<fault::RecoveryStats> recoveries;
  std::vector<fault::PartitionStats> partitions;
  /// The invariant monitors' verdict and failure report (faulted runs).
  bool monitors_ok = true;
  std::string report;
};

/// Builds, loads, drives and drains the scenario's cluster; aborts on a
/// scenario Parse would reject. A faulted scenario runs through a
/// FaultInjector and ends with one InvariantMonitor::CheckQuiescent.
DrainedRun RunScenario(const Scenario& scenario);

/// The initial partitioning `scenario` loads (also the map a fault
/// injector's rebuild starts from).
std::unique_ptr<partition::PartitionMap> MakePlacement(
    const Scenario& scenario);

}  // namespace hermes::workload

#endif  // HERMES_WORKLOAD_SCENARIOS_H_
