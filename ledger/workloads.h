#ifndef HERMES_LEDGER_WORKLOADS_H_
#define HERMES_LEDGER_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "engine/cluster.h"
#include "partition/partition_map.h"
#include "txn/transaction.h"
#include "workload/google_trace.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace hermes::ledger {

/// One ledger workload, fully set up: the cluster configuration, the
/// router, the closed-loop client count, the virtual horizon, and the
/// seeded generator (with the trace or partitioning it depends on). Built
/// fresh for every measured iteration, so generator state never leaks
/// from one iteration into the next.
struct Workload {
  ClusterConfig config;
  engine::RouterKind kind = engine::RouterKind::kHermes;
  int clients = 0;
  SimTime horizon = 0;
  /// txn_per_s counts commits in [warmup, horizon).
  SimTime warmup = 0;

  std::unique_ptr<workload::SyntheticGoogleTrace> trace;
  std::unique_ptr<workload::YcsbWorkload> ycsb;
  std::unique_ptr<workload::TpccWorkload> tpcc;

  TxnRequest Next(SimTime now) {
    return ycsb != nullptr ? ycsb->Next(now) : tpcc->Next(now);
  }

  /// Initial placement for a fresh cluster (callable more than once: the
  /// serial replay builds a second cluster from the same placement).
  std::unique_ptr<partition::PartitionMap> InitialPartitioning() const;
};

/// Names of the ledger workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` from `seed`; nullptr for an unknown name.
/// `sim_threads` sets config.sim.threads (0 = sequential oracle mode).
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int sim_threads);

}  // namespace hermes::ledger

#endif  // HERMES_LEDGER_WORKLOADS_H_
