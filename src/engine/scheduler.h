#ifndef HERMES_ENGINE_SCHEDULER_H_
#define HERMES_ENGINE_SCHEDULER_H_

#include <functional>

#include "common/digest.h"
#include "engine/executor.h"
#include "routing/router.h"
#include "sim/simulator.h"
#include "storage/command_log.h"
#include "txn/transaction.h"

namespace hermes::engine {

/// The scheduler stage (§2.1 / §3.1): receives totally ordered batches,
/// appends them to the command log, runs the (deterministic) routing
/// algorithm, and dispatches the routed transactions to the executors.
///
/// Every node runs an identical scheduler replica in parallel; since the
/// replicas produce byte-identical plans at identical times, the prototype
/// models them as one pipeline whose analysis cost delays dispatch — which
/// is exactly the per-node latency a real deployment would see.
class Scheduler {
 public:
  /// Resolves the commit callback registered for a transaction (null for
  /// synthesized transactions).
  using CallbackResolver =
      std::function<TxnExecutor::CommitCallback(const TxnRequest&)>;
  /// Degraded-mode classification hook, invoked after the batch is logged
  /// but before it is routed. May remove transactions that cannot run
  /// under the current membership (they are parked or retried by the
  /// cluster); the command log keeps the original batch, so a replay fed
  /// the same membership schedule reproduces the same filtering.
  using BatchFilter = std::function<void(BatchId, std::vector<TxnRequest>*)>;
  /// True when the batch filter may rewrite the next batch. While it is
  /// false the filter is skipped, and the batch is moved into the command
  /// log after routing rather than copied into it before.
  using FilterArmed = std::function<bool()>;

  /// Both digests are given or neither is. `digest` receives every routing
  /// decision (txn id, masters, per-access placement) the moment a batch
  /// is routed. `placement_digest` receives the same stream in the same
  /// pass — it backs `Cluster::placement_digest()`, a transcript of
  /// routing decisions only (no event-queue pops), which fault-injection
  /// monitors compare against a fault-free oracle replaying the same
  /// command log: chaos may perturb timing, but never what the router
  /// decided for a given batch stream.
  Scheduler(sim::Simulator* sim, routing::Router* router,
            TxnExecutor* executor, storage::CommandLog* command_log,
            CallbackResolver resolver,
            DecisionDigest* digest = nullptr,
            DecisionDigest* placement_digest = nullptr);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Handles one sequenced batch: log, route, dispatch after the modeled
  /// analysis cost. Must be called in batch order.
  void OnBatch(Batch&& batch);

  /// Routes transactions released from the degraded-mode parking queue.
  /// They were logged in their original batch, so this path skips the
  /// command log; the batch filter still runs (a release can re-park if
  /// another node is down). `release_id` tags the synthetic batch for the
  /// filter; it is NOT a command-log batch id.
  void RouteParked(BatchId release_id, std::vector<TxnRequest>&& txns);

  void set_batch_filter(BatchFilter filter, FilterArmed armed) {
    filter_ = std::move(filter);
    filter_armed_ = std::move(armed);
  }

  /// Installs the passive tracer (null = tracing off); the scheduler
  /// emits one kBatchRouted span per routed batch.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  SimTime busy_until() const { return busy_until_; }
  uint64_t batches_routed() const { return batches_routed_; }

 private:
  /// Shared tail of OnBatch / RouteParked: filter, route, digest,
  /// schedule dispatch after the modeled analysis (+ optional log) cost.
  void Process(Batch&& batch, bool log);

  sim::Simulator* sim_;
  routing::Router* router_;
  TxnExecutor* executor_;
  storage::CommandLog* command_log_;
  CallbackResolver resolver_;
  DecisionDigest* digest_;
  DecisionDigest* placement_digest_;
  BatchFilter filter_;
  FilterArmed filter_armed_;
  obs::Tracer* tracer_ = nullptr;
  SimTime busy_until_ = 0;
  uint64_t batches_routed_ = 0;
};

}  // namespace hermes::engine

#endif  // HERMES_ENGINE_SCHEDULER_H_
