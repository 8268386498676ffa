#ifndef HERMES_ENGINE_NODE_H_
#define HERMES_ENGINE_NODE_H_

#include <memory>

#include "common/types.h"
#include "sim/simulator.h"
#include "sim/worker_pool.h"
#include "storage/lock_manager.h"
#include "storage/record_store.h"
#include "storage/undo_log.h"

namespace hermes::engine {

/// One simulated server node: its data partition and lock queues (views of
/// the cluster-wide record and lock tables), undo log, and executor workers.
/// All engine data structures are real; only time (worker occupancy, wire
/// delays) is simulated.
class Node {
 public:
  Node(NodeId id, sim::Simulator* sim, int num_workers,
       storage::RecordTable* records, storage::LockTable* locks);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  storage::RecordStore& store() { return store_; }
  const storage::RecordStore& store() const { return store_; }
  storage::LockManager& locks() { return locks_; }
  storage::UndoLog& undo() { return undo_; }
  sim::WorkerPool& workers() { return workers_; }

 private:
  NodeId id_;
  storage::RecordStore store_;
  storage::LockManager locks_;
  storage::UndoLog undo_;
  sim::WorkerPool workers_;
};

}  // namespace hermes::engine

#endif  // HERMES_ENGINE_NODE_H_
