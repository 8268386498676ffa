#include "engine/node.h"

namespace hermes::engine {

Node::Node(NodeId id, sim::Simulator* sim, int num_workers,
           storage::RecordTable* records, storage::LockTable* locks)
    : id_(id),
      store_(records, id),
      locks_(locks, id),
      workers_(sim, num_workers, /*lane=*/static_cast<int>(id)) {}

}  // namespace hermes::engine
