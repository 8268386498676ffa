#include "common/config.h"

namespace hermes {

Status ClusterConfig::Validate() const {
  if (num_nodes < 1) {
    return InvalidField("num_nodes", "be at least 1", num_nodes);
  }
  if (workers_per_node < 1) {
    return InvalidField("workers_per_node", "be at least 1",
                        workers_per_node);
  }
  if (epoch_us == 0) return InvalidField("epoch_us", "be positive", epoch_us);
  if (num_records == 0) {
    return InvalidField("num_records", "be positive", num_records);
  }
  if (migration_chunk_records == 0) {
    return InvalidField("migration_chunk_records", "be positive",
                        migration_chunk_records);
  }
  if (!(ollp_stale_prob >= 0.0 && ollp_stale_prob <= 1.0)) {
    return InvalidField("ollp_stale_prob", "lie in [0, 1]", ollp_stale_prob);
  }
  if (replication.replicas < 1) {
    return InvalidField("replication.replicas", "be at least 1",
                        replication.replicas);
  }
  if (replication.window_batches < 1) {
    return InvalidField("replication.window_batches", "be at least 1",
                        replication.window_batches);
  }
  if (sim.threads != 0) {
    return InvalidField("sim.threads",
                        "be 0 (the simulator runs sequentially)", sim.threads);
  }
  return Status::Ok();
}

}  // namespace hermes
