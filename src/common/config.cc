#include "common/config.h"

namespace hermes {
namespace {

template <typename T>
Status Invalid(const char* field, const char* rule, T value) {
  return Status::InvalidArgument(std::string(field) + " must " + rule +
                                 ", got " + std::to_string(value));
}

}  // namespace

Status ClusterConfig::Validate() const {
  if (num_nodes < 1) return Invalid("num_nodes", "be at least 1", num_nodes);
  if (workers_per_node < 1) {
    return Invalid("workers_per_node", "be at least 1", workers_per_node);
  }
  if (epoch_us == 0) return Invalid("epoch_us", "be positive", epoch_us);
  if (num_records == 0) {
    return Invalid("num_records", "be positive", num_records);
  }
  if (migration_chunk_records == 0) {
    return Invalid("migration_chunk_records", "be positive",
                   migration_chunk_records);
  }
  if (!(ollp_stale_prob >= 0.0 && ollp_stale_prob <= 1.0)) {
    return Invalid("ollp_stale_prob", "lie in [0, 1]", ollp_stale_prob);
  }
  if (replication.replicas < 1) {
    return Invalid("replication.replicas", "be at least 1",
                   replication.replicas);
  }
  if (sim.threads != 0) {
    return Invalid("sim.threads", "be 0 (the simulator runs sequentially)",
                   sim.threads);
  }
  return Status::Ok();
}

}  // namespace hermes
