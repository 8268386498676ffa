#ifndef HERMES_STORAGE_COMMAND_LOG_H_
#define HERMES_STORAGE_COMMAND_LOG_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.h"
#include "txn/transaction.h"

namespace hermes::storage {

/// Command log (§4.3): the totally ordered stream of input batches. In a
/// deterministic system this log *is* the database — replaying it through
/// the (deterministic) router and executors from a checkpoint reproduces
/// the exact post-crash state, including fusion-table contents and
/// in-flight cold migrations. The prototype keeps the log in memory; the
/// scheduler charges kLogEntryUs per transaction for persistence.
class CommandLog {
 public:
  CommandLog() = default;

  CommandLog(const CommandLog&) = delete;
  CommandLog& operator=(const CommandLog&) = delete;

  void Append(const Batch& batch) { batches_.push_back(batch); }
  void Append(Batch&& batch) { batches_.push_back(std::move(batch)); }

  const std::vector<Batch>& batches() const { return batches_; }

  /// Batches with id >= `from`, for replay after restoring a checkpoint
  /// taken at batch watermark `from`.
  std::vector<Batch> Suffix(BatchId from) const;

  size_t size() const { return batches_.size(); }

 private:
  std::vector<Batch> batches_;
};

}  // namespace hermes::storage

#endif  // HERMES_STORAGE_COMMAND_LOG_H_
