#ifndef HERMES_ENGINE_SEQUENCER_H_
#define HERMES_ENGINE_SEQUENCER_H_

#include <functional>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "txn/transaction.h"

namespace hermes::engine {

/// The sequencing layer (§2.1): client requests accumulate per epoch; at
/// each epoch boundary the pending requests form a batch that the
/// total-order protocol (a Zab-style leader, modeled as a fixed round-trip
/// cost) stamps with a batch id and delivers to every scheduler replica.
///
/// The prototype collapses the per-node sequencers into one logical queue:
/// requests already arrive tagged with their entry node (home_sequencer),
/// and the leader would interleave per-node sub-batches deterministically
/// anyway, so a single queue ordered by arrival is an equivalent model.
class Sequencer {
 public:
  using BatchCallback = std::function<void(Batch&&)>;

  Sequencer(sim::Simulator* sim, const ClusterConfig* config,
            BatchCallback on_sequenced);

  Sequencer(const Sequencer&) = delete;
  Sequencer& operator=(const Sequencer&) = delete;

  /// Enqueues a request (assigning its transaction id in arrival order)
  /// and arms the next epoch cut if none is pending.
  void Submit(TxnRequest&& txn);

  /// Stops cutting batches: submissions keep accumulating (and keep their
  /// arrival-order transaction ids) but never enter the total order until
  /// Resume(). The fault injector pauses intake while a crashed node
  /// recovers — requests pending at a pause are NOT covered by checkpoints
  /// taken during the stall, exactly like requests a real sequencer has
  /// received but not yet run through the total-order protocol.
  void Pause() { paused_ = true; }

  /// Resumes batch cutting, arming an epoch cut if requests are pending.
  void Resume() {
    paused_ = false;
    ArmEpochCut();
  }

  bool paused() const { return paused_; }

  /// Batches sequenced so far; the next batch gets this id.
  BatchId next_batch_id() const { return next_batch_id_; }
  TxnId next_txn_id() const { return next_txn_id_; }

  /// Restores id counters from a checkpoint.
  void RestoreCounters(BatchId next_batch, TxnId next_txn) {
    next_batch_id_ = next_batch;
    next_txn_id_ = next_txn;
  }

  size_t pending() const { return pending_.size() - head_; }

 private:
  void ArmEpochCut();
  void CutBatch();

  sim::Simulator* sim_;
  const ClusterConfig* config_;
  BatchCallback on_sequenced_;
  /// Arrival-order queue; the requests before `head_` were already cut.
  /// The cut prefix is erased once it is at least half the vector, which
  /// keeps the capacity (a steady load queues requests without
  /// allocating) and moves each request at most once more under a
  /// max_batch_size backlog.
  std::vector<TxnRequest> pending_;
  size_t head_ = 0;
  BatchId next_batch_id_ = 0;
  TxnId next_txn_id_ = 0;
  bool cut_armed_ = false;
  bool paused_ = false;
};

}  // namespace hermes::engine

#endif  // HERMES_ENGINE_SEQUENCER_H_
