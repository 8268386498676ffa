#include "engine/sequencer.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>

namespace hermes::engine {

Sequencer::Sequencer(sim::Simulator* sim, const ClusterConfig* config,
                     BatchCallback on_sequenced)
    : sim_(sim), config_(config), on_sequenced_(std::move(on_sequenced)) {}

void Sequencer::Submit(TxnRequest&& txn) {
  txn.id = next_txn_id_++;
  pending_.push_back(std::move(txn));
  ArmEpochCut();
}

void Sequencer::ArmEpochCut() {
  if (paused_ || cut_armed_ || pending() == 0) return;
  cut_armed_ = true;
  // Cut at the next epoch boundary (lazy arming keeps an idle cluster's
  // event queue empty so simulations can drain).
  const SimTime epoch = config_->epoch_us;
  const SimTime next_boundary = ((sim_->Now() / epoch) + 1) * epoch;
  sim_->ScheduleAt(next_boundary, [this]() {
    cut_armed_ = false;
    if (paused_) return;  // Resume() re-arms
    CutBatch();
    ArmEpochCut();
  });
}

void Sequencer::CutBatch() {
  if (pending() == 0) return;
  Batch batch;
  batch.id = next_batch_id_++;
  const size_t limit = config_->max_batch_size == 0
                           ? pending()
                           : std::min(pending(), config_->max_batch_size);
  const auto first = pending_.begin() + static_cast<std::ptrdiff_t>(head_);
  head_ += limit;
  const auto last = pending_.begin() + static_cast<std::ptrdiff_t>(head_);
  batch.txns.assign(std::make_move_iterator(first),
                    std::make_move_iterator(last));
  if (2 * head_ >= pending_.size()) {
    pending_.erase(pending_.begin(), last);
    head_ = 0;
  }
  // Total ordering: one leader round trip before schedulers see the batch.
  const SimTime deliver_at = sim_->Now() + config_->costs.total_order_us;
  batch.sequenced_at = deliver_at;
  sim_->ScheduleAt(deliver_at, [this, batch = std::move(batch)]() mutable {
    on_sequenced_(std::move(batch));
  });
}

}  // namespace hermes::engine
