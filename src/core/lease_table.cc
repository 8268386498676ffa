#include "core/lease_table.h"

#include <algorithm>

namespace hermes::core {

using routing::ReplicaOp;
using routing::ReplicaOpKind;

LeaseTable::Entry& LeaseTable::Touch(Key key) {
  if (key >= slot_of_.size()) slot_of_.resize(key + 1, kNoSlot);
  uint32_t& slot = slot_of_[key];
  if (slot == kNoSlot) {
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    Entry& e = entries_[slot];
    e.key = key;
    e.live = true;
  }
  Entry& e = entries_[slot];
  if (!e.touched) {
    e.touched = true;
    touched_.push_back(slot);
  }
  return e;
}

bool LeaseTable::GrantEligible(const Entry& e) const {
  // Same cost balance as the revoke side: don't grant a lease whose write
  // fan-out would already outweigh the reads it localizes.
  return e.reads >= config_->read_hot_threshold &&
         e.writes <= config_->write_revoke_threshold && e.writes < e.reads;
}

bool LeaseTable::RevokeDue(const Entry& e) const {
  // A lease pays for itself only while the remote reads it absorbs
  // outweigh the write fan-out it forces — and a fan-out apply rides the
  // already-sequenced batch stream (one storage op per holder) while every
  // absorbed read saves a full point-to-point shipment, several times
  // costlier. Revoke on the hard write threshold and on write parity
  // (writes >= reads) — a margin below the raw cost break-even, which buys
  // headroom for the install churn and stale-window fan-out the counters
  // don't see — with a writes >= 4 floor so a handful of stray writes
  // cannot churn a lease.
  return e.writes > config_->write_revoke_threshold ||
         (e.writes >= 4 && e.writes >= e.reads);
}

void LeaseTable::RefreshGrantable(const Entry& e) {
  if (e.holders.empty() && GrantEligible(e)) {
    grantable_.Set(e.key);
  } else {
    grantable_.Clear(e.key);
  }
}

void LeaseTable::DropLease(uint32_t slot, std::vector<ReplicaOp>* ops) {
  Entry& e = entries_[slot];
  for (NodeId holder : e.holders) {
    ReplicaOp op;
    op.key = e.key;
    op.node = holder;
    op.kind = ReplicaOpKind::kRevoke;
    ops->push_back(op);
  }
  e.holders.clear();
}

void LeaseTable::Decay() {
  window_reads_ /= 2;
  window_writes_ /= 2;
  for (uint32_t slot = 0; slot < entries_.size(); ++slot) {
    Entry& e = entries_[slot];
    if (!e.live) continue;
    e.reads /= 2;
    e.writes /= 2;
    e.touched = false;
    if (e.reads == 0 && e.writes == 0 && e.holders.empty()) {
      grantable_.Clear(e.key);
      slot_of_[e.key] = kNoSlot;
      e = Entry{};
      free_slots_.push_back(slot);
      continue;
    }
    RefreshGrantable(e);
  }
  // The sweep re-derived every entry; nothing is pending any more.
  touched_.clear();
}

void LeaseTable::BeginBatch(uint32_t membership_epoch, bool all_alive,
                            const std::vector<NodeId>& candidates,
                            const partition::OwnershipMap& ownership,
                            std::vector<ReplicaOp>* ops) {
  if (!enabled()) return;

  // Membership moved since the last batch: lapse everything. The engine
  // side lapses its copies at the transition itself (Cluster marks the
  // node down/up), so by the time these revokes dispatch they are mostly
  // bookkeeping — but they are what makes the *routing* state converge on
  // the same schedule in live and replayed runs.
  if (membership_epoch != last_epoch_) {
    last_epoch_ = membership_epoch;
    leased_.ForEach([&](Key key) {
      const uint32_t slot = slot_of_[key];
      DropLease(slot, ops);
      ++stats_.lapses;
      RefreshGrantable(entries_[slot]);
    });
    leased_.clear();
  }

  // Write-heavy revokes, in key order. No lease was due when last checked
  // (a grant meets the grant rule, which is disjoint from the revoke
  // rule), and between decays counters only grow, so only leased keys
  // observed since the last batch can newly be due. A decay window
  // halves every counter — which can tip write parity either way — so it
  // re-checks every lease.
  if (++batches_seen_ % config_->window_batches == 0) {
    // Window decay: halve every counter, dropping the ones that reach
    // zero, so stale popularity ages out instead of pinning leases
    // forever.
    Decay();
    leased_.ForEach([&](Key key) {
      const uint32_t slot = slot_of_[key];
      if (!RevokeDue(entries_[slot])) return;
      DropLease(slot, ops);
      ++stats_.revokes;
      leased_.Clear(key);
    });
  } else {
    due_.clear();
    for (uint32_t slot : touched_) {
      const Entry& e = entries_[slot];
      if (!e.holders.empty() && RevokeDue(e)) due_.emplace_back(e.key, slot);
    }
    std::sort(due_.begin(), due_.end());
    for (const auto& [key, slot] : due_) {
      DropLease(slot, ops);
      ++stats_.revokes;
      leased_.Clear(key);
    }
    for (uint32_t slot : touched_) {
      Entry& e = entries_[slot];
      e.touched = false;
      RefreshGrantable(e);
    }
    touched_.clear();
  }

  // Grants, in key order, while capacity lasts. Suppressed entirely while
  // any node is down: the copy source (or a would-be holder) could be the
  // dead node, and a lease that starts mid-outage would only lapse at the
  // rejoin epoch anyway.
  if (!all_alive || candidates.size() < 2) return;
  // Global read-mostly gate: when writes make up more than a third of the
  // observed window (counting every write access against only the remote
  // reads a lease could absorb), new leases cannot earn back their
  // install fan-out before the write stream invalidates them — stop
  // extending replication and let the revoke rules drain what is left.
  if (2 * window_writes_ >= window_reads_) return;
  const size_t max_holders = static_cast<size_t>(config_->replicas);
  grantable_.ForEach([&](Key key) {
    if (leased_.count() >= config_->max_leases) return false;
    Entry& e = entries_[slot_of_[key]];
    const NodeId primary = ownership.Owner(key);
    // The primary is always a holder: its "copy" snapshots the local
    // record for free, and it keeps the key locally readable at the old
    // home when a later write migrates the primary onto another holder
    // (without it, that node would fall back to remote ships for the
    // rest of the lease). Remaining slots go to the lowest-id alive
    // candidates.
    e.holders.push_back(primary);
    for (NodeId n : candidates) {
      if (n == primary) continue;
      if (e.holders.size() >= max_holders) break;
      e.holders.push_back(n);
    }
    if (e.holders.size() < 2) {
      e.holders.clear();  // stays grantable for a later batch
      return true;
    }
    std::sort(e.holders.begin(), e.holders.end());
    for (NodeId holder : e.holders) {
      ReplicaOp op;
      op.key = key;
      op.node = holder;
      op.source = primary;
      op.kind = ReplicaOpKind::kInstall;
      ops->push_back(op);
    }
    ++stats_.grants;
    leased_.Set(key);
    grantable_.Clear(key);
    return true;
  });
}

bool LeaseTable::IsHolder(Key key, NodeId node) const {
  if (key >= slot_of_.size() || slot_of_[key] == kNoSlot) return false;
  const std::vector<NodeId>& holders = entries_[slot_of_[key]].holders;
  return std::binary_search(holders.begin(), holders.end(), node);
}

void LeaseTable::Reset() {
  slot_of_.clear();
  entries_.clear();
  free_slots_.clear();
  touched_.clear();
  leased_.clear();
  grantable_.clear();
  window_reads_ = 0;
  window_writes_ = 0;
  batches_seen_ = 0;
  last_epoch_ = 0;
}

}  // namespace hermes::core
