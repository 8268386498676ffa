#ifndef HERMES_CORE_LEASE_TABLE_H_
#define HERMES_CORE_LEASE_TABLE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/config.h"
#include "common/key_bitset.h"
#include "common/types.h"
#include "routing/router.h"

namespace hermes::core {

/// Router-side replica-lease bookkeeping (DESIGN.md §5 "Replica leases").
///
/// The prescient router already sees every access of every batch before it
/// executes, so lease decisions can be made the same way routing decisions
/// are: as a pure function of the totally ordered batch stream and the
/// config. The table keeps windowed per-key read/write counters (fed from
/// Materialize), and at each batch boundary — before any transaction of
/// the batch routes — it grants leases to read-hot keys, revokes leases
/// that turned write-heavy, and lapses every lease when the membership
/// epoch moved. Grants, revokes and lapses come out as routing::ReplicaOp
/// entries attached to the batch's first routed transaction, so they ride
/// the dispatch order, fold into both digests, and replay exactly.
///
/// Cost: a batch boundary touches only the keys observed since the last
/// one, plus one sweep over every tracked key per decay window and one
/// walk of the leases per membership lapse.
/// Between decays counters only grow, and the grant and revoke rules are
/// disjoint, so a lease whose counters did not move cannot newly need a
/// revoke, and the grantable keys can be kept as an ordered set that
/// changes only for touched keys.
///
/// Storage: keys are dense, so the key -> entry index is a vector indexed
/// by key, and the leased and grantable sets are KeyBitsets; the entries
/// themselves live in a slot vector sized by the tracked keys.
///
/// Determinism: every walk that emits ops goes over a KeyBitset (ascending
/// key order) or the dense entry vector, never a salted table; holders
/// are the primary plus the lowest-id alive candidates; nothing here
/// consults hash order, wall clock, or any RNG. A command-log replay that
/// feeds the same batches and the same membership schedule reproduces
/// every decision bit-for-bit — which is what keeps placement_digest()
/// chaos-invariant with replication enabled.
class LeaseTable {
 public:
  /// Decision counters (monotonic; surfaced through HermesRouter::Stats).
  struct Stats {
    uint64_t grants = 0;
    uint64_t revokes = 0;  ///< write-heavy revokes (whole leases)
    uint64_t lapses = 0;   ///< membership-epoch lapses (whole leases)
  };

  /// Disabled until configured; a disabled table does nothing and costs a
  /// null check per call.
  void Configure(const ReplicationConfig* config) { config_ = config; }
  bool enabled() const { return config_ != nullptr && config_->enabled; }

  /// Batch-boundary evaluation, called once per routed batch in total
  /// order. `membership_epoch` is the router's current MembershipView
  /// epoch (0 when no view is installed); `all_alive` gates new grants
  /// (no new lease starts while a node is down — the copy source could be
  /// dead); `candidates` is the alive candidate node set in ascending
  /// order; `ownership` resolves the current primary of a key. Emitted ops
  /// are appended to `*ops` in deterministic (sorted key, then holder)
  /// order: lapses first, then write-heavy revokes, then grants.
  void BeginBatch(uint32_t membership_epoch, bool all_alive,
                  const std::vector<NodeId>& candidates,
                  const partition::OwnershipMap& ownership,
                  std::vector<routing::ReplicaOp>* ops);

  /// Access observations from Materialize (feed the next window).
  void ObserveRead(Key key) {
    if (enabled()) {
      ++Touch(key).reads;
      ++window_reads_;
    }
  }
  void ObserveWrite(Key key) {
    if (enabled()) {
      ++Touch(key).writes;
      ++window_writes_;
    }
  }

  /// True iff `node` currently holds a lease copy of `key`.
  bool IsHolder(Key key, NodeId node) const;

  size_t num_leases() const { return leased_.count(); }
  const Stats& stats() const { return stats_; }

  /// Drops all leases and counters without emitting ops (checkpoint
  /// restore: engine-side copies are lapsed the same way, so both sides
  /// restart cold and re-grant deterministically from the replayed stream).
  void Reset();

 private:
  /// One tracked key: its window counters and, while leased, its holders.
  /// A leased entry is never freed, even when its counters decay to zero
  /// (a missing counter reads as zero, so keeping it changes nothing).
  struct Entry {
    Key key = 0;
    uint32_t reads = 0;
    uint32_t writes = 0;
    std::vector<NodeId> holders;  ///< sorted ascending; empty = unleased
    bool live = false;            ///< slot in use (else on free_slots_)
    bool touched = false;         ///< observed since the last BeginBatch
  };

  /// slot_of_ value of an untracked key.
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  /// Entry of `key`, created on first sight, marked touched.
  Entry& Touch(Key key);
  /// Grant rule: read-hot, under the write threshold, writes < reads.
  bool GrantEligible(const Entry& e) const;
  /// Revoke rule: over the write threshold, or write parity past a floor
  /// of 4. Disjoint from GrantEligible.
  bool RevokeDue(const Entry& e) const;
  /// Re-derives whether `e` belongs in grantable_ (eligible, unleased).
  void RefreshGrantable(const Entry& e);
  /// Emits one revoke per holder and drops the lease (not the counters).
  void DropLease(uint32_t slot, std::vector<routing::ReplicaOp>* ops);
  /// Halves every counter, frees entries that reach zero, and refreshes
  /// the grantable set for the rest.
  void Decay();

  const ReplicationConfig* config_ = nullptr;
  /// key -> index into entries_, kNoSlot when untracked; grows to the
  /// largest key observed.
  std::vector<uint32_t> slot_of_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> free_slots_;
  /// Entries observed since the last BeginBatch, in first-touch order.
  std::vector<uint32_t> touched_;
  /// Leased keys.
  KeyBitset leased_;
  /// Grantable keys: every unleased entry that meets the grant rule.
  KeyBitset grantable_;
  /// BeginBatch scratch: touched leased entries that now meet the revoke
  /// rule, sorted by key before their revokes are emitted.
  std::vector<std::pair<Key, uint32_t>> due_;
  /// Aggregate window counters (decayed with the per-key ones): gate new
  /// grants on the workload being read-mostly overall, so a write-heavy
  /// phase does not keep paying install churn for leases that will never
  /// earn their fan-out back.
  uint64_t window_reads_ = 0;
  uint64_t window_writes_ = 0;
  uint64_t batches_seen_ = 0;
  uint32_t last_epoch_ = 0;
  Stats stats_;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_LEASE_TABLE_H_
