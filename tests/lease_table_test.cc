// Differential test: core::LeaseTable decides grants and revokes from the
// keys observed since the last batch (plus one sweep per decay window or
// lapse). ReferenceLeaseTable below is the straightforward full-scan
// version — every lease re-checked and every counter walked in key order
// at every batch boundary. Both consume identical seeded observation
// streams; after every batch their ReplicaOp vectors, stats, lease counts
// and holder answers must match exactly, under two hash salts, across
// decay windows, capacities, thresholds, membership-epoch lapses, outages,
// candidate sets of one to four nodes and the read-mostly gate switching.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/rng.h"
#include "core/lease_table.h"
#include "digest_oracle.h"
#include "partition/partition_map.h"

namespace hermes::core {
namespace {

using partition::OwnershipMap;
using partition::RangePartitionMap;
using routing::ReplicaOp;
using routing::ReplicaOpKind;

/// The full-scan lease table: std::map counters and leases, every lease
/// and every counter visited at every batch boundary.
class ReferenceLeaseTable {
 public:
  explicit ReferenceLeaseTable(const ReplicationConfig* config)
      : config_(config) {}

  void BeginBatch(uint32_t membership_epoch, bool all_alive,
                  const std::vector<NodeId>& candidates,
                  const OwnershipMap& ownership, std::vector<ReplicaOp>* ops) {
    if (membership_epoch != last_epoch_) {
      last_epoch_ = membership_epoch;
      for (const auto& [key, holders] : leases_) {
        EmitRevokeAll(key, holders, ops);
        ++stats_.lapses;
      }
      leases_.clear();
    }
    if (++batches_seen_ % std::max<uint64_t>(config_->window_batches, 1) ==
        0) {
      window_reads_ /= 2;
      window_writes_ /= 2;
      for (auto it = counters_.begin(); it != counters_.end();) {
        it->second.reads /= 2;
        it->second.writes /= 2;
        if (it->second.reads == 0 && it->second.writes == 0) {
          it = counters_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto it = leases_.begin(); it != leases_.end();) {
      const auto cit = counters_.find(it->first);
      const uint32_t reads = cit == counters_.end() ? 0 : cit->second.reads;
      const uint32_t writes = cit == counters_.end() ? 0 : cit->second.writes;
      if (writes > config_->write_revoke_threshold ||
          (writes >= 4 && writes >= reads)) {
        EmitRevokeAll(it->first, it->second, ops);
        ++stats_.revokes;
        it = leases_.erase(it);
      } else {
        ++it;
      }
    }
    if (!all_alive || candidates.size() < 2) return;
    if (2 * window_writes_ >= window_reads_) return;
    for (const auto& [key, c] : counters_) {
      if (leases_.size() >= config_->max_leases) break;
      if (c.reads < config_->read_hot_threshold) continue;
      if (c.writes > config_->write_revoke_threshold) continue;
      if (c.writes >= c.reads) continue;
      if (leases_.count(key) > 0) continue;
      const NodeId primary = ownership.Owner(key);
      std::vector<NodeId> holders = {primary};
      for (NodeId n : candidates) {
        if (n == primary) continue;
        if (holders.size() >= static_cast<size_t>(config_->replicas)) break;
        holders.push_back(n);
      }
      if (holders.size() < 2) continue;
      std::sort(holders.begin(), holders.end());
      for (NodeId holder : holders) {
        ReplicaOp op;
        op.key = key;
        op.node = holder;
        op.source = primary;
        op.kind = ReplicaOpKind::kInstall;
        ops->push_back(op);
      }
      ++stats_.grants;
      leases_.emplace(key, std::move(holders));
    }
  }

  void ObserveRead(Key key) {
    ++counters_[key].reads;
    ++window_reads_;
  }
  void ObserveWrite(Key key) {
    ++counters_[key].writes;
    ++window_writes_;
  }

  bool IsHolder(Key key, NodeId node) const {
    const auto it = leases_.find(key);
    return it != leases_.end() &&
           std::binary_search(it->second.begin(), it->second.end(), node);
  }
  size_t num_leases() const { return leases_.size(); }
  const LeaseTable::Stats& stats() const { return stats_; }

  void Reset() {
    counters_.clear();
    leases_.clear();
    window_reads_ = 0;
    window_writes_ = 0;
    batches_seen_ = 0;
    last_epoch_ = 0;
  }

 private:
  struct KeyCounters {
    uint32_t reads = 0;
    uint32_t writes = 0;
  };

  static void EmitRevokeAll(Key key, const std::vector<NodeId>& holders,
                            std::vector<ReplicaOp>* ops) {
    for (NodeId holder : holders) {
      ReplicaOp op;
      op.key = key;
      op.node = holder;
      op.kind = ReplicaOpKind::kRevoke;
      ops->push_back(op);
    }
  }

  const ReplicationConfig* config_;
  std::map<Key, KeyCounters> counters_;
  std::map<Key, std::vector<NodeId>> leases_;
  uint64_t window_reads_ = 0;
  uint64_t window_writes_ = 0;
  uint64_t batches_seen_ = 0;
  uint32_t last_epoch_ = 0;
  LeaseTable::Stats stats_;
};

constexpr int kNodes = 4;
constexpr int kBatches = 240;

std::vector<std::tuple<Key, NodeId, NodeId, int>> Fields(
    const std::vector<ReplicaOp>& ops) {
  std::vector<std::tuple<Key, NodeId, NodeId, int>> out;
  for (const ReplicaOp& op : ops) {
    out.emplace_back(op.key, op.node, op.source, static_cast<int>(op.kind));
  }
  return out;
}

std::vector<NodeId> RandomCandidates(Rng& rng) {
  std::vector<NodeId> out;
  while (out.empty()) {
    for (NodeId n = 0; n < kNodes; ++n) {
      if (rng.NextBounded(2) == 1) out.push_back(n);
    }
  }
  return out;
}

struct Totals {
  uint64_t grants = 0;
  uint64_t revokes = 0;
  uint64_t lapses = 0;
  uint64_t capped_batches = 0;  ///< batches ending at max_leases
};

/// Drives both tables through one seeded stream, adding its decision
/// counts to `*totals`.
void RunStream(const ReplicationConfig& config, uint64_t seed,
               Totals* totals) {
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << " window=" << config.window_batches
               << " max_leases=" << config.max_leases
               << " read_hot=" << config.read_hot_threshold
               << " write_revoke=" << config.write_revoke_threshold
               << " replicas=" << config.replicas);
  Rng rng(seed);
  const uint64_t num_keys = rng.NextBounded(2) == 0 ? 24 : 160;
  OwnershipMap ownership(
      std::make_unique<RangePartitionMap>(num_keys, kNodes));
  LeaseTable table;
  table.Configure(&config);
  ReferenceLeaseTable ref(&config);

  uint32_t epoch = 0;
  std::vector<NodeId> candidates = {0, 1, 2, 3};
  bool all_alive = true;
  double write_share = 0.05;
  for (int batch = 0; batch < kBatches; ++batch) {
    SCOPED_TRACE(::testing::Message() << "batch=" << batch);
    // Phase switches: the write share swings across the read-mostly gate,
    // outages come and go, the candidate set and membership epoch move.
    if (rng.NextBounded(16) == 0) {
      const double shares[] = {0.0, 0.05, 0.3, 0.6, 0.9};
      write_share = shares[rng.NextBounded(5)];
    }
    if (rng.NextBounded(12) == 0) all_alive = !all_alive;
    if (rng.NextBounded(10) == 0) candidates = RandomCandidates(rng);
    if (rng.NextBounded(25) == 0) ++epoch;
    if (rng.NextBounded(8) == 0) {
      ownership.SetKeyOwner(rng.NextBounded(num_keys),
                            static_cast<NodeId>(rng.NextBounded(kNodes)));
    }
    if (rng.NextBounded(150) == 0) {
      table.Reset();
      ref.Reset();
    }

    std::vector<ReplicaOp> got;
    std::vector<ReplicaOp> want;
    table.BeginBatch(epoch, all_alive, candidates, ownership, &got);
    ref.BeginBatch(epoch, all_alive, candidates, ownership, &want);
    ASSERT_EQ(Fields(got), Fields(want));
    ASSERT_EQ(table.num_leases(), ref.num_leases());
    ASSERT_EQ(table.stats().grants, ref.stats().grants);
    ASSERT_EQ(table.stats().revokes, ref.stats().revokes);
    ASSERT_EQ(table.stats().lapses, ref.stats().lapses);
    for (Key k = 0; k < num_keys; ++k) {
      for (NodeId n = 0; n < kNodes; ++n) {
        ASSERT_EQ(table.IsHolder(k, n), ref.IsHolder(k, n))
            << "key=" << k << " node=" << n;
      }
    }
    if (table.num_leases() == config.max_leases) ++totals->capped_batches;

    // The batch's observations: skewed toward low keys (min of two
    // draws), so some keys run hot while the tail decays away.
    const uint64_t accesses = rng.NextBounded(48);
    for (uint64_t i = 0; i < accesses; ++i) {
      const Key key =
          std::min(rng.NextBounded(num_keys), rng.NextBounded(num_keys));
      if (rng.NextDouble() < write_share) {
        table.ObserveWrite(key);
        ref.ObserveWrite(key);
      } else {
        table.ObserveRead(key);
        ref.ObserveRead(key);
      }
    }
  }
  totals->grants += table.stats().grants;
  totals->revokes += table.stats().revokes;
  totals->lapses += table.stats().lapses;
}

TEST(LeaseTableTest, MatchesFullScanReference) {
  Totals sum;
  for (uint64_t salt : {uint64_t{12345}, uint64_t{0xdeadbeef}}) {
    oracle::SaltGuard guard(salt);
    uint64_t seed = 1;
    for (uint64_t window : {1, 3, 8}) {
      for (size_t max_leases : {1, 8, 4096}) {
        for (uint32_t read_hot : {1, 2, 8}) {
          for (int rep = 0; rep < 2; ++rep, ++seed) {
            ReplicationConfig config;
            config.enabled = true;
            config.window_batches = window;
            config.max_leases = max_leases;
            config.read_hot_threshold = read_hot;
            config.write_revoke_threshold = rep == 0 ? 2 : 32;
            config.replicas = 1 + static_cast<int>(seed % kNodes);
            RunStream(config, seed, &sum);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
  // The streams really exercise every decision kind and the capacity cap.
  EXPECT_GT(sum.grants, 1000u);
  EXPECT_GT(sum.revokes, 100u);
  EXPECT_GT(sum.lapses, 100u);
  EXPECT_GT(sum.capped_batches, 100u);
}

}  // namespace
}  // namespace hermes::core
