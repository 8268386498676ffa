#ifndef HERMES_CORE_FUSION_TABLE_H_
#define HERMES_CORE_FUSION_TABLE_H_

#include <functional>
#include <list>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/digest.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "common/types.h"
#include "obs/trace.h"

namespace hermes::core {

/// The fusion table (§3.1, §4.1): a bounded lookup table of
/// (hot record key -> partition) pairs, logically replicated on every
/// scheduler. Replicas are never synchronized over the network — each
/// scheduler derives identical contents by running the deterministic
/// prescient routing over the same totally ordered input, so this class
/// must be strictly deterministic: eviction order is FIFO or LRU over an
/// explicit recency list, never hash-map iteration order.
///
/// When an insertion pushes the table past capacity, the eviction victims
/// are returned to the caller; the router appends them to the current
/// transaction's write-set so their records migrate back to their home
/// partitions (§4.1).
class FusionTable {
 public:
  /// `capacity` == 0 means unbounded (used by the LEAP baseline, which
  /// fuses without ever evicting).
  FusionTable(size_t capacity, EvictionPolicy policy);

  FusionTable(const FusionTable&) = delete;
  FusionTable& operator=(const FusionTable&) = delete;

  /// Current placement of `key`, if tracked. Under LRU, a hit refreshes
  /// the key's recency when `touch` is true (routing lookups touch;
  /// diagnostic reads must not).
  std::optional<NodeId> Lookup(Key key, bool touch);

  /// Read-only lookup (never perturbs recency).
  std::optional<NodeId> Peek(Key key) const;

  /// Inserts or updates `key -> node` and refreshes recency. Entries
  /// evicted to respect capacity are appended to `*evicted` (the freshly
  /// touched key is never its own victim).
  void Put(Key key, NodeId node, std::vector<Key>* evicted);

  /// Like Put, but keys in `pinned` are skipped as eviction victims (the
  /// router pins the current transaction's write-set: those records are
  /// mid-migration to the master and must not simultaneously be shipped
  /// home). If every entry is pinned the table temporarily overflows.
  void PutPinned(Key key, NodeId node, const HashSet<Key>& pinned,
                 std::vector<Key>* evicted);

  /// PutPinned over a sorted pinned-key span (binary-searched), so callers
  /// routing in a hot loop need not build a hash set per transaction.
  void PutPinned(Key key, NodeId node, std::span<const Key> sorted_pinned,
                 std::vector<Key>* evicted);

  /// Drops `key` (its record migrated back home or left with its node).
  void Erase(Key key);

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }

  /// Keys in eviction order (front = next victim), for checkpointing.
  std::vector<Key> ExportOrder() const;

  /// Rebuilds contents and order from a checkpoint: `entries` is the
  /// ownership overlay in ascending key order and holds every key of
  /// `order`.
  void Restore(const std::vector<std::pair<Key, NodeId>>& entries,
               const std::vector<Key>& order);

  /// Order-insensitive digest of the table contents; used by determinism
  /// tests to compare scheduler replicas.
  uint64_t Checksum() const;

  /// Attaches a decision digest: every eviction victim is mixed in, in
  /// eviction order (evictions are routing decisions — they append
  /// migration accesses to the current transaction's plan).
  void set_digest(DecisionDigest* digest) { digest_ = digest; }

  /// Attaches the passive tracer: evictions emit kFusionEvict events
  /// (write-only; no table or eviction decision reads tracer state).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Eviction eligibility filter (nullptr = everything evictable). Used
  /// by degraded mode: a key whose homeward migration would ship toward a
  /// dead node keeps its slot until that node rejoins. The filter must be
  /// a pure function of deterministic state (membership epoch + static
  /// homes), never of hash order or wall clock.
  void set_eviction_filter(std::function<bool(Key)> evictable) {
    evictable_ = std::move(evictable);
  }

 private:
  struct Entry {
    NodeId node;
    std::list<Key>::iterator pos;
  };

  void TouchEntry(Entry& entry, Key key);

  template <typename PinnedFn>
  void PutPinnedImpl(Key key, NodeId node, PinnedFn&& is_pinned,
                     std::vector<Key>* evicted);

  size_t capacity_;
  EvictionPolicy policy_;
  std::list<Key> order_;  // front = oldest / next eviction victim
  FlatMap<Key, Entry> entries_;
  DecisionDigest* digest_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::function<bool(Key)> evictable_;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_FUSION_TABLE_H_
