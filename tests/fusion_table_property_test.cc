// Model-based property test: FusionTable against straightforward
// reference implementations of LRU and FIFO bounded key sets, under random
// operation sequences.

#include <algorithm>
#include <list>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/fusion_table.h"

namespace hermes::core {
namespace {

/// Reference bounded key set: an explicit list of keys kept deliberately
/// naive (O(n) operations) so its correctness is obvious.
class ReferenceTable {
 public:
  ReferenceTable(size_t capacity, EvictionPolicy policy)
      : capacity_(capacity), policy_(policy) {}

  bool Contains(Key key) const {
    return std::find(order_.begin(), order_.end(), key) != order_.end();
  }

  void Touch(Key key) {
    if (Contains(key) && policy_ == EvictionPolicy::kLru) MoveToBack(key);
  }

  void Put(Key key, const std::vector<Key>& kept, std::vector<Key>* evicted) {
    if (!Contains(key)) {
      order_.push_back(key);
    } else if (policy_ == EvictionPolicy::kLru) {
      MoveToBack(key);
    }
    if (capacity_ == 0) return;
    for (auto it = order_.begin();
         order_.size() > capacity_ && it != order_.end();) {
      if (std::find(kept.begin(), kept.end(), *it) != kept.end()) {
        ++it;
        continue;
      }
      evicted->push_back(*it);
      it = order_.erase(it);
    }
  }

  void Erase(Key key) { order_.remove(key); }

  size_t size() const { return order_.size(); }
  std::vector<Key> Order() const { return {order_.begin(), order_.end()}; }

 private:
  void MoveToBack(Key key) {
    order_.remove(key);
    order_.push_back(key);
  }

  size_t capacity_;
  EvictionPolicy policy_;
  std::list<Key> order_;  // front = next eviction victim
};

struct Param {
  size_t capacity;
  EvictionPolicy policy;
  uint64_t seed;
};

class FusionTablePropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(FusionTablePropertyTest, MatchesReferenceModel) {
  const auto [capacity, policy, seed] = GetParam();
  FusionTable table(capacity, policy);
  ReferenceTable reference(capacity, policy);
  Rng rng(seed);
  constexpr Key kKeySpace = 64;  // small space: plenty of collisions

  for (int step = 0; step < 4000; ++step) {
    const Key key = rng.NextBounded(kKeySpace);
    const int op = static_cast<int>(rng.NextBounded(10));
    if (op < 5) {
      // Keep (pin) up to three random keys, sometimes the put key itself.
      std::vector<Key> kept;
      const auto num_kept = rng.NextBounded(4);
      for (uint64_t i = 0; i < num_kept; ++i) {
        kept.push_back(rng.NextBounded(kKeySpace));
      }
      const auto keep = [&kept](Key k) {
        return std::find(kept.begin(), kept.end(), k) != kept.end();
      };
      std::vector<Key> ev1, ev2;
      table.Put(key, keep, &ev1);
      reference.Put(key, kept, &ev2);
      ASSERT_EQ(ev1, ev2) << "step " << step;
    } else if (op < 8) {
      if (op == 5) {
        table.Touch(key);
        reference.Touch(key);
      }
      ASSERT_EQ(table.Contains(key), reference.Contains(key))
          << "step " << step;
    } else {
      table.Erase(key);
      reference.Erase(key);
    }
    ASSERT_EQ(table.size(), reference.size()) << "step " << step;
    ASSERT_EQ(table.ExportOrder(), reference.Order()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, FusionTablePropertyTest,
    ::testing::Values(Param{8, EvictionPolicy::kLru, 1},
                      Param{8, EvictionPolicy::kFifo, 2},
                      Param{1, EvictionPolicy::kLru, 3},
                      Param{1, EvictionPolicy::kFifo, 4},
                      Param{32, EvictionPolicy::kLru, 5},
                      Param{0, EvictionPolicy::kLru, 6}),
    [](const auto& info) {
      const auto& p = info.param;
      return std::string(p.policy == EvictionPolicy::kLru ? "Lru" : "Fifo") +
             "Cap" + std::to_string(p.capacity) + "Seed" +
             std::to_string(p.seed);
    });

}  // namespace
}  // namespace hermes::core
