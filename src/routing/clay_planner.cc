#include "routing/clay_planner.h"

#include <algorithm>

namespace hermes::routing {

ClayPlanner::ClayPlanner(const partition::OwnershipMap* ownership,
                         uint64_t num_records, ClayConfig config)
    : ownership_(ownership), config_(config) {
  range_heat_.reserve((num_records + config_.range_size - 1) /
                      config_.range_size);
}

void ClayPlanner::Observe(const TxnRequest& txn) {
  ++observed_;
  auto note = [&](Key k) {
    const auto range = static_cast<size_t>(k / config_.range_size);
    if (range >= range_heat_.size()) range_heat_.resize(range + 1, 0);
    ++range_heat_[range];
    const auto owner = static_cast<size_t>(ownership_->Owner(k));
    if (owner >= node_load_.size()) node_load_.resize(owner + 1, 0);
    ++node_load_[owner];
  };
  for (Key k : txn.read_set) note(k);
  for (Key k : txn.write_set) note(k);
}

std::vector<ClumpMove> ClayPlanner::MaybePlan(SimTime now, int num_nodes) {
  if (now - window_start_ < config_.monitor_window_us) return {};
  window_start_ = now;

  std::vector<ClumpMove> plan;
  if (observed_ == 0 || num_nodes <= 1) {
    range_heat_.clear();
    node_load_.clear();
    observed_ = 0;
    return plan;
  }

  // Identify hottest and coldest nodes from the window statistics. The
  // ascending scan with a strict `>` breaks load ties to the lowest node.
  uint64_t total = 0;
  for (uint64_t load : node_load_) total += load;
  const double avg = static_cast<double>(total) / num_nodes;

  NodeId hottest = 0;
  uint64_t hottest_load = 0;
  for (size_t node = 0; node < node_load_.size(); ++node) {
    if (node_load_[node] > hottest_load) {
      hottest = static_cast<NodeId>(node);
      hottest_load = node_load_[node];
    }
  }
  if (static_cast<double>(hottest_load) <= avg * (1.0 + config_.overload_slack)) {
    range_heat_.clear();
    node_load_.clear();
    observed_ = 0;
    return plan;
  }
  NodeId coldest = kInvalidNode;
  uint64_t coldest_load = UINT64_MAX;
  for (NodeId node = 0; node < num_nodes; ++node) {
    const uint64_t load = static_cast<size_t>(node) < node_load_.size()
                              ? node_load_[node]
                              : 0;
    if (load < coldest_load) {
      coldest = node;
      coldest_load = load;
    }
  }

  // Clump construction: the hottest node's ranges, hottest first, until
  // the predicted load excess is covered (or the coldest node would
  // itself become overloaded).
  std::vector<std::pair<uint64_t, uint64_t>> hot_ranges;  // (heat, range)
  for (uint64_t range = 0; range < range_heat_.size(); ++range) {
    const uint64_t heat = range_heat_[range];
    if (heat == 0) continue;  // untouched this window: never a clump
    if (ownership_->Owner(range * config_.range_size) == hottest) {
      hot_ranges.emplace_back(heat, range);
    }
  }
  std::sort(hot_ranges.begin(), hot_ranges.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  const auto excess = static_cast<uint64_t>(hottest_load - avg);
  uint64_t moved_heat = 0;
  uint64_t dest_load = coldest_load;
  for (const auto& [heat, range] : hot_ranges) {
    if (moved_heat >= excess) break;
    if (static_cast<double>(dest_load + heat) >
        avg * (1.0 + config_.overload_slack)) {
      continue;  // would just shift the hot spot; try a cooler clump
    }
    plan.push_back(ClumpMove{range * config_.range_size,
                             (range + 1) * config_.range_size - 1, coldest});
    moved_heat += heat;
    dest_load += heat;
  }
  if (!plan.empty()) ++plans_produced_;

  range_heat_.clear();
  node_load_.clear();
  observed_ = 0;
  return plan;
}

}  // namespace hermes::routing
