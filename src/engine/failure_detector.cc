#include "engine/failure_detector.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "engine/cluster.h"

namespace hermes::engine {

FailureDetector::FailureDetector(Cluster* cluster) : cluster_(cluster) {}

void FailureDetector::EnsureSize(int num_nodes) {
  const size_t n = static_cast<size_t>(num_nodes);
  if (miss_.size() >= n) return;
  for (auto& row : miss_) row.resize(n, 0);
  miss_.resize(n, std::vector<int>(n, 0));
  confirm_.resize(n, 0);
}

bool FailureDetector::Responsive(NodeId node) const {
  // A partitioned node's process is alive — it answers probes once the
  // link heals. A node that is down for any OTHER reason (injector crash)
  // is genuinely dead and stays out of the health graph until its rejoin.
  return cluster_->membership().alive(node) || detector_down_.count(node) > 0;
}

void FailureDetector::Arm(SimTime active_until) {
  assert(!cluster_->simulator().in_lane_context() &&
         "the detector is armed in exclusive context only");
  active_until_ = std::max(active_until_, active_until);
  if (armed_) return;
  armed_ = true;
  // Scheduled from exclusive context, so the tick lands on the control
  // lane and runs in the exclusive slice of its epoch.
  cluster_->simulator().Schedule(kHeartbeatPeriodUs, [this] { Tick(); });
}

void FailureDetector::Tick() {
  const int n = cluster_->num_nodes();
  EnsureSize(n);
  ++ticks_;
  const SimTime now = cluster_->Now();
  const net::Wire& net = cluster_->wire();
  obs::Tracer* tracer = &cluster_->tracer();

  // Round 1: per-directed-link heartbeat outcomes, in (src, dst) order.
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      if (!Responsive(i) || !Responsive(j)) {
        // Dead endpoints exchange nothing; clear the counters so a
        // rejoining node starts from a clean slate instead of inheriting
        // stale misses.
        miss_[i][j] = 0;
        continue;
      }
      const bool delivered =
          net.reachable(i, j) && !(loss_ && loss_(i, j, ticks_, now));
      if (delivered) {
        miss_[i][j] = 0;
        continue;
      }
      miss_[i][j] = std::min(miss_[i][j] + 1, kMissThreshold);
      ++heartbeat_misses_;
      HERMES_TRACE(tracer, obs::EventKind::kHeartbeatMiss, i, kInvalidTxn,
                   static_cast<Key>(miss_[i][j]), static_cast<uint64_t>(j));
    }
  }

  // Round 2: the mutual-health graph over responsive nodes. Components
  // are found by BFS in ascending id order; the primary component is the
  // largest, ties broken by lowest member id — a total order independent
  // of hash salts.
  std::vector<int> component(static_cast<size_t>(n), -1);
  std::vector<int> comp_size;
  std::vector<NodeId> queue;
  for (NodeId i = 0; i < n; ++i) {
    if (!Responsive(i) || component[i] >= 0) continue;
    const int c = static_cast<int>(comp_size.size());
    comp_size.push_back(0);
    queue.clear();
    queue.push_back(i);
    component[i] = c;
    while (!queue.empty()) {
      const NodeId u = queue.back();
      queue.pop_back();
      ++comp_size[c];
      for (NodeId v = 0; v < n; ++v) {
        if (v == u || !Responsive(v) || component[v] >= 0) continue;
        const bool healthy = miss_[u][v] < kMissThreshold &&
                             miss_[v][u] < kMissThreshold;
        if (!healthy) continue;
        component[v] = c;
        queue.push_back(v);
      }
    }
  }
  int primary = -1;
  for (int c = 0; c < static_cast<int>(comp_size.size()); ++c) {
    // Components are discovered in ascending min-member order, so strict
    // > keeps the lowest-id component on size ties.
    if (primary < 0 || comp_size[c] > comp_size[primary]) primary = c;
  }

  // Round 3: membership transitions, in node-id order. Suspects reuse the
  // kCrashNoStall path verbatim; restores the RejoinNoStall path — the
  // resulting epochs are indistinguishable from plan-scripted ones.
  for (NodeId i = 0; i < n; ++i) {
    if (!Responsive(i)) continue;
    const bool in_primary = component[i] == primary;
    const bool suspected = detector_down_.count(i) > 0;
    if (in_primary && suspected) {
      if (++confirm_[i] >= kConfirmThreshold) {
        confirm_[i] = 0;
        detector_down_.erase(i);
        ++restores_;
        cluster_->RejoinNoStall(i);
        HERMES_TRACE(tracer, obs::EventKind::kDetectorRestore, i, kInvalidTxn,
                     static_cast<Key>(-1), cluster_->membership().epoch());
      }
    } else if (!in_primary) {
      confirm_[i] = 0;
      if (!suspected && cluster_->membership().alive(i)) {
        detector_down_.insert(i);
        ++suspects_;
        cluster_->CrashNoStall(i);
        HERMES_TRACE(tracer, obs::EventKind::kDetectorSuspect, i, kInvalidTxn,
                     static_cast<Key>(-1), cluster_->membership().epoch());
      }
    }
  }

  // Re-arm while there is anything left to watch; otherwise the chain
  // stops so Drain() (which runs until no events remain) terminates.
  bool misses = false;
  for (NodeId i = 0; i < n && !misses; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (miss_[i][j] > 0) {
        misses = true;
        break;
      }
    }
  }
  if (net.any_cut() || !detector_down_.empty() || misses ||
      now < active_until_) {
    cluster_->simulator().Schedule(kHeartbeatPeriodUs, [this] { Tick(); });
  } else {
    armed_ = false;
  }
}

std::string FailureDetector::DebugString() const {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "detector: armed=%d ticks=%llu misses=%llu suspects=%llu "
                "restores=%llu\n",
                armed_ ? 1 : 0, static_cast<unsigned long long>(ticks_),
                static_cast<unsigned long long>(heartbeat_misses_),
                static_cast<unsigned long long>(suspects_),
                static_cast<unsigned long long>(restores_));
  out += buf;
  out += "  suspected:";
  for (NodeId node : detector_down_) {
    std::snprintf(buf, sizeof(buf), " %d(confirm=%d)", node,
                  node < static_cast<NodeId>(confirm_.size()) ? confirm_[node]
                                                              : 0);
    out += buf;
  }
  out += "\n";
  for (NodeId i = 0; i < static_cast<NodeId>(miss_.size()); ++i) {
    for (NodeId j = 0; j < static_cast<NodeId>(miss_[i].size()); ++j) {
      if (miss_[i][j] == 0) continue;
      std::snprintf(buf, sizeof(buf), "  miss %d->%d = %d\n", i, j,
                    miss_[i][j]);
      out += buf;
    }
  }
  return out;
}

}  // namespace hermes::engine
