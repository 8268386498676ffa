#include "engine/metrics.h"

#include <cassert>

namespace hermes::engine {

Metrics::Metrics(SimTime window_us) : window_us_(window_us) {
  assert(window_us_ > 0);
}

WindowStats& Metrics::WindowAt(SimTime when) {
  const size_t idx = when / window_us_;
  if (idx >= windows_.size()) windows_.resize(idx + 1);
  return windows_[idx];
}

void Metrics::RecordCommit(SimTime when, const LatencyBreakdown& latency,
                           bool distributed, bool aborted) {
  WindowStats& w = WindowAt(when);
  if (aborted) {
    ++w.aborts;
    ++total_aborts_;
    return;
  }
  ++w.commits;
  ++total_commits_;
  if (distributed) {
    ++w.distributed_commits;
    ++total_distributed_;
  }
  latency_sum_ += latency;
  histogram_.Record(latency.total_us);
}

void Metrics::RecordMigrations(SimTime when, uint64_t count) {
  WindowAt(when).migrations += count;
}

void Metrics::RecordBusy(SimTime when, uint64_t busy_us) {
  WindowAt(when).busy_us += busy_us;
}

void Metrics::RecordNetBytes(SimTime when, uint64_t bytes) {
  WindowAt(when).net_bytes += bytes;
}

void Metrics::RecordNetBytesReceived(SimTime when, uint64_t bytes) {
  WindowAt(when).net_bytes_received += bytes;
}

void Metrics::RecordNetClassBytes(SimTime when, TrafficClass cls,
                                  uint64_t bytes) {
  WindowStats& w = WindowAt(when);
  if (cls == TrafficClass::kForeground) {
    w.net_fg_bytes += bytes;
  } else {
    w.net_bulk_bytes += bytes;
  }
}

void Metrics::RecordDecisionDigest(SimTime when, uint64_t digest) {
  WindowAt(when).decision_digest = digest;
}

LatencyBreakdown Metrics::AverageLatency() const {
  LatencyBreakdown avg;
  if (total_commits_ == 0) return avg;
  avg.scheduling_us = latency_sum_.scheduling_us / total_commits_;
  avg.lock_wait_us = latency_sum_.lock_wait_us / total_commits_;
  avg.remote_wait_us = latency_sum_.remote_wait_us / total_commits_;
  avg.storage_us = latency_sum_.storage_us / total_commits_;
  avg.other_us = latency_sum_.other_us / total_commits_;
  avg.total_us = latency_sum_.total_us / total_commits_;
  return avg;
}

double Metrics::Throughput(SimTime from, SimTime to) const {
  if (to <= from) return 0.0;
  uint64_t commits = 0;
  const size_t first = from / window_us_;
  const size_t last = to / window_us_;
  for (size_t w = first; w < last && w < windows_.size(); ++w) {
    commits += windows_[w].commits;
  }
  return static_cast<double>(commits) /
         (static_cast<double>(to - from) / 1e6);
}

double Metrics::CpuUtilization(size_t w, int total_workers) const {
  if (w >= windows_.size() || total_workers <= 0) return 0.0;
  return static_cast<double>(windows_[w].busy_us) /
         (static_cast<double>(window_us_) * total_workers);
}

double Metrics::NetBytesPerTxn(size_t w) const {
  if (w >= windows_.size() || windows_[w].commits == 0) return 0.0;
  return static_cast<double>(windows_[w].net_bytes) / windows_[w].commits;
}

}  // namespace hermes::engine
