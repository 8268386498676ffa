#ifndef HERMES_OBS_TELEMETRY_H_
#define HERMES_OBS_TELEMETRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hermes::obs {

/// Monotonic event counter. A cheap value type components embed directly
/// (replacing the ad-hoc `uint64_t committed_ = 0;` fields); the registry
/// reads it through a closure at snapshot time, so owners keep full
/// control of lifetime and the counter itself stays a plain increment.
class Counter {
 public:
  void Add(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time histogram contents for export: (upper_bound_us, count)
/// per non-empty bucket, ascending by bound.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;  ///< approximate sum (bucket upper bounds × counts)
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
};

/// Log-bucketed virtual-time histogram (4 linear sub-buckets per power of
/// two, covering 1 us .. ~1100 s) with percentile queries. Bucketing error
/// is bounded by 1/4 of the bucket width (~6%). Transaction latency and
/// wire queueing delay both use it.
class Histogram {
 public:
  Histogram();

  void Record(uint64_t value_us);
  /// Adds `other`'s buckets into this histogram.
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }

  /// Value at quantile `q` in [0, 1] (upper bound of the bucket the
  /// quantile falls into); 0 when empty.
  uint64_t Percentile(double q) const;

  /// Export view: (upper_bound_us, count) for every non-empty bucket,
  /// ascending, plus totals — the registry renders this as a Prometheus
  /// histogram.
  HistogramSnapshot Snapshot() const;

 private:
  static constexpr int kSubBuckets = 4;
  static constexpr int kBuckets = 30 * kSubBuckets;
  static size_t BucketFor(uint64_t v);
  static uint64_t UpperBound(size_t bucket);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Named metric registry with deterministic, sorted export.
///
/// Everything is callback-based: a component registers a name plus a
/// closure that reads its live value. Registration order is irrelevant —
/// snapshots iterate the std::map name order — and the registry never
/// owns or mutates component state (passivity, same contract as the
/// tracer). Names follow Prometheus conventions
/// (`hermes_txn_committed_total`).
class Registry {
 public:
  void RegisterCounter(std::string name, std::function<uint64_t()> read);
  void RegisterGauge(std::string name, std::function<int64_t()> read);
  void RegisterHistogram(std::string name,
                         std::function<HistogramSnapshot()> read);

  /// All scalar metrics (counters then gauges per name order) as sorted
  /// (name, value) pairs. Histograms are export-only (PrometheusText).
  std::vector<std::pair<std::string, int64_t>> Snapshot() const;

  /// Prometheus text exposition: `# TYPE` headers, counters/gauges as
  /// plain samples, histograms as cumulative `_bucket{le="..."}` series
  /// plus `_sum`/`_count`. Byte-identical across reruns and hash salts
  /// as long as the underlying values are.
  std::string PrometheusText() const;

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  // std::map: deterministic name-sorted iteration for Snapshot/export.
  std::map<std::string, std::function<uint64_t()>> counters_;
  std::map<std::string, std::function<int64_t()>> gauges_;
  std::map<std::string, std::function<HistogramSnapshot()>> histograms_;
};

}  // namespace hermes::obs

#endif  // HERMES_OBS_TELEMETRY_H_
