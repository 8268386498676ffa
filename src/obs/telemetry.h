#ifndef HERMES_OBS_TELEMETRY_H_
#define HERMES_OBS_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

// The shared virtual-time histogram. Point counters live on the
// components that own them, per-window series in engine::Metrics
// (DESIGN.md §5 "Observability").

namespace hermes::obs {

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
  /// ascending, plus totals.
  HistogramSnapshot Snapshot() const;

 private:
  static constexpr int kSubBuckets = 4;
  static constexpr int kBuckets = 30 * kSubBuckets;
  static size_t BucketFor(uint64_t v);
  static uint64_t UpperBound(size_t bucket);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

}  // namespace hermes::obs

#endif  // HERMES_OBS_TELEMETRY_H_
