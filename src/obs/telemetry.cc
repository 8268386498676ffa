#include "obs/telemetry.h"

#include <algorithm>

namespace hermes::obs {

Histogram::Histogram() : buckets_(kBuckets, 0) {}

size_t Histogram::BucketFor(uint64_t v) {
  if (v < 1) v = 1;
  // Highest set bit selects the power-of-two band; the next two bits the
  // linear sub-bucket within it.
  int band = 63 - __builtin_clzll(v);
  if (band >= 30) band = 29;
  const uint64_t base = 1ULL << band;
  const size_t sub = band == 0 ? 0 : ((v - base) * kSubBuckets) / base;
  return static_cast<size_t>(band) * kSubBuckets +
         std::min<size_t>(sub, kSubBuckets - 1);
}

uint64_t Histogram::UpperBound(size_t bucket) {
  const size_t band = bucket / kSubBuckets;
  const size_t sub = bucket % kSubBuckets;
  const uint64_t base = 1ULL << band;
  return base + (base * (sub + 1)) / kSubBuckets;
}

void Histogram::Record(uint64_t value_us) {
  ++buckets_[BucketFor(value_us)];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

uint64_t Histogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  const auto target =
      static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen > target) return UpperBound(b);
  }
  return UpperBound(buckets_.size() - 1);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    snap.buckets.emplace_back(UpperBound(b), buckets_[b]);
    snap.sum += UpperBound(b) * buckets_[b];
  }
  return snap;
}

}  // namespace hermes::obs
