#include "obs/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace hermes::obs {

namespace {

void Append(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<size_t>(n));
}

}  // namespace

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

void Registry::RegisterCounter(std::string name,
                               std::function<uint64_t()> read) {
  counters_[std::move(name)] = std::move(read);
}

void Registry::RegisterGauge(std::string name, std::function<int64_t()> read) {
  gauges_[std::move(name)] = std::move(read);
}

void Registry::RegisterHistogram(std::string name,
                                 std::function<HistogramSnapshot()> read) {
  histograms_[std::move(name)] = std::move(read);
}

std::vector<std::pair<std::string, int64_t>> Registry::Snapshot() const {
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, read] : counters_) {
    out.emplace_back(name, static_cast<int64_t>(read()));
  }
  for (const auto& [name, read] : gauges_) {
    out.emplace_back(name, read());
  }
  return out;
}

std::string Registry::PrometheusText() const {
  std::string out;
  for (const auto& [name, read] : counters_) {
    Append(&out, "# TYPE %s counter\n", name.c_str());
    Append(&out, "%s %" PRIu64 "\n", name.c_str(), read());
  }
  for (const auto& [name, read] : gauges_) {
    Append(&out, "# TYPE %s gauge\n", name.c_str());
    Append(&out, "%s %" PRId64 "\n", name.c_str(), read());
  }
  for (const auto& [name, read] : histograms_) {
    const HistogramSnapshot snap = read();
    Append(&out, "# TYPE %s histogram\n", name.c_str());
    uint64_t cumulative = 0;
    for (const auto& [bound, count] : snap.buckets) {
      cumulative += count;
      Append(&out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", name.c_str(),
             bound, cumulative);
    }
    Append(&out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name.c_str(),
           snap.count);
    Append(&out, "%s_sum %" PRIu64 "\n", name.c_str(), snap.sum);
    Append(&out, "%s_count %" PRIu64 "\n", name.c_str(), snap.count);
  }
  return out;
}

}  // namespace hermes::obs
