#ifndef HERMES_WORKLOAD_DISTRIBUTIONS_H_
#define HERMES_WORKLOAD_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace hermes::workload {

/// YCSB-style Zipfian generator over [0, n) with skew parameter `theta`
/// (Gray et al.'s rejection-free method with precomputed zeta). theta in
/// (0, 1); 0.99 is the classic YCSB default, the paper's multi-tenant
/// workload uses 0.9.
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta);

  uint64_t Next(Rng& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  double zetan_;
  double zeta2_;
  /// 1 + 0.5^theta: a draw with u * zetan below it (and at least 1) is 1.
  double one_threshold_;
  double alpha_;
  double eta_;
};

/// Zipfian over [0, n) with the hot end scrambled across the key space
/// (multiplicative hashing), for workloads whose hot keys must not be
/// contiguous.
class ScrambledZipfianGenerator {
 public:
  ScrambledZipfianGenerator(uint64_t n, double theta);

  uint64_t Next(Rng& rng) const;

 private:
  ZipfianGenerator zipf_;
  uint64_t n_;
};

/// The paper's "global, two-sided Zipfian distribution defined on all keys"
/// whose peak moves over time (§5.2.2): a Zipfian-distributed distance is
/// added to or subtracted from a caller-supplied peak position, wrapping
/// around the key space.
class TwoSidedZipfian {
 public:
  TwoSidedZipfian(uint64_t n, double theta);

  /// Samples a key near `peak` (both sides, Zipf-decaying distance).
  uint64_t Next(Rng& rng, uint64_t peak) const;

  uint64_t n() const { return n_; }

 private:
  ZipfianGenerator distance_;
  uint64_t n_;
};

/// Samples from a normal distribution, clamped to [min, max] and rounded
/// to an integer (the Fig. 9 transaction-length sweep).
uint64_t SampleClampedNormal(Rng& rng, double mean, double stddev,
                             uint64_t min, uint64_t max);

/// Picks an index in [0, weights.size()) proportionally to weights.
/// Weights must be non-negative with a positive sum.
size_t SampleDiscrete(Rng& rng, const std::vector<double>& weights);

}  // namespace hermes::workload

#endif  // HERMES_WORKLOAD_DISTRIBUTIONS_H_
