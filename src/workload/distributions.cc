#include "workload/distributions.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hermes::workload {
namespace {

double Zeta(uint64_t n, double theta) {
  // Exact zeta for small n; the p-series tail approximation keeps setup
  // O(1e6) even for very large key spaces.
  constexpr uint64_t kExactLimit = 1'000'000;
  double sum = 0;
  const uint64_t limit = std::min(n, kExactLimit);
  for (uint64_t i = 1; i <= limit; ++i) sum += 1.0 / std::pow(i, theta);
  if (n > limit) {
    // Integral approximation of sum_{limit+1}^{n} x^-theta.
    sum += (std::pow(static_cast<double>(n), 1.0 - theta) -
            std::pow(static_cast<double>(limit), 1.0 - theta)) /
           (1.0 - theta);
  }
  return sum;
}

}  // namespace

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  assert(n > 0);
  assert(theta > 0 && theta < 1);
  zetan_ = Zeta(n, theta);
  zeta2_ = Zeta(2, theta);
  one_threshold_ = 1.0 + std::pow(0.5, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2_ / zetan_);
}

uint64_t ZipfianGenerator::Next(Rng& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < one_threshold_) return 1;
  const auto v = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(v, n_ - 1);
}

ScrambledZipfianGenerator::ScrambledZipfianGenerator(uint64_t n, double theta)
    : zipf_(n, theta), n_(n) {}

uint64_t ScrambledZipfianGenerator::Next(Rng& rng) const {
  return Mix64(zipf_.Next(rng)) % n_;
}

TwoSidedZipfian::TwoSidedZipfian(uint64_t n, double theta)
    : distance_(n, theta), n_(n) {}

uint64_t TwoSidedZipfian::Next(Rng& rng, uint64_t peak) const {
  const uint64_t d = distance_.Next(rng);
  const bool left = (rng.Next() & 1) != 0;
  if (left) {
    return (peak + n_ - (d % n_)) % n_;
  }
  return (peak + d) % n_;
}

uint64_t SampleClampedNormal(Rng& rng, double mean, double stddev,
                             uint64_t min, uint64_t max) {
  const double v = mean + stddev * rng.NextGaussian();
  const double clamped = std::clamp(
      v, static_cast<double>(min), static_cast<double>(max));
  return static_cast<uint64_t>(std::llround(clamped));
}

size_t SampleDiscrete(Rng& rng, const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0;
  for (double w : weights) total += w;
  assert(total > 0);
  double u = rng.NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace hermes::workload
