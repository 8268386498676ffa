#ifndef HERMES_COMMON_DIGEST_H_
#define HERMES_COMMON_DIGEST_H_

#include <cassert>
#include <cstdint>

namespace hermes {

/// FNV-1a accumulator over the cluster's decision stream: router
/// placements as batches are routed, fusion-table evictions, and
/// event-queue pops ((time, seq) of every fired event).
///
/// The digest is order-SENSITIVE by design — two runs match iff they made
/// the same decisions in the same order. Since every component feeding it
/// is required to be a pure function of (config, seeds, totally ordered
/// input), the digest must be bit-identical across replicas, across
/// re-executions, and across HERMES_HASH_SALT values. A mismatch under a
/// perturbed salt is the runtime signature of hash-map iteration order
/// leaking into a decision (the failure class detlint's static rules can
/// flag but not prove absent).
class DecisionDigest {
 public:
  /// Folds the 8 bytes of `v` (little-endian) into the digest.
  void Mix(uint64_t v) {
    uint64_t h = h_;
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * kPrime;
    }
    h_ = h;
    ++n_;
  }

  uint64_t value() const { return h_; }
  /// Number of Mix() calls (diagnostic: tells "different decisions" apart
  /// from "different number of decisions" when digests diverge).
  uint64_t count() const { return n_; }

  void Reset() {
    h_ = kOffsetBasis;
    n_ = 0;
  }

 private:
  friend class DigestPairFold;

  static constexpr uint64_t kOffsetBasis = 14695981039346656037ULL;
  static constexpr uint64_t kPrime = 1099511628211ULL;

  uint64_t h_ = kOffsetBasis;
  uint64_t n_ = 0;
};

/// Folds one word stream into two digests in a single pass. Both states
/// are copied into the fold when it is made, each Mix folds its word into
/// both side by side, and the destructor stores them once. Until then the
/// states live in the fold alone, so a word loaded from memory the
/// digests might alias never forces them out of registers. Each digest
/// ends with the same value() and count() as separate Mix calls on it.
/// Neither digest may be read while a fold over it is alive.
class DigestPairFold {
 public:
  DigestPairFold(DecisionDigest& a, DecisionDigest& b)
      : a_(a), b_(b), ha_(a.h_), hb_(b.h_) {
    assert(&a != &b && "each digest folds every word once");
  }
  DigestPairFold(const DigestPairFold&) = delete;
  DigestPairFold& operator=(const DigestPairFold&) = delete;
  ~DigestPairFold() {
    a_.h_ = ha_;
    a_.n_ += n_;
    b_.h_ = hb_;
    b_.n_ += n_;
  }

  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      const uint64_t byte = (v >> (8 * i)) & 0xff;
      ha_ = (ha_ ^ byte) * DecisionDigest::kPrime;
      hb_ = (hb_ ^ byte) * DecisionDigest::kPrime;
    }
    ++n_;
  }

 private:
  DecisionDigest& a_;
  DecisionDigest& b_;
  uint64_t ha_;
  uint64_t hb_;
  uint64_t n_ = 0;
};

}  // namespace hermes

#endif  // HERMES_COMMON_DIGEST_H_
