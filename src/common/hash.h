#ifndef HERMES_COMMON_HASH_H_
#define HERMES_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

namespace hermes {

/// Process-wide hash perturbation salt, parsed once from the
/// HERMES_HASH_SALT environment variable (decimal or 0x-hex; default 0).
///
/// Every hash container in the library goes through hermes::HashMap /
/// hermes::HashSet, whose hasher mixes this salt into every hash value.
/// Changing the salt permutes bucket assignment — and therefore iteration
/// order — of every such container, while leaving the set of stored
/// elements untouched. Runs of the deterministic pipeline must produce
/// identical decisions under every salt; digest_oracle_test and
/// scripts/check_determinism.sh assert exactly that, which turns latent
/// "iteration order leaked into a decision" bugs into test failures.
uint64_t HashSalt();

/// Overrides the salt (tests run one workload per salt in one process).
/// Must not be called while any salted container holds elements: the
/// container would be left with elements in buckets the new hash function
/// no longer maps them to.
void SetHashSalt(uint64_t salt);

namespace detail {
extern uint64_t g_hash_salt;

/// SplitMix64 finalizer over (hash + salt): full-avalanche, so even a
/// 1-bit salt change reshuffles every bucket assignment.
inline uint64_t SaltAndFinalize(uint64_t h) {
  uint64_t x = h + 0x9e3779b97f4a7c15ULL + g_hash_salt;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}
}  // namespace detail

/// Adapts any hasher into a salted one (see HashSalt()).
template <typename Base>
struct Salted {
  template <typename T>
  size_t operator()(const T& v) const {
    return static_cast<size_t>(
        detail::SaltAndFinalize(static_cast<uint64_t>(Base{}(v))));
  }
};

/// Drop-in replacements for std::unordered_map / std::unordered_set with a
/// salt-perturbed hasher. All hash containers in src/ must use these (the
/// detlint `raw-unordered` rule enforces it) so HERMES_HASH_SALT can
/// exercise every iteration order in one binary.
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
using HashMap = std::unordered_map<K, V, Salted<Hash>, Eq>;

template <typename K, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
using HashSet = std::unordered_set<K, Salted<Hash>, Eq>;

}  // namespace hermes

#endif  // HERMES_COMMON_HASH_H_
