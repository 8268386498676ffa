#ifndef HERMES_COMMON_HASH_H_
#define HERMES_COMMON_HASH_H_

#include <cstdint>

namespace hermes {

/// Process-wide hash perturbation salt, parsed once from the
/// HERMES_HASH_SALT environment variable (decimal or 0x-hex; default 0).
///
/// hermes::FlatMap (common/flat_map.h), the one hash container in the
/// library, mixes this salt into every hash value. Changing the salt
/// permutes its slot assignment while leaving the set of stored elements
/// untouched. FlatMap cannot be iterated, so slot order cannot reach a
/// decision; the salt still reshuffles probe runs, erase shifts and
/// rehashes, and runs of the deterministic pipeline must produce identical
/// decisions under every salt. digest_oracle_test and
/// scripts/check_determinism.sh assert exactly that.
uint64_t HashSalt();

/// Overrides the salt (tests run one workload per salt in one process).
/// Must not be called while any salted container holds elements: the
/// container would be left with elements in slots the new hash function
/// no longer maps them to.
void SetHashSalt(uint64_t salt);

namespace detail {
extern uint64_t g_hash_salt;

/// SplitMix64 finalizer over (hash + salt): full-avalanche, so even a
/// 1-bit salt change reshuffles every slot assignment.
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

}  // namespace hermes

#endif  // HERMES_COMMON_HASH_H_
