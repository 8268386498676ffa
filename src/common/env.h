#ifndef HERMES_COMMON_ENV_H_
#define HERMES_COMMON_ENV_H_

#include <cstdint>

namespace hermes {

/// The sanctioned process-environment accessor. detlint's `env-read`
/// rule bans `std::getenv` everywhere except env.cc, so every
/// environment read in the tree is enumerable from this header's call
/// sites — which is what keeps the env surface auditable: an env var
/// may select a *configuration* (salt, trace switches)
/// before a run, but nothing may read the environment mid-decision,
/// where it would be invisible to the digest oracles and the replay
/// tooling.
///
/// Returns nullptr when `name` is unset; an empty value is returned
/// as-is (callers that treat empty as unset say so explicitly).
const char* EnvRead(const char* name);

/// Integer convenience wrapper over EnvRead: `def` when unset or empty;
/// strtoull with base 0 (decimal or 0x-hex).
uint64_t EnvReadU64(const char* name, uint64_t def);

/// True when `name` is set to a truthy value: anything except unset,
/// empty, or the literal "0" (the HERMES_TRACE convention).
bool EnvReadBool(const char* name);

}  // namespace hermes

#endif  // HERMES_COMMON_ENV_H_
