#include "common/env.h"

#include <cstdlib>

namespace hermes {

const char* EnvRead(const char* name) {
  // The one sanctioned std::getenv call in the tree (detlint:env-read).
  return std::getenv(name);
}

uint64_t EnvReadU64(const char* name, uint64_t def) {
  const char* v = EnvRead(name);
  if (v == nullptr || *v == '\0') return def;
  return std::strtoull(v, nullptr, 0);
}

bool EnvReadBool(const char* name) {
  const char* v = EnvRead(name);
  if (v == nullptr || *v == '\0') return false;
  return !(v[0] == '0' && v[1] == '\0');
}

}  // namespace hermes
