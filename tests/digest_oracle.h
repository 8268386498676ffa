#ifndef HERMES_TESTS_DIGEST_ORACLE_H_
#define HERMES_TESTS_DIGEST_ORACLE_H_

// The digest oracle: every cluster lifetime whose outcome must be
// bit-identical under every hash salt, registered as one scenario row.
//
// The salt permutes the slot order of every hermes::FlatMap without
// changing its contents. FlatMap cannot be iterated, so slot order cannot
// reach a decision directly; any other path by which hashing reaches a
// routing, fusion, migration, fault or trace decision shows up as two
// Profiles that differ. FlatMapPeer (below) is the tests' one window onto
// slot order, so they can check that the salt really permutes it.
// digest_oracle_test runs every row's seeds under every in-process salt;
// scripts/check_determinism.sh reruns the rows' profile seeds under
// several HERMES_HASH_SALT environments. A new subsystem adds a row here,
// not another harness.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "fault/fault_plan.h"

namespace hermes::oracle {

/// The outcome of one lifetime: an ordered list of key=value fields plus
/// the invariant monitors' verdict. Printed fields form the PROFILE line;
/// blobs (export texts) and unprinted counts are compared but never
/// printed.
class Profile {
 public:
  Profile& Hex(std::string key, uint64_t value);    ///< key=%016llx
  Profile& Count(std::string key, uint64_t value);  ///< key=%llu
  Profile& List(std::string key, const std::vector<uint64_t>& values);
  Profile& Blob(std::string key, std::string text);
  Profile& Unprinted(std::string key, uint64_t value);  ///< unprinted Count

  /// Numeric value of a Hex/Count field (a List's sum); 0 when absent.
  uint64_t Get(std::string_view key) const;
  /// Text of a field or blob; empty when absent.
  const std::string& Text(std::string_view key) const;

  /// The printed fields, "key=value" separated by spaces.
  std::string Line() const;
  /// Empty when both profiles hold the same fields with the same values;
  /// otherwise names the first field that differs.
  std::string FirstDifference(const Profile& other) const;

  bool monitors_ok = true;
  std::string report;  ///< the monitors' failure report

 private:
  struct Field {
    std::string key;
    std::string text;
    uint64_t value = 0;
    bool printed = true;
  };
  Profile& Add(std::string key, std::string text, uint64_t value,
               bool printed);

  std::vector<Field> fields_;
};

/// A check that the lifetime really exercised what its row is about.
struct Guard {
  std::string what;
  std::function<bool(const Profile&)> holds;
};

/// A corpus-level guard: summed over every corpus seed, these fields must
/// be non-zero (any one seed may legitimately draw nothing).
struct CorpusGuard {
  const char* what;
  std::vector<const char*> fields;
};

/// One registry row.
struct Scenario {
  const char* name = "";
  /// seed -> Profile. A faulted lifetime ends with one
  /// InvariantMonitor::CheckQuiescent, command-log replay included, on
  /// every salt.
  std::function<Profile(uint64_t seed)> run{};
  uint64_t profile_seed = 0;       ///< printed by check_determinism.sh
  std::vector<uint64_t> corpus{};  ///< further seeds, run in-process only
  std::vector<Guard> guards{};     ///< checked on every seed
  std::vector<CorpusGuard> corpus_guards{};
};

/// The registry, in a fixed order.
const std::vector<Scenario>& Scenarios();

/// The process salt (HERMES_HASH_SALT) first, so env salts reach the first
/// run, then two arbitrary odd constants that scramble every bucket.
std::vector<uint64_t> Salts();

/// Sets the process hash salt for its lifetime. Safe between cluster
/// lifetimes only: no salted container may hold elements across it.
class SaltGuard {
 public:
  explicit SaltGuard(uint64_t salt) : saved_(HashSalt()) {
    SetHashSalt(salt);
  }
  ~SaltGuard() { SetHashSalt(saved_); }
  SaltGuard(const SaltGuard&) = delete;
  SaltGuard& operator=(const SaltGuard&) = delete;

 private:
  uint64_t saved_;
};

/// Calls run(i) under Salts()[i] for each i; returns the results in order.
template <typename Run>
auto UnderEachSalt(Run run) {
  const std::vector<uint64_t> salts = Salts();
  std::vector<decltype(run(size_t{0}))> out;
  for (size_t i = 0; i < salts.size(); ++i) {
    SaltGuard guard(salts[i]);
    out.push_back(run(i));
  }
  return out;
}

// Lifetimes and configs that other tests and tools use directly.

/// The chaos lifetime: a seeded crash/rejoin plan plus link chaos against
/// seeded skewed YCSB. no_stall switches to kCrashNoStall plus a seeded
/// chunk-migration wave; traced turns the tracer on and adds the trace
/// digest, its JSON export and the counters no digest covers to the
/// Profile.
struct ChaosOptions {
  bool no_stall = false;
  bool traced = false;
};
Profile RunChaos(uint64_t plan_seed, ChaosOptions options = {});

/// Healthy skewed YCSB plus a mid-run scale-out, tracer on or off.
Profile RunHealthy(bool traced);

ClusterConfig DegradedConfig();
fault::FaultPlan NoStallPlan(const ClusterConfig& config, uint64_t seed);
ClusterConfig PartitionConfig();
ClusterConfig LeaseConfig();

}  // namespace hermes::oracle

namespace hermes {

/// Test-side friend of FlatMap: its entries in slot order, which the
/// library itself cannot observe.
struct FlatMapPeer {
  template <typename K, typename V>
  static std::vector<std::pair<K, V>> SlotOrder(const FlatMap<K, V>& m) {
    std::vector<std::pair<K, V>> out;
    for (const auto& slot : m.slots_) {
      if (slot.used) out.push_back(slot.kv);
    }
    return out;
  }
};

}  // namespace hermes

#endif  // HERMES_TESTS_DIGEST_ORACLE_H_
