// Perturbed-hash race detector: runs the identical seeded workload under
// several hash salts (HERMES_HASH_SALT / SetHashSalt) and asserts the
// decision stream is bit-identical. The salt permutes the bucket — and
// therefore iteration — order of every hermes::HashMap/HashSet in the
// stack without changing container contents, so any place where
// unordered-container iteration order leaks into a routing, eviction,
// migration, or scheduling decision shows up as a digest mismatch here.
// This is the runtime complement to the tools/detlint static pass: detlint
// flags the pattern, this test proves the property.

#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/digest.h"
#include "common/hash.h"
#include "engine/cluster.h"
#include "partition/partition_map.h"
#include "workload/client.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;

// Salts to perturb with: the process's startup salt (HERMES_HASH_SALT,
// default 0) plus two arbitrary odd constants that scramble every bucket
// index. Putting the env salt first lets scripts/check_determinism.sh run
// this binary under several env salts and require every printed digest —
// across processes as well as within one — to be identical.
std::vector<uint64_t> PerturbationSalts() {
  return {HashSalt(), 0x9e3779b97f4a7c15ULL, 0xdeadbeefcafef00dULL};
}

struct RunResult {
  uint64_t digest = 0;
  uint64_t digest_count = 0;
  uint64_t placement = 0;
  uint64_t state_checksum = 0;
  uint64_t content_checksum = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t migrations = 0;
};

bool operator==(const RunResult& a, const RunResult& b) {
  return a.digest == b.digest && a.digest_count == b.digest_count &&
         a.placement == b.placement &&
         a.state_checksum == b.state_checksum &&
         a.content_checksum == b.content_checksum && a.commits == b.commits &&
         a.aborts == b.aborts && a.migrations == b.migrations;
}

// One full cluster lifetime: skewed YCSB on the Hermes router with a small
// fusion table (forces evictions), a mid-run scale-out with cold chunk
// migration, and a scale-in consolidation — so the digest covers routing
// placements, fusion-table evictions, migration scheduling, and every
// event-queue pop across all of those phases.
RunResult RunWorkload() {
  ClusterConfig config;
  config.num_nodes = 3;
  config.num_records = 12'000;
  config.hermes.fusion_table_capacity = 300;
  config.migration_chunk_records = 250;
  Cluster cluster(config, RouterKind::kHermes,
                  std::make_unique<partition::RangePartitionMap>(
                      config.num_records, config.num_nodes));
  cluster.Load();

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 20'260'805;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 16, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(1'500));
  driver.Start();

  cluster.RunUntil(MsToSim(400));
  // Scale out: re-home the first quarter of the keyspace onto the new
  // node via chunk-migration transactions.
  const NodeId added = cluster.AddNode(
      {{0, config.num_records / 4 - 1, 3}}, /*migrate_cold=*/true);
  cluster.RunUntil(MsToSim(900));
  // Consolidate back: remove the node and return its ranges.
  cluster.RemoveNode(added, {{0, config.num_records / 4 - 1, 0}},
                     /*migrate_cold=*/true);
  cluster.RunUntil(MsToSim(1'500));
  cluster.Drain();

  RunResult r;
  r.digest = cluster.decision_digest().value();
  r.digest_count = cluster.decision_digest().count();
  r.placement = cluster.placement_digest().value();
  r.state_checksum = cluster.StateChecksum();
  r.content_checksum = cluster.ContentChecksum();
  r.commits = cluster.metrics().total_commits();
  r.aborts = cluster.metrics().total_aborts();
  for (const auto& w : cluster.metrics().windows()) r.migrations += w.migrations;
  return r;
}

// Sanity: the salt really perturbs hashing — otherwise the whole test
// proves nothing.
TEST(HashSaltTest, SaltChangesHashValues) {
  const uint64_t old_salt = HashSalt();
  Salted<std::hash<uint64_t>> hasher;
  SetHashSalt(1);
  const size_t h1 = hasher(uint64_t{42});
  SetHashSalt(2);
  const size_t h2 = hasher(uint64_t{42});
  SetHashSalt(old_salt);
  EXPECT_NE(h1, h2);
}

TEST(HashSaltTest, SaltPermutesIterationOrder) {
  // With enough elements, at least one pair of salts must disagree on
  // iteration order; if all three agreed the perturbation would be
  // toothless. (Contents are identical regardless.)
  const uint64_t old_salt = HashSalt();
  std::vector<std::vector<uint64_t>> orders;
  for (uint64_t salt : PerturbationSalts()) {
    SetHashSalt(salt);
    HashSet<uint64_t> s;
    for (uint64_t i = 0; i < 256; ++i) s.insert(i);
    std::vector<uint64_t> order(s.begin(), s.end());
    orders.push_back(std::move(order));
  }
  SetHashSalt(old_salt);
  EXPECT_TRUE(orders[0] != orders[1] || orders[1] != orders[2]);
}

TEST(DeterminismPerturbationTest, DigestIdenticalAcrossSalts) {
  const uint64_t old_salt = HashSalt();
  const std::vector<uint64_t> salts = PerturbationSalts();
  std::vector<RunResult> results;
  for (uint64_t salt : salts) {
    // Safe: no salted container holds elements between cluster lifetimes.
    SetHashSalt(salt);
    results.push_back(RunWorkload());
    std::printf("SALT 0x%016llx DECISION_DIGEST %016llx count=%llu "
                "commits=%llu migrations=%llu\n",
                static_cast<unsigned long long>(salt),
                static_cast<unsigned long long>(results.back().digest),
                static_cast<unsigned long long>(results.back().digest_count),
                static_cast<unsigned long long>(results.back().commits),
                static_cast<unsigned long long>(results.back().migrations));
  }
  SetHashSalt(old_salt);

  // The workload must actually have exercised the interesting paths.
  ASSERT_GT(results[0].commits, 100u);
  ASSERT_GT(results[0].migrations, 0u) << "no migration phase — the test "
                                          "would not cover consolidation";
  ASSERT_GT(results[0].digest_count, 1000u);

  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(results[0] == results[i])
        << "salt 0x" << std::hex << salts[i]
        << " diverged: digest " << results[i].digest << " vs "
        << results[0].digest << std::dec << " (count "
        << results[i].digest_count << " vs " << results[0].digest_count
        << "), commits " << results[i].commits << " vs "
        << results[0].commits
        << " — some decision depends on hash iteration order";
  }
}

}  // namespace
}  // namespace hermes
