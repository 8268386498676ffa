#include "engine/cluster.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "partition/partition_map.h"
#include "workload/client.h"
#include "workload/scenarios.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;

ClusterConfig SmallConfig() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 10'000;
  config.workers_per_node = 2;
  config.epoch_us = MsToSim(10);
  config.hermes.fusion_table_capacity = 1'000;
  return config;
}

std::unique_ptr<Cluster> MakeCluster(const ClusterConfig& config,
                                     RouterKind kind) {
  auto cluster = std::make_unique<Cluster>(
      config, kind,
      std::make_unique<partition::RangePartitionMap>(config.num_records,
                                                     config.num_nodes));
  cluster->Load();
  return cluster;
}

class ClusterRouterTest : public ::testing::TestWithParam<RouterKind> {};

TEST_P(ClusterRouterTest, RunsYcsbToCompletion) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, GetParam());

  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 99;
  workload::YcsbWorkload gen(wl, nullptr);

  workload::ClosedLoopDriver driver(
      cluster.get(), 32,
      [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(SecToSim(2));
  driver.Start();
  cluster->RunUntil(SecToSim(2));
  cluster->Drain();

  EXPECT_EQ(cluster->executor().inflight(), 0u);
  EXPECT_GT(cluster->metrics().total_commits(), 100u);
  EXPECT_EQ(driver.completed(), cluster->metrics().total_commits() +
                                    cluster->metrics().total_aborts());

  // Record conservation: every key lives on exactly one node.
  uint64_t total = 0;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    total += cluster->node(n).store().size();
  }
  EXPECT_EQ(total, config.num_records);
}

TEST_P(ClusterRouterTest, IdenticalRunsProduceIdenticalState) {
  const std::string line = std::string("default router=") +
                           engine::RouterKindName(GetParam()) +
                           " clients=16 workers_per_node=2 num_records=10000 "
                           "hermes.fusion_table_capacity=1000 ycsb.seed=4242";
  const workload::DrainedRun a =
      workload::RunScenario(workload::MustParse(line));
  const workload::DrainedRun b =
      workload::RunScenario(workload::MustParse(line));
  EXPECT_EQ(a.cluster->StateChecksum(), b.cluster->StateChecksum());
  EXPECT_EQ(a.cluster->metrics().total_commits(),
            b.cluster->metrics().total_commits());
}

INSTANTIATE_TEST_SUITE_P(AllRouters, ClusterRouterTest,
                         ::testing::Values(RouterKind::kCalvin,
                                           RouterKind::kGStore,
                                           RouterKind::kLeap,
                                           RouterKind::kTPart,
                                           RouterKind::kHermes),
                         [](const auto& info) {
                           switch (info.param) {
                             case RouterKind::kCalvin: return "Calvin";
                             case RouterKind::kGStore: return "GStore";
                             case RouterKind::kLeap: return "Leap";
                             case RouterKind::kTPart: return "TPart";
                             case RouterKind::kHermes: return "Hermes";
                           }
                           return "Unknown";
                         });

TEST(ClusterTest, LoadPlacesRecordsAtHome) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, RouterKind::kCalvin);
  for (Key k = 0; k < config.num_records; k += 997) {
    const NodeId home = cluster->ownership().Home(k);
    EXPECT_TRUE(cluster->node(home).store().Contains(k));
  }
}

TEST(ClusterTest, SingleTxnCommitsAndWrites) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, RouterKind::kHermes);
  TxnRequest txn;
  txn.read_set = {1, 9999};  // spans two partitions
  txn.write_set = {1, 9999};
  bool done = false;
  cluster->Submit(txn, [&done](const engine::TxnResult& r) {
    EXPECT_FALSE(r.aborted);
    EXPECT_TRUE(r.distributed);
    done = true;
  });
  cluster->Drain();
  ASSERT_TRUE(done);

  // Both records fused on one node with version 1.
  const NodeId owner1 = cluster->ownership().Owner(1);
  const NodeId owner2 = cluster->ownership().Owner(9999);
  EXPECT_EQ(owner1, owner2);
  const storage::Record* r1 = cluster->node(owner1).store().Get(1);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->version, 1u);
}

TEST(ClusterTest, EmptyAccessSetTxnCommits) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, RouterKind::kHermes);
  TxnRequest txn;  // no reads, no writes (e.g. a pure logic ping)
  bool done = false;
  cluster->Submit(txn, [&done](const engine::TxnResult& r) {
    EXPECT_FALSE(r.aborted);
    done = true;
  });
  cluster->Drain();
  EXPECT_TRUE(done);
}

TEST(ClusterTest, FusionTableOnlyForHermes) {
  const ClusterConfig config = SmallConfig();
  auto calvin = MakeCluster(config, RouterKind::kCalvin);
  EXPECT_EQ(calvin->hermes_router(), nullptr);
  auto hermes = MakeCluster(config, RouterKind::kHermes);
  EXPECT_NE(hermes->hermes_router(), nullptr);
}

TEST(ClusterTest, MaxBatchSizeSplitsLoad) {
  ClusterConfig config = SmallConfig();
  config.max_batch_size = 5;
  auto cluster = MakeCluster(config, RouterKind::kHermes);
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 5;
  workload::YcsbWorkload gen(wl, nullptr);
  for (int i = 0; i < 50; ++i) cluster->Submit(gen.Next(0));
  cluster->Drain();
  EXPECT_EQ(cluster->metrics().total_commits() +
                cluster->metrics().total_aborts(),
            50u);
  // 50 submissions with batches capped at 5 -> at least 10 batches.
  EXPECT_GE(cluster->command_log().size(), 10u);
  for (const auto& batch : cluster->command_log().batches()) {
    EXPECT_LE(batch.txns.size(), 5u);
  }
}

TEST(ClusterTest, MetricsWindowsCoverTheRun) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, RouterKind::kCalvin);
  workload::YcsbConfig wl;
  wl.num_records = config.num_records;
  wl.num_partitions = config.num_nodes;
  wl.seed = 6;
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      cluster.get(), 8, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(SecToSim(3));
  driver.Start();
  cluster->RunUntil(SecToSim(3));
  cluster->Drain();
  ASSERT_GE(cluster->metrics().windows().size(), 3u);
  // Every covered window saw commits and busy CPU.
  for (size_t w = 0; w < 3; ++w) {
    EXPECT_GT(cluster->metrics().windows()[w].commits, 0u) << "window " << w;
    EXPECT_GT(cluster->metrics().windows()[w].busy_us, 0u) << "window " << w;
  }
}

TEST(ClusterTest, UserAbortRollsBackButStillMigrates) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, RouterKind::kHermes);
  const storage::Record before = *cluster->node(0).store().Get(5);

  TxnRequest txn;
  txn.read_set = {5, 9000};
  txn.write_set = {5, 9000};
  txn.user_abort = true;
  bool done = false;
  cluster->Submit(txn, [&done](const engine::TxnResult& r) {
    EXPECT_TRUE(r.aborted);
    done = true;
  });
  cluster->Drain();
  ASSERT_TRUE(done);
  EXPECT_EQ(cluster->metrics().total_aborts(), 1u);

  // Values rolled back...
  const NodeId owner = cluster->ownership().Owner(5);
  const storage::Record* after = cluster->node(owner).store().Get(5);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->value, before.value);
  // ...but the migration plan still executed (§4.2): both keys fused.
  EXPECT_EQ(cluster->ownership().Owner(5), cluster->ownership().Owner(9000));
}

// SimConfig::threads is a compatibility stub: the simulator only runs
// sequentially, so a nonzero value must abort construction with the field
// named rather than silently run sequentially.
TEST(ClusterDeathTest, NonzeroSimThreadsAborts) {
  ClusterConfig config = SmallConfig();
  config.sim.threads = 1;
  EXPECT_DEATH(MakeCluster(config, RouterKind::kHermes), "sim\\.threads");
}

#ifndef NDEBUG
// Keys are dense: per-key state is indexed by key, so a request naming a
// key at or beyond num_records is refused at Submit in Debug builds.
TEST(ClusterDeathTest, KeyBeyondNumRecordsAborts) {
  const ClusterConfig config = SmallConfig();
  auto cluster = MakeCluster(config, RouterKind::kHermes);
  TxnRequest txn;
  txn.read_set = {1, config.num_records};
  EXPECT_DEATH(cluster->Submit(txn), "keys are dense");
}
#endif

}  // namespace
}  // namespace hermes

// The scenario line format (workload/scenarios.h) and the config rules it
// checks: every registry entry round-trips through its printed line over
// every base, a round-tripped line runs the same lifetime, Parse rejects
// bad input naming the key, and ClusterConfig::Validate has one case per
// rule. Parse reads text from outside the program, so this binary carries
// the `engine` label and runs under ASan.

namespace hermes::workload {
namespace {

TEST(ScenarioLineTest, EveryEntryRoundTripsOverEveryBase) {
  for (const Scenario& entry : Registry()) {
    EXPECT_EQ(entry.ToString(), entry.base);
    for (const Scenario& base : Registry()) {
      Scenario s = entry;
      s.base = base.base;
      Scenario parsed;
      const Status status = Scenario::Parse(s.ToString(), &parsed);
      ASSERT_TRUE(status.ok()) << s.ToString() << ": " << status.message();
      EXPECT_TRUE(parsed == s) << s.ToString() << " parsed as "
                               << parsed.ToString();
    }
  }
}

TEST(ScenarioLineTest, ValuesRoundTrip) {
  const Scenario s = MustParse(
      "default horizon=4500us window=1ms hermes.alpha=0.1 "
      "hermes.eviction_policy=fifo net.enabled=1 "
      "steps=add@1ms:0-9>4+20-29>4:hot,remove@2ms:1,crash@3ms:2,"
      "migrate@4ms:5-6>0");
  EXPECT_EQ(s.horizon, 4'500u);
  EXPECT_EQ(s.window, MsToSim(1));
  EXPECT_EQ(s.config.hermes.alpha, 0.1);
  EXPECT_EQ(s.config.hermes.eviction_policy, EvictionPolicy::kFifo);
  EXPECT_TRUE(s.config.net.enabled);
  ASSERT_EQ(s.steps.size(), 4u);
  EXPECT_EQ(s.steps[0].moves, (std::vector<RangeMove>{{0, 9, 4}, {20, 29, 4}}));
  EXPECT_FALSE(s.steps[0].migrate_cold);
  EXPECT_TRUE(s.steps[1].moves.empty());
  EXPECT_EQ(s.steps[2].kind, Step::Kind::kCrash);
  EXPECT_EQ(s.steps[2].node, 2);
  EXPECT_EQ(s.ToString(),
            "default horizon=4500us window=1ms hermes.alpha=0.1 "
            "hermes.eviction_policy=fifo net.enabled=1 "
            "steps=add@1ms:0-9>4+20-29>4:hot,remove@2ms:1,crash@3ms:2,"
            "migrate@4ms:5-6>0");
}

// A short run of `s`: every digest the oracle reads, so a field the line
// format dropped shows up as a difference.
std::vector<uint64_t> ShortRun(Scenario s) {
  s.horizon = std::min(s.horizon, MsToSim(300));
  s.window = std::min(s.window, s.horizon);
  std::erase_if(s.steps, [&](const Step& step) { return step.at > s.horizon; });
  // Outages and cuts that fit the short horizon.
  s.faults.min_outage_us = s.faults.max_outage_us = MsToSim(20);
  s.faults.min_partition_us = s.faults.max_partition_us = MsToSim(20);
  const DrainedRun run = RunScenario(s);
  const engine::Cluster& c = *run.cluster;
  return {c.decision_digest().value(), c.placement_digest().value(),
          c.StateChecksum(), c.metrics().total_commits(),
          c.metrics().total_aborts(), c.ReplicaChecksum(),
          c.trace_digest().value(), run.monitors_ok};
}

TEST(ScenarioLineTest, RoundTrippedLineRunsTheSameLifetime) {
  for (const Scenario& entry : Registry()) {
    // default and readheavy: a million records.
    if (entry.config.num_records > 100'000) continue;
    Scenario rebased = entry;
    rebased.base = "default";
    const Scenario parsed = MustParse(rebased.ToString());
    EXPECT_EQ(ShortRun(entry), ShortRun(parsed)) << rebased.ToString();
  }
}

std::string ParseError(const std::string& line) {
  Scenario s = Registered("healthy");
  const Status status = Scenario::Parse(line, &s);
  if (status.ok()) return "";
  EXPECT_TRUE(s == Registered("healthy")) << "Parse wrote on error";
  return status.message();
}

TEST(ScenarioLineTest, RejectsUnknownBase) {
  EXPECT_NE(ParseError("nosuch clients=1").find("nosuch"), std::string::npos);
  EXPECT_NE(ParseError("").find("empty"), std::string::npos);
}

TEST(ScenarioLineTest, RejectsUnknownKey) {
  EXPECT_NE(ParseError("healthy client=1").find("'client'"),
            std::string::npos);
  EXPECT_NE(ParseError("healthy clients").find("'clients' has no value"),
            std::string::npos);
  // sim.threads is a stub, not a key.
  EXPECT_NE(ParseError("healthy sim.threads=0").find("'sim.threads'"),
            std::string::npos);
}

TEST(ScenarioLineTest, RejectsMalformedValue) {
  for (const char* line :
       {"healthy clients=abc", "healthy clients=1x",
        "healthy horizon=3h", "healthy router=spanner",
        "healthy net.enabled=yes", "healthy net.enabled=true",
        "healthy horizon=300", "healthy hermes.alpha=",
        "healthy steps=add@1ms", "healthy steps=crash@1ms",
        "healthy steps=crash@1ms:2:0-1>2", "healthy steps=add@1ms:5-1>3",
        "healthy steps=jump@1ms:1"}) {
    const std::string key = std::string(line).substr(
        8, std::string(line).find('=') - 8);
    EXPECT_NE(ParseError(line).find("key '" + key + "': malformed"),
              std::string::npos)
        << line << " -> " << ParseError(line);
  }
}

// One line per rule CheckScenario adds to ClusterConfig::Validate (and three
// of Validate's own, and some of the workload configs'): the error names
// the key, or the config field.
TEST(ScenarioLineTest, RejectsWhatCannotRunNamingTheKey) {
  const std::pair<const char*, const char*> cases[] = {
      // healthy: 3 nodes, 6000 records, a 300 ms horizon.
      {"healthy steps=crash@301ms:1", "key 'steps'"},
      {"healthy steps=crash@2ms:1,rejoin@1ms:1", "key 'steps'"},
      {"healthy steps=cut@10ms:9", "key 'steps'"},
      {"healthy steps=crash@1ms:-1", "key 'steps'"},
      {"healthy steps=heal@1ms:3", "key 'steps'"},
      {"healthy steps=add@1ms:0-6000>3", "key 'steps'"},
      {"healthy steps=migrate@1ms:0-9>3", "key 'steps'"},
      {"healthy steps=remove@1ms:1:0-9>-1", "key 'steps'"},
      {"healthy clients=0", "key 'clients'"},
      {"healthy clients=-1", "key 'clients'"},
      {"healthy placement=warehouse", "key 'placement'"},
      {"tpcc placement=schism", "key 'placement'"},
      {"multitenant placement=skewed num_nodes=1", "key 'placement'"},
      {"healthy placement=schism schism_to=1ms", "key 'schism_to'"},
      {"healthy window=0", "key 'window'"},
      {"google window=64s", "key 'window'"},
      {"healthy num_nodes=0", "num_nodes"},
      {"healthy ollp_stale_prob=2", "ollp_stale_prob"},
      {"healthy replication.window_batches=0", "replication.window_batches"},
      // Unchecked, a negative length aborts a Release build
      // (std::bad_array_new_length) and theta = 1 runs past the
      // generator's Debug-only assert.
      {"determinism horizon=20ms ycsb.length_mean=-3", "ycsb.length_mean"},
      {"healthy ycsb.zipf_theta=1", "ycsb.zipf_theta"},
      {"healthy ycsb.rw_ratio=1.5", "ycsb.rw_ratio"},
      {"tpcc tpcc.items=0", "tpcc.items"},
      {"tpcc tpcc.new_order_ratio=-0.5", "tpcc.new_order_ratio"},
      {"multitenant mt.hot_fraction=1.5", "mt.hot_fraction"},
      {"multitenant mt.records_per_txn=0", "mt.records_per_txn"},
  };
  for (const auto& [line, key] : cases) {
    EXPECT_NE(ParseError(line).find(key), std::string::npos)
        << line << " -> " << ParseError(line);
  }
  // Each rule's edge parses; an added node exists from its add on.
  for (const char* line :
       {"healthy steps=crash@300ms:1",
        "healthy steps=add@1ms:0-5999>3,cut@1ms:3",
        "multitenant placement=skewed num_nodes=2",
        "healthy placement=schism schism_to=20ms",
        "healthy replication.window_batches=1",
        "healthy ycsb.zipf_theta=0.99 ycsb.length_mean=200",
        "tpcc tpcc.new_order_ratio=1 tpcc.items=1"}) {
    EXPECT_EQ(ParseError(line), "") << line;
  }
}

// One case per ClusterConfig::Validate rule: the field it names and a
// value the code cannot run with.
struct Rule {
  const char* field;
  void (*breaks)(ClusterConfig&);
};

class ValidateTest : public testing::TestWithParam<Rule> {};

TEST_P(ValidateTest, RejectsAndNamesTheField) {
  ClusterConfig config;
  ASSERT_TRUE(config.Validate().ok());
  GetParam().breaks(config);
  const Status status = config.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.message().rfind(GetParam().field, 0), 0u)
      << status.message();
}

INSTANTIATE_TEST_SUITE_P(
    Rules, ValidateTest,
    testing::Values(
        Rule{"num_nodes", [](ClusterConfig& c) { c.num_nodes = 0; }},
        Rule{"workers_per_node",
             [](ClusterConfig& c) { c.workers_per_node = 0; }},
        Rule{"epoch_us", [](ClusterConfig& c) { c.epoch_us = 0; }},
        Rule{"num_records", [](ClusterConfig& c) { c.num_records = 0; }},
        Rule{"migration_chunk_records",
             [](ClusterConfig& c) { c.migration_chunk_records = 0; }},
        Rule{"ollp_stale_prob",
             [](ClusterConfig& c) { c.ollp_stale_prob = -0.1; }},
        Rule{"ollp_stale_prob",
             [](ClusterConfig& c) { c.ollp_stale_prob = 1.5; }},
        Rule{"replication.replicas",
             [](ClusterConfig& c) { c.replication.replicas = 0; }},
        Rule{"replication.window_batches",
             [](ClusterConfig& c) { c.replication.window_batches = 0; }},
        Rule{"sim.threads", [](ClusterConfig& c) { c.sim.threads = 1; }}));

}  // namespace
}  // namespace hermes::workload
