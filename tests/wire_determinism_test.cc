// Digest oracle for the wire substrate (DESIGN.md §5 "Wire substrate"):
// with config.net.enabled the SAME seeded workload — including a mid-run
// AddNode (GrowLinks under the barrier) and a partition cut/heal cycle
// (OnLinkCut queue drain into the holding pens) — must produce
// bit-identical decision/placement/trace digests and wire counters under
// several hash salts. A second, lane-level test pins down envelope
// CONTENTS: the set and order of messages folded into each envelope. The
// NetScriptProfile test prints a parseable NET_PROFILE line for
// scripts/check_determinism.sh to compare across env salts.
#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "engine/cluster.h"
#include "net/wire.h"
#include "partition/partition_map.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/client.h"
#include "workload/scenarios.h"
#include "workload/ycsb.h"

namespace hermes {
namespace {

using engine::Cluster;
using engine::RouterKind;

std::vector<uint64_t> Salts() {
  return {HashSalt(), 0x9e3779b97f4a7c15ULL, 0xdeadbeefcafef00dULL};
}

struct RunResult {
  uint64_t decision = 0;
  uint64_t placement = 0;
  uint64_t trace = 0;
  uint64_t state_checksum = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t envelopes = 0;
  uint64_t coalesced = 0;
  uint64_t fg_transmits = 0;
  uint64_t bulk_transmits = 0;
  uint64_t credit_stalls = 0;
  SimTime fg_delay_p99 = 0;
  SimTime bulk_delay_p99 = 0;
};

bool operator==(const RunResult& a, const RunResult& b) {
  return a.decision == b.decision && a.placement == b.placement &&
         a.trace == b.trace && a.state_checksum == b.state_checksum &&
         a.commits == b.commits && a.aborts == b.aborts &&
         a.envelopes == b.envelopes && a.coalesced == b.coalesced &&
         a.fg_transmits == b.fg_transmits &&
         a.bulk_transmits == b.bulk_transmits &&
         a.credit_stalls == b.credit_stalls &&
         a.fg_delay_p99 == b.fg_delay_p99 &&
         a.bulk_delay_p99 == b.bulk_delay_p99;
}

ClusterConfig NetClusterConfig() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.num_records = 6'000;
  config.hermes.fusion_table_capacity = 250;
  config.migration_chunk_records = 250;
  config.obs.trace_enabled = true;
  config.net.enabled = true;
  // Tight enough that migration envelopes exhaust the window and stall
  // behind their own deliveries — the backpressure path must be exercised,
  // not just configured.
  config.net.link_credit_bytes = 8 * 1024;
  config.net.coalesce_window_us = 50;
  config.net.coalesce_max_bytes = 16 * 1024;
  // Leased-key write fan-out is the steady bulk stream that coalesces:
  // several copies toward the same holder inside one window ride one
  // envelope (chunk migrations are each far above the size cap).
  config.replication.enabled = true;
  config.replication.replicas = 3;
  config.replication.read_hot_threshold = 2;
  config.replication.write_revoke_threshold = 32;
  config.replication.max_leases = 256;
  return config;
}

std::unique_ptr<partition::PartitionMap> MapFor(const ClusterConfig& config) {
  return std::make_unique<partition::RangePartitionMap>(config.num_records,
                                                        config.num_nodes);
}

RunResult Harvest(Cluster& cluster) {
  RunResult r;
  r.decision = cluster.decision_digest().value();
  r.placement = cluster.placement_digest().value();
  r.trace = cluster.trace_digest().value();
  r.state_checksum = cluster.StateChecksum();
  r.commits = cluster.metrics().total_commits();
  r.aborts = cluster.metrics().total_aborts();
  const net::Wire& wire = cluster.wire();
  r.envelopes = wire.envelopes_sent();
  r.coalesced = wire.coalesced_messages();
  r.fg_transmits = wire.transmits(TrafficClass::kForeground);
  r.bulk_transmits = wire.transmits(TrafficClass::kBulk);
  r.credit_stalls = wire.credit_stalls();
  r.fg_delay_p99 = wire.MergedQueueDelay(TrafficClass::kForeground)
                       .Percentile(0.99);
  r.bulk_delay_p99 =
      wire.MergedQueueDelay(TrafficClass::kBulk).Percentile(0.99);
  return r;
}

// One seeded net-enabled lifetime: steady YCSB traffic, a scale-out at
// 150ms (lane + link growth while envelopes are in flight), a two-sided
// cut of node 2 at 220ms (transmit queues drain into the pens) healed at
// 260ms (pens release FIFO, serialization re-measured).
RunResult RunNetWorkload() {
  ClusterConfig config = NetClusterConfig();
  Cluster cluster(config, RouterKind::kHermes, MapFor(config));
  cluster.Load();

  workload::YcsbConfig wl = workload::ReadHeavySkewedYcsb(
      config.num_records, config.num_nodes, /*write_fraction=*/0.05,
      /*seed=*/20'260'808);
  workload::YcsbWorkload gen(wl, nullptr);
  workload::ClosedLoopDriver driver(
      &cluster, 24, [&gen](int, SimTime now) { return gen.Next(now); });
  driver.set_stop_time(MsToSim(400));
  driver.Start();

  cluster.RunUntil(MsToSim(150));
  cluster.AddNode({{0, config.num_records / 4 - 1, 4}},
                  /*migrate_cold=*/true);
  cluster.RunUntil(MsToSim(220));
  cluster.PartitionCut(2, /*cut_inbound=*/true, /*cut_outbound=*/true);
  cluster.RunUntil(MsToSim(260));
  cluster.PartitionHeal(2);
  cluster.RunUntil(MsToSim(400));
  cluster.Drain();
  return Harvest(cluster);
}

TEST(WireDeterminismTest, NetEnabledDigestsAcrossSalts) {
  const uint64_t old_salt = HashSalt();
  std::vector<RunResult> runs;
  for (uint64_t salt : Salts()) {
    SetHashSalt(salt);
    runs.push_back(RunNetWorkload());
  }
  SetHashSalt(old_salt);

  const RunResult& base = runs[0];
  ASSERT_GT(base.commits, 50u) << "workload too small";
  ASSERT_GT(base.envelopes, 0u) << "coalescing never engaged";
  ASSERT_GT(base.coalesced, base.envelopes)
      << "no envelope carried more than one message";
  ASSERT_GT(base.fg_transmits, 0u);
  ASSERT_GT(base.credit_stalls, 0u) << "backpressure never engaged";
  for (size_t i = 1; i < runs.size(); ++i) {
    const RunResult& got = runs[i];
    EXPECT_TRUE(base == got)
        << "diverged under salt #" << i << ": decision " << std::hex
        << got.decision << " vs " << base.decision << ", placement "
        << got.placement << " vs " << base.placement << ", trace "
        << got.trace << std::dec << ", envelopes " << got.envelopes
        << " vs " << base.envelopes << ", coalesced " << got.coalesced
        << " vs " << base.coalesced << ", stalls " << got.credit_stalls
        << " vs " << base.credit_stalls << ", commits " << got.commits
        << " vs " << base.commits;
  }
}

// Envelope CONTENTS, not just the digests: three source lanes append bulk
// messages toward node 0 on interleaved schedules, and the delivery order
// of every message id must be the same under every salt (envelopes open in
// append order; appends fold in virtual-time order per link).
struct ContentsResult {
  std::vector<int> order;
  uint64_t envelopes = 0;
  uint64_t coalesced = 0;
};

ContentsResult RunEnvelopeContents() {
  sim::Simulator sim;
  CostModel costs;
  costs.net_latency_us = 100;
  costs.net_us_per_byte = 0.001;
  costs.message_overhead_bytes = 64;
  sim::Network fabric(&sim, &costs, 4);
  NetConfig net_config;
  net_config.enabled = true;
  net_config.coalesce_window_us = 40;
  net_config.coalesce_max_bytes = 4 * 1024;
  net::Wire wire(&sim, &fabric, &costs, &net_config, 4);
  sim.ConfigureLanes(4);

  ContentsResult result;
  for (int src = 1; src <= 3; ++src) {
    for (int k = 0; k < 8; ++k) {
      const int id = src * 100 + k;
      sim.ScheduleOnLane(src, static_cast<SimTime>(10 * k + src),
                         [&wire, &result, &sim, src, id] {
                           wire.Send(src, 0, 500, TrafficClass::kBulk,
                                     [&result, id] {
                                       // Runs on lane 0 only: appends are
                                       // serialized within each epoch.
                                       result.order.push_back(id);
                                     });
                           (void)sim;
                         });
    }
  }
  sim.RunAll();
  result.envelopes = wire.envelopes_sent();
  result.coalesced = wire.coalesced_messages();
  return result;
}

TEST(WireDeterminismTest, EnvelopeContentsAcrossSalts) {
  const uint64_t old_salt = HashSalt();
  std::vector<ContentsResult> runs;
  for (uint64_t salt : Salts()) {
    SetHashSalt(salt);
    runs.push_back(RunEnvelopeContents());
  }
  SetHashSalt(old_salt);

  const ContentsResult& base = runs[0];
  ASSERT_EQ(base.coalesced, 24u);
  ASSERT_GT(base.envelopes, 0u);
  ASSERT_LT(base.envelopes, base.coalesced)
      << "nothing coalesced: every message rode alone";
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(base.order, runs[i].order)
        << "envelope contents shifted under salt #" << i;
    EXPECT_EQ(base.envelopes, runs[i].envelopes);
    EXPECT_EQ(base.coalesced, runs[i].coalesced);
  }
}

// One seeded net-enabled lifetime under the PROCESS salt
// (HERMES_HASH_SALT), printing a parseable outcome line.
// scripts/check_determinism.sh runs this binary under several env salts
// and requires every printed NET_PROFILE line to be identical across
// processes.
TEST(NetScriptProfile, SingleSeededRunPrintsOutcome) {
  const RunResult out = RunNetWorkload();
  ASSERT_GT(out.commits, 50u);
  std::printf("NET_PROFILE digest=%016llx placement=%016llx trace=%016llx "
              "checksum=%016llx commits=%llu envelopes=%llu coalesced=%llu "
              "fg_tx=%llu bulk_tx=%llu stalls=%llu fg_p99=%llu "
              "bulk_p99=%llu\n",
              static_cast<unsigned long long>(out.decision),
              static_cast<unsigned long long>(out.placement),
              static_cast<unsigned long long>(out.trace),
              static_cast<unsigned long long>(out.state_checksum),
              static_cast<unsigned long long>(out.commits),
              static_cast<unsigned long long>(out.envelopes),
              static_cast<unsigned long long>(out.coalesced),
              static_cast<unsigned long long>(out.fg_transmits),
              static_cast<unsigned long long>(out.bulk_transmits),
              static_cast<unsigned long long>(out.credit_stalls),
              static_cast<unsigned long long>(out.fg_delay_p99),
              static_cast<unsigned long long>(out.bulk_delay_p99));
}

}  // namespace
}  // namespace hermes
